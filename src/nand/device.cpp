#include "src/nand/device.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::nand {

NandDevice::NandDevice(const Geometry& geometry, const TimingSpec& timing,
                       SequenceKind kind, const BadBlockConfig& bad_blocks)
    : geometry_(geometry),
      timing_(timing),
      kind_(kind),
      channel_busy_until_(geometry.channels, 0),
      bad_blocks_(bad_blocks, geometry.num_units(), geometry.blocks_per_chip) {
  assert(geometry.valid());
  chips_.reserve(geometry.num_units());
  for (std::uint32_t u = 0; u < geometry.num_units(); ++u) {
    chips_.push_back(std::make_unique<Chip>(geometry.blocks_per_chip,
                                            geometry.wordlines_per_block, kind, timing,
                                            geometry.bits_per_cell, &payloads_));
    chips_.back()->attach_attribution(&attribution_);
  }
}

std::optional<std::uint32_t> NandDevice::grow_bad(std::uint32_t unit,
                                                  std::uint32_t block,
                                                  std::uint32_t old_physical,
                                                  BadBlockCause cause,
                                                  Microseconds now) {
  const std::optional<std::uint32_t> spare = bad_blocks_.remap(unit, block, cause);
  if (bad_block_listener_) {
    bad_block_listener_(BadBlockEvent{
        unit, block, old_physical,
        spare ? static_cast<std::int64_t>(*spare) : -1, cause, now});
  }
  return spare;
}

Result<std::uint32_t> NandDevice::resolve_erase(const BlockAddress& addr,
                                                Microseconds now) {
  const std::uint32_t unit = addr.chip;
  if (bad_blocks_.enabled() && bad_blocks_.is_retired(unit, addr.block)) {
    return ErrorCode::kBlockBad;
  }
  std::uint32_t physical = bad_blocks_.translate(unit, addr.block);
  if (bad_blocks_.enabled() &&
      chips_[unit]->block(physical).erase_count() >=
          bad_blocks_.endurance_limit(unit, physical)) {
    const std::optional<std::uint32_t> spare =
        grow_bad(unit, addr.block, physical, BadBlockCause::kEraseFailure, now);
    if (!spare) return ErrorCode::kBlockBad;
    physical = *spare;
  }
  return physical;
}

Status NandDevice::can_program(const PageAddress& addr) const {
  if (!in_range(addr)) return Status{ErrorCode::kOutOfRange};
  if (bad_blocks_.enabled() && bad_blocks_.is_retired(addr.chip, addr.block)) {
    return Status{ErrorCode::kBlockBad};
  }
  const std::uint32_t physical = bad_blocks_.translate(addr.chip, addr.block);
  return chips_[addr.chip]->block(physical).can_program(addr.pos);
}

Result<OpTiming> NandDevice::erase(BlockAddress addr, Microseconds now) {
  if (addr.chip >= geometry_.num_units() ||
      addr.block >= bad_blocks_.visible_blocks()) {
    return ErrorCode::kOutOfRange;
  }
  Result<std::uint32_t> physical = resolve_erase(addr, now);
  if (!physical.is_ok()) return physical.code();
  return chips_[addr.chip]->erase(physical.value(), now);
}

Result<OpTiming> NandDevice::multi_plane_program(
    const std::vector<PageAddress>& group, std::vector<PageData> data,
    Microseconds now) {
  if (group.empty() || group.size() != data.size() ||
      group.size() > geometry_.planes_per_chip) {
    return ErrorCode::kInvalidArgument;
  }
  const std::uint32_t die = geometry_.chip_of_unit(group.front().chip);
  std::vector<std::uint32_t> physical(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const PageAddress& addr = group[i];
    if (!in_range(addr)) return ErrorCode::kOutOfRange;
    // Plane-addressing constraint: one die, distinct planes, the same
    // block offset and page position on every plane.
    if (geometry_.chip_of_unit(addr.chip) != die ||
        addr.block != group.front().block || !(addr.pos == group.front().pos)) {
      return ErrorCode::kInvalidArgument;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (group[j].chip == addr.chip) return ErrorCode::kInvalidArgument;
    }
    Result<std::uint32_t> resolved = resolve_program(addr, now);
    if (!resolved.is_ok()) return resolved.code();
    physical[i] = resolved.value();
  }
  // Data in: one serialized transfer per plane on the die's channel.
  const std::uint32_t channel = geometry_.channel_of_chip(die);
  Microseconds first_bus = kTimeNever;
  Microseconds last_bus_end = now;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Microseconds bus_start = occupy_channel(channel, now);
    first_bus = std::min(first_bus, bus_start);
    last_bus_end = std::max(last_bus_end, bus_start + timing_.transfer_us);
  }
  // Cells fire together once every member plane is idle: the group's
  // program windows align exactly, so wall-clock pays the latency once.
  Microseconds cell_start = last_bus_end;
  for (const PageAddress& addr : group) {
    cell_start = std::max(cell_start, chips_[addr.chip]->busy_until());
  }
  Microseconds complete = cell_start;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const OpTiming cell = chips_[group[i].chip]->program_resolved(
        physical[i], group[i].pos, data[i], cell_start);
    complete = std::max(complete, cell.complete);
  }
  return OpTiming{first_bus, complete};
}

Result<OpTiming> NandDevice::multi_plane_erase(
    const std::vector<BlockAddress>& group, Microseconds now) {
  if (group.empty() || group.size() > geometry_.planes_per_chip) {
    return ErrorCode::kInvalidArgument;
  }
  const std::uint32_t die = geometry_.chip_of_unit(group.front().chip);
  std::vector<std::uint32_t> physical(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const BlockAddress& addr = group[i];
    if (addr.chip >= geometry_.num_units() ||
        addr.block >= bad_blocks_.visible_blocks()) {
      return ErrorCode::kOutOfRange;
    }
    if (geometry_.chip_of_unit(addr.chip) != die ||
        addr.block != group.front().block) {
      return ErrorCode::kInvalidArgument;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (group[j].chip == addr.chip) return ErrorCode::kInvalidArgument;
    }
    Result<std::uint32_t> resolved = resolve_erase(addr, now);
    if (!resolved.is_ok()) return resolved.code();
    physical[i] = resolved.value();
  }
  Microseconds start = now;
  for (const BlockAddress& addr : group) {
    start = std::max(start, chips_[addr.chip]->busy_until());
  }
  OpTiming out{start, start};
  for (std::size_t i = 0; i < group.size(); ++i) {
    Result<OpTiming> erased = chips_[group[i].chip]->erase(physical[i], start);
    assert(erased.is_ok());
    out.complete = std::max(out.complete, erased.value().complete);
  }
  return out;
}

std::vector<PowerLossVictim> NandDevice::inject_power_loss(Microseconds t) {
  std::vector<PowerLossVictim> victims;
  for (std::uint32_t c = 0; c < chips_.size(); ++c) {
    if (auto hit = chips_[c]->apply_power_loss(t)) {
      // Victims are reported under their FTL-visible address: an in-flight
      // program always targets a reachable physical block, so the reverse
      // translation is total here.
      const std::optional<std::uint32_t> visible =
          bad_blocks_.reverse(c, hit->block);
      assert(visible.has_value());
      victims.push_back(PowerLossVictim{c, visible.value_or(hit->block), hit->pos});
    }
  }
  // The channel buses stop with the power: cap their timelines at the cut
  // so post-reboot work (recovery reads) starts immediately.
  for (Microseconds& busy : channel_busy_until_) busy = std::min(busy, t);
  ++power_loss_count_;
  return victims;
}

OpCounters NandDevice::total_counters() const {
  OpCounters total;
  for (const auto& chip : chips_) total += chip->counters();
  return total;
}

std::uint64_t NandDevice::total_erase_count() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip->total_erase_count();
  return total;
}

Microseconds NandDevice::all_idle_at() const {
  Microseconds latest = 0;
  for (const auto& chip : chips_) latest = std::max(latest, chip->busy_until());
  for (const Microseconds busy : channel_busy_until_) latest = std::max(latest, busy);
  return latest;
}

void NandDevice::save(ser::Writer& w) const {
  w.u64(chips_.size());
  for (const auto& chip : chips_) chip->save(w);
  w.u64(channel_busy_until_.size());
  for (const Microseconds busy : channel_busy_until_) w.i64(busy);
  bad_blocks_.save(w);
  w.boolean(cache_program_);
  w.u64(power_loss_count_);
  rps::nand::save(w, attribution_.counters);
}

void NandDevice::load(ser::Reader& r) {
  if (r.u64() != chips_.size()) {
    r.fail();
    return;
  }
  for (const auto& chip : chips_) chip->load(r);
  if (r.u64() != channel_busy_until_.size()) {
    r.fail();
    return;
  }
  for (Microseconds& busy : channel_busy_until_) busy = r.i64();
  bad_blocks_.load(r);
  cache_program_ = r.boolean();
  power_loss_count_ = r.u64();
  rps::nand::load(r, attribution_.counters);
}

}  // namespace rps::nand
