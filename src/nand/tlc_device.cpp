#include "src/nand/tlc_device.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::nand {

TlcBlock::TlcBlock(std::uint32_t wordlines, TlcSequenceKind kind, PayloadTable* payloads)
    : kind_(kind), state_(wordlines), slots_(wordlines * 3), payloads_(payloads) {}

Status TlcBlock::program(TlcPagePos pos, const PageData& data) {
  const Status legal = can_program(pos);
  if (!legal.is_ok()) return legal;
  state_.mark_programmed(pos);
  slots_[pos.flat_index()] = PageSlot{data, PageState::kValid};
  if (payloads_ != nullptr) payloads_->retain_existing(data.signature);
  ++programmed_;
  ++pass_counts_[static_cast<std::size_t>(pos.type)];
  return Status::ok();
}

Result<PageData> TlcBlock::read(TlcPagePos pos) const {
  if (pos.wordline >= wordlines()) return ErrorCode::kOutOfRange;
  const PageSlot& s = slots_[pos.flat_index()];
  switch (s.state) {
    case PageState::kErased: return ErrorCode::kNotProgrammed;
    case PageState::kCorrupted: return ErrorCode::kEccUncorrectable;
    case PageState::kValid: return s.record;
  }
  return ErrorCode::kInvalidArgument;
}

void TlcBlock::erase() {
  if (payloads_ != nullptr) payloads_->release_valid(slots_);
  std::fill(slots_.begin(), slots_.end(), PageSlot{});
  state_.reset();
  pass_counts_ = {0, 0, 0};
  programmed_ = 0;
  corrupted_ = 0;
  ++erase_count_;
}

void TlcBlock::corrupt(TlcPagePos pos) {
  PageSlot& s = slots_[pos.flat_index()];
  if (s.state == PageState::kValid) {
    if (payloads_ != nullptr) payloads_->release(s.record.signature);
    s = PageSlot{PageData{}, PageState::kCorrupted};
    ++corrupted_;
  }
}

std::optional<TlcPagePos> TlcBlock::next_in_pass(TlcPageType type) const {
  const std::uint32_t frontier = pass_counts_[static_cast<std::size_t>(type)];
  if (frontier >= wordlines()) return std::nullopt;
  const TlcPagePos candidate{frontier, type};
  if (!can_program(candidate).is_ok()) return std::nullopt;
  return candidate;
}

TlcChip::TlcChip(std::uint32_t blocks, std::uint32_t wordlines, TlcSequenceKind kind,
                 const TlcTimingSpec& timing, PayloadTable* payloads)
    : timing_(timing) {
  blocks_.reserve(blocks);
  for (std::uint32_t b = 0; b < blocks; ++b) blocks_.emplace_back(wordlines, kind, payloads);
  wear_.resize(blocks);  // preallocated up front: the ledger never grows
}

Microseconds TlcChip::occupy(Microseconds now, Microseconds latency) {
  const Microseconds start = std::max(now, busy_until_);
  busy_until_ = start + latency;
  return start;
}

Result<OpTiming> TlcChip::program(std::uint32_t b, TlcPagePos pos, const PageData& data,
                                  Microseconds now) {
  if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
  const Status legal = blocks_[b].can_program(pos);
  if (!legal.is_ok()) return legal.code();
  const Microseconds start = occupy(now, timing_.program_us(pos.type));
  const std::uint64_t spare = data.spare;
  const Status programmed = blocks_[b].program(pos, data);
  assert(programmed.is_ok());
  (void)programmed;
  if (pos.type == TlcPageType::kLsb) {
    ++counters_.lsb_programs;
  } else {
    ++counters_.msb_programs;  // CSB+MSB both count as slow programs
  }
  ++wear_[b].programs;
  if (attr_ != nullptr) {
    attr_->note_program(pos.type == TlcPageType::kLsb,
                        (spare & kNonHostSpareFlag) != 0, stream_of_spare(spare));
  }
  const OpTiming timing{start, busy_until_};
  last_program_ = InFlight{b, pos, timing.start, timing.complete};
  return timing;
}

Result<TlcChip::ReadOutcome> TlcChip::read(std::uint32_t b, TlcPagePos pos,
                                           Microseconds now) {
  if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
  if (pos.wordline >= blocks_[b].wordlines()) return ErrorCode::kOutOfRange;
  const Microseconds start = occupy(now, timing_.read_us);
  ++counters_.reads;
  ReadOutcome outcome;
  outcome.timing = OpTiming{start, busy_until_};
  outcome.data = blocks_[b].read(pos);
  return outcome;
}

Result<OpTiming> TlcChip::erase(std::uint32_t b, Microseconds now) {
  if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
  const Microseconds start = occupy(now, timing_.erase_us);
  blocks_[b].erase();
  ++counters_.erases;
  ++wear_[b].erases;
  wear_[b].last_erase_us = start;
  if (attr_ != nullptr) attr_->note_erase();
  return OpTiming{start, busy_until_};
}

std::optional<TlcChip::InFlight> TlcChip::apply_power_loss(Microseconds t) {
  if (!last_program_ || t < last_program_->start || t >= last_program_->complete) {
    return std::nullopt;
  }
  TlcBlock& block = blocks_[last_program_->block];
  const std::uint32_t wl = last_program_->pos.wordline;
  // The interrupted pass and every lower pass of the word line are lost:
  // shadow programming physically re-places the lower pages' charge.
  for (std::uint8_t pass = 0; pass <= static_cast<std::uint8_t>(last_program_->pos.type);
       ++pass) {
    block.corrupt({wl, static_cast<TlcPageType>(pass)});
  }
  return last_program_;
}

std::uint64_t TlcChip::total_erase_count() const {
  std::uint64_t total = 0;
  for (const TlcBlock& b : blocks_) total += b.erase_count();
  return total;
}

TlcDevice::TlcDevice(const TlcGeometry& geometry, const TlcTimingSpec& timing,
                     TlcSequenceKind kind)
    : geometry_(geometry),
      timing_(timing),
      kind_(kind),
      channel_busy_until_(geometry.channels, 0) {
  chips_.reserve(geometry.num_chips());
  for (std::uint32_t c = 0; c < geometry.num_chips(); ++c) {
    chips_.push_back(std::make_unique<TlcChip>(
        geometry.blocks_per_chip, geometry.wordlines_per_block, kind, timing, &payloads_));
    chips_.back()->attach_attribution(&attribution_);
  }
}

bool TlcDevice::in_range(const TlcPageAddress& addr) const {
  return addr.chip < geometry_.num_chips() &&
         addr.block < geometry_.blocks_per_chip &&
         addr.pos.wordline < geometry_.wordlines_per_block;
}

Microseconds TlcDevice::occupy_channel(std::uint32_t channel, Microseconds now) {
  Microseconds& busy = channel_busy_until_.at(channel);
  const Microseconds start = std::max(now, busy);
  busy = start + timing_.transfer_us;
  return start;
}

Result<OpTiming> TlcDevice::program(const TlcPageAddress& addr, const PageData& data,
                                    Microseconds now) {
  if (!in_range(addr)) return ErrorCode::kOutOfRange;
  const Status legal = chips_[addr.chip]->block(addr.block).can_program(addr.pos);
  if (!legal.is_ok()) return legal.code();
  const Microseconds bus_start =
      occupy_channel(geometry_.channel_of_chip(addr.chip), now);
  Result<OpTiming> cell = chips_[addr.chip]->program(
      addr.block, addr.pos, data, bus_start + timing_.transfer_us);
  assert(cell.is_ok());
  return OpTiming{bus_start, cell.value().complete};
}

Result<TlcDevice::ReadResult> TlcDevice::read(const TlcPageAddress& addr,
                                              Microseconds now) {
  if (!in_range(addr)) return ErrorCode::kOutOfRange;
  Result<TlcChip::ReadOutcome> sensed =
      chips_[addr.chip]->read(addr.block, addr.pos, now);
  if (!sensed.is_ok()) return sensed.code();
  const Microseconds bus_start = occupy_channel(
      geometry_.channel_of_chip(addr.chip), sensed.value().timing.complete);
  ReadResult result;
  result.timing = OpTiming{sensed.value().timing.start, bus_start + timing_.transfer_us};
  result.data = sensed.value().data;
  return result;
}

Result<OpTiming> TlcDevice::erase(std::uint32_t chip, std::uint32_t block,
                                  Microseconds now) {
  if (chip >= geometry_.num_chips() || block >= geometry_.blocks_per_chip) {
    return ErrorCode::kOutOfRange;
  }
  return chips_[chip]->erase(block, now);
}

std::vector<TlcDevice::PowerLossVictim> TlcDevice::inject_power_loss(Microseconds t) {
  std::vector<PowerLossVictim> victims;
  for (std::uint32_t c = 0; c < chips_.size(); ++c) {
    if (const auto hit = chips_[c]->apply_power_loss(t)) {
      victims.push_back(PowerLossVictim{c, hit->block, hit->pos});
    }
  }
  return victims;
}

OpCounters TlcDevice::total_counters() const {
  OpCounters total;
  for (const auto& chip : chips_) total += chip->counters();
  return total;
}

std::uint64_t TlcDevice::total_erase_count() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip->total_erase_count();
  return total;
}

Microseconds TlcDevice::all_idle_at() const {
  Microseconds latest = 0;
  for (const auto& chip : chips_) latest = std::max(latest, chip->busy_until());
  for (const Microseconds busy : channel_busy_until_) latest = std::max(latest, busy);
  return latest;
}

void TlcBlock::save(ser::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.u64(erase_count_);
  w.u64(slots_.size());
  save_pages(w, slots_, programmed_ - corrupted_, payloads_);
}

void TlcBlock::load(ser::Reader& r) {
  if (r.u8() != static_cast<std::uint8_t>(kind_)) {
    r.fail();
    return;
  }
  erase_count_ = r.u64();
  if (r.u64() != slots_.size()) {
    r.fail();
    return;
  }
  load_pages(r, slots_, payloads_);
  // Pass progression and counters derive from the slot states; iterating
  // flat indices visits L, C, M of each word line in pass order.
  state_.reset();
  pass_counts_ = {0, 0, 0};
  programmed_ = 0;
  corrupted_ = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == PageState::kErased) continue;
    const TlcPagePos pos{i / 3, static_cast<TlcPageType>(i % 3)};
    if (state_.passes(pos.wordline) != static_cast<std::uint8_t>(pos.type)) {
      // A later pass programmed over an erased earlier one: not a state a
      // device can reach, and mark_programmed asserts on it.
      r.fail();
      return;
    }
    state_.mark_programmed(pos);
    ++programmed_;
    if (slots_[i].state == PageState::kCorrupted) ++corrupted_;
    ++pass_counts_[static_cast<std::size_t>(pos.type)];
  }
}

void TlcChip::save(ser::Writer& w) const {
  w.u64(blocks_.size());
  for (const TlcBlock& b : blocks_) b.save(w);
  w.i64(busy_until_);
  w.u64(counters_.reads);
  w.u64(counters_.lsb_programs);
  w.u64(counters_.msb_programs);
  w.u64(counters_.erases);
  w.boolean(last_program_.has_value());
  if (last_program_) {
    w.u32(last_program_->block);
    w.u32(last_program_->pos.wordline);
    w.u8(static_cast<std::uint8_t>(last_program_->pos.type));
    w.i64(last_program_->start);
    w.i64(last_program_->complete);
  }
  for (const BlockWear& wear : wear_) nand::save(w, wear);
}

void TlcChip::load(ser::Reader& r) {
  if (r.u64() != blocks_.size()) {
    r.fail();
    return;
  }
  for (TlcBlock& b : blocks_) b.load(r);
  busy_until_ = r.i64();
  counters_.reads = r.u64();
  counters_.lsb_programs = r.u64();
  counters_.msb_programs = r.u64();
  counters_.erases = r.u64();
  last_program_.reset();
  if (r.boolean()) {
    InFlight p;
    p.block = r.u32();
    p.pos.wordline = r.u32();
    const std::uint8_t type = r.u8();
    p.start = r.i64();
    p.complete = r.i64();
    // Indexes blocks_ at the next power loss: reject out-of-range values.
    if (p.block >= blocks_.size() || p.pos.wordline >= blocks_[p.block].wordlines() ||
        type > static_cast<std::uint8_t>(TlcPageType::kMsb)) {
      r.fail();
      return;
    }
    p.pos.type = static_cast<TlcPageType>(type);
    last_program_ = p;
  }
  for (BlockWear& wear : wear_) nand::load(r, wear);
}

void TlcDevice::save(ser::Writer& w) const {
  w.u64(chips_.size());
  for (const auto& chip : chips_) chip->save(w);
  w.u64(channel_busy_until_.size());
  for (const Microseconds busy : channel_busy_until_) w.i64(busy);
  nand::save(w, attribution_.counters);
}

void TlcDevice::load(ser::Reader& r) {
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
  nand::load(r, attribution_.counters);
}

}  // namespace rps::nand
