#include "src/nand/bad_block.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/util/serialize.hpp"

namespace rps::nand {

namespace {
constexpr std::uint64_t kPpmScale = 1'000'000;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t BadBlockTable::draw(std::uint64_t salt, std::uint32_t unit,
                                  std::uint32_t block, std::uint64_t extra) const {
  std::uint64_t x = splitmix64(config_.seed ^ salt);
  x = splitmix64(x ^ (static_cast<std::uint64_t>(unit) << 32 | block));
  return splitmix64(x ^ extra);
}

BadBlockTable::BadBlockTable(const BadBlockConfig& config, std::uint32_t units,
                             std::uint32_t blocks_per_unit)
    : config_(config), blocks_per_unit_(blocks_per_unit) {
  assert(config.spare_blocks_per_unit < blocks_per_unit);
  visible_blocks_ = blocks_per_unit - config.spare_blocks_per_unit;
  units_.resize(units);
  for (std::uint32_t u = 0; u < units; ++u) {
    UnitState& state = units_[u];
    state.bad.assign(blocks_per_unit, false);
    state.retired.assign(visible_blocks_, false);
    // Factory scan: mark defects, then build the spare pool from the good
    // blocks of the reserved tail region (ascending, so remap order is
    // deterministic and independent of the failure order-of-discovery).
    for (std::uint32_t b = 0; b < blocks_per_unit; ++b) {
      if (config_.factory_bad_ppm > 0 &&
          draw(/*salt=*/0xfac0, u, b) % kPpmScale < config_.factory_bad_ppm) {
        state.bad[b] = true;
        ++counters_.factory_bad;
      }
    }
    for (std::uint32_t b = visible_blocks_; b < blocks_per_unit; ++b) {
      if (!state.bad[b]) state.spare_free.push_back(b);
    }
    // Factory-bad visible blocks are remapped at birth; with the pool
    // exhausted they are retired before the FTL ever sees them.
    for (std::uint32_t b = 0; b < visible_blocks_; ++b) {
      if (!state.bad[b]) continue;
      if (const std::optional<std::uint32_t> spare = take_spare(state)) {
        state.remap[b] = *spare;
        state.reverse[*spare] = b;
        any_remap_ = true;
        ++counters_.remapped;
      } else {
        state.retired[b] = true;
        any_retired_ = true;
        ++counters_.retired;
      }
    }
  }
}

std::optional<std::uint32_t> BadBlockTable::take_spare(UnitState& state) {
  if (state.spare_free.empty()) return std::nullopt;
  const std::uint32_t spare = state.spare_free.front();
  state.spare_free.erase(state.spare_free.begin());
  return spare;
}

std::uint32_t BadBlockTable::translate_slow(std::uint32_t unit,
                                            std::uint32_t block) const {
  const UnitState& state = units_[unit];
  const auto it = state.remap.find(block);
  return it == state.remap.end() ? block : it->second;
}

std::optional<std::uint32_t> BadBlockTable::reverse(std::uint32_t unit,
                                                    std::uint32_t physical) const {
  const UnitState& state = units_.at(unit);
  if (physical < visible_blocks_) {
    // A visible physical location is its own address unless it went bad
    // (its data, if any, is unreachable) or was retired.
    if (state.bad[physical]) return std::nullopt;
    if (state.retired[physical]) return std::nullopt;
    return physical;
  }
  const auto it = state.reverse.find(physical);
  if (it == state.reverse.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> BadBlockTable::remap(std::uint32_t unit,
                                                  std::uint32_t block,
                                                  BadBlockCause cause) {
  assert(block < visible_blocks_);
  UnitState& state = units_.at(unit);
  assert(!state.retired[block]);
  const std::uint32_t old_physical = translate(unit, block);
  if (!state.bad[old_physical]) {
    state.bad[old_physical] = true;
    if (cause != BadBlockCause::kFactory) ++counters_.grown_bad;
  }
  // Drop the stale mapping (if the block had already been remapped once).
  if (const auto it = state.remap.find(block); it != state.remap.end()) {
    state.reverse.erase(it->second);
    state.remap.erase(it);
  }
  const std::optional<std::uint32_t> spare = take_spare(state);
  if (!spare) {
    state.retired[block] = true;
    any_retired_ = true;
    ++counters_.retired;
    return std::nullopt;
  }
  state.remap[block] = *spare;
  state.reverse[*spare] = block;
  any_remap_ = true;
  ++counters_.remapped;
  return spare;
}

std::vector<std::uint32_t> BadBlockTable::dead_visible_blocks(std::uint32_t unit) const {
  std::vector<std::uint32_t> dead;
  const UnitState& state = units_.at(unit);
  for (std::uint32_t b = 0; b < visible_blocks_; ++b) {
    if (state.retired[b]) dead.push_back(b);
  }
  return dead;
}

std::uint64_t BadBlockTable::endurance_limit(std::uint32_t unit,
                                             std::uint32_t physical) const {
  if (config_.erase_endurance == 0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t mean = config_.erase_endurance;
  const std::uint64_t spread =
      mean * config_.endurance_jitter_pct / 100;  // half-width of the window
  if (spread == 0) return std::max<std::uint64_t>(1, mean);
  const std::uint64_t low = mean > spread ? mean - spread : 1;
  const std::uint64_t width = 2 * spread + 1;
  return std::max<std::uint64_t>(1, low + draw(/*salt=*/0xedu, unit, physical) % width);
}

bool BadBlockTable::draw_program_failure(std::uint32_t unit, std::uint32_t physical,
                                         std::uint64_t erase_count) const {
  if (config_.program_fail_ppm == 0) return false;
  return draw(/*salt=*/0xf441, unit, physical, erase_count) % kPpmScale <
         config_.program_fail_ppm;
}

void BadBlockTable::save(ser::Writer& w) const {
  w.u64(units_.size());
  for (const UnitState& unit : units_) {
    // Canonical order: remap entries sorted by visible block. The reverse
    // map is the exact inverse, so it is rebuilt on load rather than stored.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries(unit.remap.begin(),
                                                                 unit.remap.end());
    std::sort(entries.begin(), entries.end());
    w.u64(entries.size());
    for (const auto& [visible, physical] : entries) {
      w.u32(visible);
      w.u32(physical);
    }
    w.u64(unit.spare_free.size());
    for (const std::uint32_t spare : unit.spare_free) w.u32(spare);
    w.u64(unit.bad.size());
    for (const bool b : unit.bad) w.boolean(b);
    w.u64(unit.retired.size());
    for (const bool b : unit.retired) w.boolean(b);
  }
  w.u64(counters_.factory_bad);
  w.u64(counters_.grown_bad);
  w.u64(counters_.remapped);
  w.u64(counters_.retired);
  w.boolean(any_remap_);
  w.boolean(any_retired_);
}

void BadBlockTable::load(ser::Reader& r) {
  if (r.u64() != units_.size()) {
    r.fail();
    return;
  }
  const auto is_spare = [this](std::uint32_t block) {
    return block >= visible_blocks_ && block < blocks_per_unit_;
  };
  bool remapped = false;
  bool retired = false;
  for (UnitState& unit : units_) {
    unit.remap.clear();
    unit.reverse.clear();
    const std::uint64_t remaps = r.u64();
    if (remaps > r.remaining()) {
      r.fail();
      return;
    }
    for (std::uint64_t i = 0; i < remaps; ++i) {
      // A visible block backed by a spare, each of them in one pair only.
      const std::uint32_t visible = r.u32();
      const std::uint32_t physical = r.u32();
      if (visible >= visible_blocks_ || !is_spare(physical) ||
          !unit.remap.emplace(visible, physical).second ||
          !unit.reverse.emplace(physical, visible).second) {
        r.fail();
        return;
      }
    }
    remapped = remapped || !unit.remap.empty();
    unit.spare_free.clear();
    const std::uint64_t spares = r.u64();
    if (spares > r.remaining()) {
      r.fail();
      return;
    }
    unit.spare_free.reserve(static_cast<std::size_t>(spares));
    for (std::uint64_t i = 0; i < spares; ++i) {
      // Unused spares: ascending (take_spare pops the lowest), none of
      // them backing a visible block.
      const std::uint32_t spare = r.u32();
      if (!is_spare(spare) || (!unit.spare_free.empty() && spare <= unit.spare_free.back()) ||
          unit.reverse.count(spare) != 0) {
        r.fail();
        return;
      }
      unit.spare_free.push_back(spare);
    }
    if (r.u64() != unit.bad.size()) {
      r.fail();
      return;
    }
    for (std::size_t i = 0; i < unit.bad.size(); ++i) unit.bad[i] = r.boolean();
    if (r.u64() != unit.retired.size()) {
      r.fail();
      return;
    }
    for (std::size_t i = 0; i < unit.retired.size(); ++i) {
      unit.retired[i] = r.boolean();
      retired = retired || unit.retired[i];
    }
  }
  counters_.factory_bad = r.u64();
  counters_.grown_bad = r.u64();
  counters_.remapped = r.u64();
  counters_.retired = r.u64();
  any_remap_ = r.boolean();
  any_retired_ = r.boolean();
  // The fast-path flags gate translate() and is_retired(): one clear over
  // a remap or a retirement would hide it. any_remap_ may outlive the
  // last remap (remap() drops a stale pair before it retires the block).
  if ((remapped && !any_remap_) || retired != any_retired_) r.fail();
}

}  // namespace rps::nand
