// The full multi-channel NAND storage device.
//
// Chips attached to the same channel share the channel bus: moving a page
// between controller and chip occupies the bus for TimingSpec::transfer_us,
// while cell operations occupy only the chip. This captures the
// inter-channel parallelism the paper's parityFTL baseline exploits and
// bounds the aggregate peak bandwidth realistically.
//
// Cell types. One device model serves MLC and TLC parts: the geometry's
// bits_per_cell sets the passes per word line, the program-order rule
// (program_order.hpp) and the power-loss rule are written over that
// count, and TimingSpec carries a latency per pass.
//
// Planes. The device instantiates one Chip object per *unit* — a (die,
// plane) pair, Geometry::num_units() of them — so every plane has its own
// cell timeline while all planes of a die share the die's channel. The
// die-level couplings live here: multi_plane_program / multi_plane_erase
// fire the same block offset on several planes of one die inside a single
// aligned cell-busy window, and cache-program pipelining (on by default,
// matching the original model) lets a data transfer overlap the previous
// cell operation.
//
// Bad blocks. A BadBlockTable translates every FTL-visible block address
// to its backing physical block. Factory defects are remapped at init;
// grown defects (erase endurance, program failures) are remapped in
// service while spares last and surface as ErrorCode::kBlockBad once the
// pool is dry. With the default (empty) config every translation is the
// identity and nothing fails — bit-identical to a device without a table.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/nand/address.hpp"
#include "src/nand/bad_block.hpp"
#include "src/nand/chip.hpp"
#include "src/nand/geometry.hpp"
#include "src/nand/timing.hpp"
#include "src/util/result.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

/// What a power loss interrupted, per unit. Block numbers are FTL-visible
/// (reverse-translated through the bad-block table).
struct PowerLossVictim {
  std::uint32_t chip = 0;  // flat unit index
  std::uint32_t block = 0;
  PagePos pos;
};

/// One bad-block lifecycle step: `visible_block` of `unit` went bad at
/// `old_physical` and was either remapped to `new_physical` or retired
/// (new_physical < 0).
struct BadBlockEvent {
  std::uint32_t unit = 0;
  std::uint32_t visible_block = 0;
  std::uint32_t old_physical = 0;
  std::int64_t new_physical = -1;
  BadBlockCause cause = BadBlockCause::kEraseFailure;
  Microseconds now = 0;  // simulated time the failure surfaced
};

class NandDevice {
 public:
  NandDevice(const Geometry& geometry, const TimingSpec& timing, SequenceKind kind,
             const BadBlockConfig& bad_blocks = {});
  // Chips and blocks hold pointers into the device (attribution state,
  // payload table), so it is never copied or moved.
  NandDevice(const NandDevice&) = delete;
  NandDevice& operator=(const NandDevice&) = delete;

  [[nodiscard]] const Geometry& geometry() const { return geometry_; }
  [[nodiscard]] const TimingSpec& timing() const { return timing_; }
  [[nodiscard]] SequenceKind sequence_kind() const { return kind_; }

  /// Per-unit access ("chip" for historical reasons: with one plane per
  /// die a unit is exactly a chip). Timelines and counters are per unit.
  [[nodiscard]] const Chip& chip(std::uint32_t c) const { return *chips_.at(c); }
  [[nodiscard]] Chip& chip(std::uint32_t c) { return *chips_.at(c); }
  [[nodiscard]] std::uint32_t num_units() const {
    return static_cast<std::uint32_t>(chips_.size());
  }

  /// Cache-program pipelining: when on (the default, matching the original
  /// model) a program's data transfer only waits for the channel bus, so
  /// it overlaps the unit's previous cell operation. When off the transfer
  /// additionally waits for the unit itself to go idle.
  void set_cache_program(bool enabled) { cache_program_ = enabled; }
  [[nodiscard]] bool cache_program() const { return cache_program_; }

  /// Bad-block state (counters, spare levels) and the FTL-visible block
  /// count per unit (blocks_per_chip minus the spare reservation).
  [[nodiscard]] const BadBlockTable& bad_blocks() const { return bad_blocks_; }
  [[nodiscard]] std::uint32_t visible_blocks() const {
    return bad_blocks_.visible_blocks();
  }

  /// Observe grown-bad remaps and retirements as they happen (factory
  /// marks predate any listener; read them off bad_blocks().counters()).
  using BadBlockListener = std::function<void(const BadBlockEvent&)>;
  void set_bad_block_listener(BadBlockListener listener) {
    bad_block_listener_ = std::move(listener);
  }

  /// Media access through the bad-block translation: `addr.block` is the
  /// FTL-visible address; the returned Block is its physical backing.
  [[nodiscard]] const Block& block(BlockAddress addr) const {
    return chips_.at(addr.chip)->block(bad_blocks_.translate(addr.chip, addr.block));
  }
  [[nodiscard]] Block& block_mut(BlockAddress addr) {
    return chips_.at(addr.chip)->block(bad_blocks_.translate(addr.chip, addr.block));
  }

  /// Legality of programming `addr` next (no side effects).
  [[nodiscard]] Status can_program(const PageAddress& addr) const;

  /// Program: bus-in transfer, then cell program. `complete` is when the
  /// chip finishes; the caller's view of service time is complete - now.
  /// May transparently remap the block (first-page program failure with a
  /// spare available); returns kBlockBad only for retired blocks.
  Result<OpTiming> program(const PageAddress& addr, PageData data, Microseconds now) {
    if (!in_range(addr)) return ErrorCode::kOutOfRange;
    // Validate first so a rejected program leaves the bus timeline untouched.
    Result<std::uint32_t> physical = resolve_program(addr, now);
    if (!physical.is_ok()) return physical.code();
    const std::uint32_t channel = geometry_.channel_of_unit(addr.chip);
    // Cache-program off: the transfer also waits for the unit's cell array
    // to go idle (no on-chip page cache to land the data in early).
    const Microseconds ready =
        cache_program_ ? now : std::max(now, chips_[addr.chip]->busy_until());
    const Microseconds bus_start = occupy_channel(channel, ready);
    const Microseconds bus_end = bus_start + timing_.transfer_us;
    // resolve_program() just validated legality against this block state.
    const OpTiming cell =
        chips_[addr.chip]->program_resolved(physical.value(), addr.pos, data, bus_end);
    return OpTiming{bus_start, cell.complete};
  }

  /// Sense: cell sensing, then bus-out transfer — a read's full timing
  /// and its outcome (ok, kNotProgrammed, kEccUncorrectable), without the
  /// record. Host reads need nothing more (FtlBase::read).
  struct SenseResult {
    OpTiming timing;  // start of sensing .. end of bus transfer
    Status status;
  };
  Result<SenseResult> sense(const PageAddress& addr, Microseconds now) {
    if (!in_range(addr)) return ErrorCode::kOutOfRange;
    const std::uint32_t physical = bad_blocks_.translate(addr.chip, addr.block);
    const Result<Chip::SenseOutcome> sensed =
        chips_[addr.chip]->sense(physical, addr.pos, now);
    if (!sensed.is_ok()) return sensed.code();
    const std::uint32_t channel = geometry_.channel_of_unit(addr.chip);
    const Microseconds bus_start =
        occupy_channel(channel, sensed.value().timing.complete);
    return SenseResult{OpTiming{sensed.value().timing.start, bus_start + timing_.transfer_us},
                       sensed.value().status};
  }

  /// Read: sense() plus a copy of the record of an intact page — for the
  /// callers that move data (payload reads, backups, recovery).
  struct ReadResult {
    OpTiming timing;             // start of sensing .. end of bus transfer
    Result<PageData> data = ErrorCode::kNotProgrammed;
  };
  Result<ReadResult> read(const PageAddress& addr, Microseconds now) {
    const Result<SenseResult> sensed = sense(addr, now);
    if (!sensed.is_ok()) return sensed.code();
    const SenseResult& s = sensed.value();
    if (!s.status.is_ok()) return ReadResult{s.timing, s.status.code()};
    return ReadResult{s.timing, block({addr.chip, addr.block}).record(addr.pos)};
  }

  /// Optional payload bytes of the stored pages, keyed by write signature
  /// (page.hpp). Empty unless some write carried a payload.
  [[nodiscard]] const PayloadTable& payloads() const { return payloads_; }
  [[nodiscard]] PayloadTable& payloads() { return payloads_; }

  /// Erase. A block at its endurance limit fails: it is remapped to a
  /// spare (and the erase retried there) while the pool lasts, else the
  /// call returns kBlockBad and the visible block is retired.
  Result<OpTiming> erase(BlockAddress addr, Microseconds now);

  /// Multi-plane program: one page on each of several planes of the SAME
  /// die, same block offset and page position on every plane (the
  /// plane-addressing constraint of real multi-plane commands). Data
  /// transfers serialize on the die's channel; the cell programs then
  /// fire together in one aligned busy window, so the group pays the cell
  /// latency once in wall-clock time. Validates every member before any
  /// side effect; per-unit counters still count every page.
  Result<OpTiming> multi_plane_program(const std::vector<PageAddress>& group,
                                       std::vector<PageData> data, Microseconds now);

  /// Multi-plane erase: same-die, same block offset, distinct planes,
  /// one aligned erase window. Endurance failures remap-and-retry like
  /// erase(); an unremappable member fails the whole group (no member
  /// timeline is touched) so the caller can fall back to single erases.
  Result<OpTiming> multi_plane_erase(const std::vector<BlockAddress>& group,
                                     Microseconds now);

  /// Inject a power loss at time `t`. Every chip whose last program had not
  /// completed by `t` (in flight, or charged to start after the cut) has
  /// that program's page corrupted, with every lower pass of its word line
  /// (an interrupted MSB program destroys its paired LSB page). Erases
  /// charged to start after `t` are voided. Chip and channel timelines are
  /// capped at `t` — the device stops dead and is immediately available at
  /// reboot.
  /// Returns all interrupted programs (a cut through a multi-plane group
  /// yields one victim per member unit).
  std::vector<PowerLossVictim> inject_power_loss(Microseconds t);

  /// Number of power losses injected over the device's lifetime.
  [[nodiscard]] std::uint64_t power_loss_count() const { return power_loss_count_; }

  /// Aggregate counters across chips.
  [[nodiscard]] OpCounters total_counters() const;
  [[nodiscard]] std::uint64_t total_erase_count() const;

  /// Cause-tagged attribution: the FTL layer brackets its write paths with
  /// CauseScope so every program/erase is charged to the right bucket.
  /// Always on (one enum store per bracket); conservation against
  /// total_counters() is a device invariant.
  WriteCause set_write_cause(WriteCause cause) {
    const WriteCause previous = attribution_.cause;
    attribution_.cause = cause;
    return previous;
  }
  [[nodiscard]] WriteCause write_cause() const { return attribution_.cause; }
  [[nodiscard]] const AttributionCounters& attribution() const {
    return attribution_.counters;
  }

  /// The earliest time every chip and channel is free.
  [[nodiscard]] Microseconds all_idle_at() const;

  /// Snapshot support: chips (page payloads travel with their page slots),
  /// channel timelines, bad-block table, power loss count.
  /// Geometry/timing/kind are construction-time config — the
  /// restore target must be built from the same config (validated upstream
  /// by the snapshot header). The bad-block listener is borrowed and not
  /// serialized.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  [[nodiscard]] bool in_range(const PageAddress& addr) const {
    return addr.chip < geometry_.num_units() &&
           addr.block < bad_blocks_.visible_blocks() &&
           addr.pos.wordline < geometry_.wordlines_per_block &&
           pass_of(addr.pos.type, geometry_.bits_per_cell) < geometry_.bits_per_cell;
  }

  Microseconds occupy_channel(std::uint32_t channel, Microseconds now) {
    assert(channel < channel_busy_until_.size());
    Microseconds& busy = channel_busy_until_[channel];
    const Microseconds start = std::max(now, busy);
    busy = start + timing_.transfer_us;
    return start;
  }

  /// Resolve `addr` for programming: retired check, translation, legality,
  /// and the first-page program-failure draw (remap + re-resolve when a
  /// spare is available, silently suppressed otherwise — a failure that
  /// cannot be remapped loss-free is not injected).
  Result<std::uint32_t> resolve_program(const PageAddress& addr, Microseconds now) {
    const std::uint32_t unit = addr.chip;
    if (bad_blocks_.enabled() && bad_blocks_.is_retired(unit, addr.block)) {
      return ErrorCode::kBlockBad;
    }
    std::uint32_t physical = bad_blocks_.translate(unit, addr.block);
    const Status legal = chips_[unit]->block(physical).can_program(addr.pos);
    if (!legal.is_ok()) return legal.code();
    // Program-failure injection, restricted to the first page of a fresh
    // block and to units with a spare left: remapping there is loss-free
    // (no earlier page of the block holds data, and the spare is blank).
    if (bad_blocks_.enabled() && addr.pos.flat_index(geometry_.bits_per_cell) == 0 &&
        bad_blocks_.has_spare(unit) &&
        bad_blocks_.draw_program_failure(unit, physical,
                                         chips_[unit]->block(physical).erase_count())) {
      const std::optional<std::uint32_t> spare =
          grow_bad(unit, addr.block, physical, BadBlockCause::kProgramFailure, now);
      assert(spare.has_value());  // has_spare() held above
      physical = *spare;
      const Status retry = chips_[unit]->block(physical).can_program(addr.pos);
      if (!retry.is_ok()) return retry.code();
    }
    return physical;
  }

  /// Resolve `addr` for erasing: retired check, translation, endurance
  /// limit (remap while spares last; retire + kBlockBad when dry).
  Result<std::uint32_t> resolve_erase(const BlockAddress& addr, Microseconds now);

  /// Mark visible `block` of `unit` grown-bad; remap or retire. Fires the
  /// listener. Returns the fresh physical block, nullopt when retired.
  std::optional<std::uint32_t> grow_bad(std::uint32_t unit, std::uint32_t block,
                                        std::uint32_t old_physical,
                                        BadBlockCause cause, Microseconds now);

  Geometry geometry_;
  TimingSpec timing_;
  SequenceKind kind_;
  std::vector<std::unique_ptr<Chip>> chips_;  // one per unit
  std::vector<Microseconds> channel_busy_until_;
  BadBlockTable bad_blocks_;
  BadBlockListener bad_block_listener_;
  DeviceAttribution attribution_;  // chips hold borrowed pointers into this
  PayloadTable payloads_;          // blocks hold borrowed pointers into this
  bool cache_program_ = true;
  std::uint64_t power_loss_count_ = 0;
};

}  // namespace rps::nand
