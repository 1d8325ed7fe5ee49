// Cause-tagged program/erase attribution and the per-block wear ledger.
//
// Every program and erase the device commits is charged to exactly one
// WriteCause — the FTL layer brackets its write paths with a CauseScope so
// the device knows *why* each op happened — and, for host-visible pages,
// to the FDP write stream carried in the spare word. The counters are
// always on (like OpCounters): attribution is a device invariant, not an
// observer, so conservation (attributed sums == OpCounters, exactly) holds
// at every instant including across power-loss voiding of pending erases.
//
// The wear ledger is the per-physical-block view of the same events:
// program count, erase count and last-erase sim-time per block, maintained
// by the chip at commit time. Both structures are fixed-size PODs
// preallocated at construction — the hot path adds no allocations and the
// disabled-observer norm (one branch per site) is preserved trivially:
// there is nothing to disable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

/// Why a program/erase happened. The FTL layer is responsible for keeping
/// the device's active cause honest around every write path (CauseScope).
enum class WriteCause : std::uint8_t {
  kHost = 0,    // host write path (FtlBase::host_program, MLC and TLC alike)
  kGcCopy,      // garbage-collection valid-page relocation + victim erase
  kWearLevel,   // static wear-leveling migration
  kParity,      // parity-backup flush / parity-block reclaim
  kBackup,      // rtfFTL paired-LSB backup programs
  kScrub,       // read-disturb scrub migration
  kMeta,        // mapping rebuild / recovery reads-writes, misc FTL metadata
};

inline constexpr std::size_t kNumWriteCauses = 7;

/// Stream slots tracked exactly; tags >= kStreamSlots share one overflow
/// bucket (slot kStreamSlots). 32 exact slots cover the QoS frontend's
/// tenant range with room to spare.
inline constexpr std::size_t kStreamSlots = 32;

[[nodiscard]] const char* to_string(WriteCause cause);

/// Per-cause and per-stream op totals for one device. `msb_programs`
/// counts every program above pass 0 (on TLC the CSB pass too).
/// Conservation invariants (enforced by tests/test_metrics.cpp against
/// OpCounters):
///   sum(lsb_programs)  == ops.lsb_programs
///   sum(msb_programs)  == ops.msb_programs
///   sum(erases)        == ops.erases
///   meta_programs + sum(stream_programs) == ops.programs()
struct AttributionCounters {
  std::array<std::uint64_t, kNumWriteCauses> lsb_programs{};
  std::array<std::uint64_t, kNumWriteCauses> msb_programs{};
  std::array<std::uint64_t, kNumWriteCauses> erases{};
  /// Host-visible pages only, bucketed by FDP stream tag (GC copies
  /// inherit the tag with the page, so stream ownership survives
  /// relocation). Slot kStreamSlots is the >= kStreamSlots overflow.
  std::array<std::uint64_t, kStreamSlots + 1> stream_programs{};
  /// Pages flagged kNonHostSpareFlag (parity, paired-LSB backups).
  std::uint64_t meta_programs = 0;

  [[nodiscard]] std::uint64_t programs(WriteCause c) const {
    const auto i = static_cast<std::size_t>(c);
    return lsb_programs[i] + msb_programs[i];
  }
  [[nodiscard]] std::uint64_t cause_erases(WriteCause c) const {
    return erases[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total_lsb_programs() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : lsb_programs) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_msb_programs() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : msb_programs) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_programs() const {
    return total_lsb_programs() + total_msb_programs();
  }
  [[nodiscard]] std::uint64_t total_erases() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : erases) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_stream_programs() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : stream_programs) t += v;
    return t;
  }

  AttributionCounters& operator+=(const AttributionCounters& other) {
    for (std::size_t i = 0; i < kNumWriteCauses; ++i) {
      lsb_programs[i] += other.lsb_programs[i];
      msb_programs[i] += other.msb_programs[i];
      erases[i] += other.erases[i];
    }
    for (std::size_t i = 0; i < stream_programs.size(); ++i) {
      stream_programs[i] += other.stream_programs[i];
    }
    meta_programs += other.meta_programs;
    return *this;
  }

  friend bool operator==(const AttributionCounters&, const AttributionCounters&) = default;
};

/// The difference a - b, fieldwise (run deltas, like Registry).
[[nodiscard]] AttributionCounters delta(const AttributionCounters& a,
                                        const AttributionCounters& b);

/// Canonical byte encoding (device snapshots).
void save(ser::Writer& w, const AttributionCounters& c);
void load(ser::Reader& r, AttributionCounters& c);

/// The device-owned attribution state every chip of the device charges
/// into: the currently active cause plus the accumulated counters. Owned
/// by NandDevice; chips hold a borrowed pointer (null for
/// standalone chips in unit tests — their ops are simply unattributed).
struct DeviceAttribution {
  WriteCause cause = WriteCause::kHost;
  AttributionCounters counters;

  /// Charge one committed program. `spare` is the page's OOB word (meta
  /// flag + stream tag); callers pass it *before* moving the PageData.
  void note_program(bool lsb, bool meta_page, std::uint32_t stream) {
    const auto c = static_cast<std::size_t>(cause);
    if (lsb) {
      ++counters.lsb_programs[c];
    } else {
      ++counters.msb_programs[c];
    }
    if (meta_page) {
      ++counters.meta_programs;
    } else {
      ++counters.stream_programs[stream < kStreamSlots ? stream : kStreamSlots];
    }
  }
  void note_erase() { ++counters.erases[static_cast<std::size_t>(cause)]; }
  /// Undo an erase charged under `charged_cause` (power loss voided it).
  void void_erase(WriteCause charged_cause) {
    --counters.erases[static_cast<std::size_t>(charged_cause)];
  }
};

/// RAII cause bracket over anything exposing
/// `WriteCause set_write_cause(WriteCause)` (NandDevice).
/// Nests correctly: the previous cause is restored on scope exit, so a
/// parity flush fired from inside a host write re-exposes kHost after.
template <typename DeviceT>
class CauseScope {
 public:
  CauseScope(DeviceT& device, WriteCause cause)
      : device_(device), previous_(device.set_write_cause(cause)) {}
  ~CauseScope() { device_.set_write_cause(previous_); }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  DeviceT& device_;
  WriteCause previous_;
};

/// One physical block's ledger entry. Counts are charged when the op is
/// charged to the chip timeline (same instant as OpCounters), and a
/// power-loss-voided pending erase is rolled back here too — the ledger
/// always sums to the device counters.
struct BlockWear {
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  Microseconds last_erase_us = -1;  // sim-time of the last charged erase

  friend bool operator==(const BlockWear&, const BlockWear&) = default;
};

void save(ser::Writer& w, const BlockWear& wear);
void load(ser::Reader& r, BlockWear& wear);

}  // namespace rps::nand
