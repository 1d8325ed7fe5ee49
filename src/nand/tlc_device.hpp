// TLC device model: blocks, chips and the multi-channel device for
// 3-bit-per-cell NAND, mirroring the MLC stack (block.hpp / chip.hpp /
// device.hpp) over the TLC constraint engine of tlc.hpp.
//
// Timing reflects shadow-programmed TLC parts: the three passes get
// progressively slower (coarse LSB placement, intermediate CSB, fine MSB),
// and the asymmetry the paper exploits on MLC is even steeper here.
// Power-loss semantics follow the destructive-reprogram rule: a pass
// interrupted mid-flight destroys every previously programmed page of the
// same word line (the pass physically re-places those cells' charge).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/nand/attribution.hpp"
#include "src/nand/chip.hpp"  // OpTiming, OpCounters
#include "src/nand/page.hpp"  // PageData, PageState, PayloadTable, kNonHostSpareFlag
#include "src/nand/tlc.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

struct TlcTimingSpec {
  Microseconds read_us = 60;
  Microseconds program_lsb_us = 400;
  Microseconds program_csb_us = 1100;
  Microseconds program_msb_us = 2600;
  Microseconds erase_us = 5000;
  Microseconds transfer_us = 10;

  static constexpr TlcTimingSpec nominal() { return TlcTimingSpec{}; }

  [[nodiscard]] constexpr Microseconds program_us(TlcPageType type) const {
    switch (type) {
      case TlcPageType::kLsb: return program_lsb_us;
      case TlcPageType::kCsb: return program_csb_us;
      case TlcPageType::kMsb: return program_msb_us;
    }
    return 0;
  }
};

struct TlcGeometry {
  std::uint32_t channels = 2;
  std::uint32_t chips_per_channel = 2;
  std::uint32_t blocks_per_chip = 64;
  std::uint32_t wordlines_per_block = 32;  // 3 pages per word line
  std::uint32_t page_size_bytes = 4096;

  [[nodiscard]] constexpr std::uint32_t num_chips() const {
    return channels * chips_per_channel;
  }
  [[nodiscard]] constexpr std::uint32_t pages_per_block() const {
    return wordlines_per_block * 3;
  }
  [[nodiscard]] constexpr std::uint64_t total_pages() const {
    return static_cast<std::uint64_t>(num_chips()) * blocks_per_chip *
           pages_per_block();
  }
  [[nodiscard]] constexpr std::uint32_t channel_of_chip(std::uint32_t chip) const {
    return chip / chips_per_channel;
  }
};

struct TlcPageAddress {
  std::uint32_t chip = 0;
  std::uint32_t block = 0;
  TlcPagePos pos;

  friend constexpr bool operator==(const TlcPageAddress&, const TlcPageAddress&) = default;
};

class TlcBlock {
 public:
  /// `payloads` as for the MLC Block (null: standalone, no payload bytes).
  TlcBlock(std::uint32_t wordlines, TlcSequenceKind kind, PayloadTable* payloads = nullptr);

  [[nodiscard]] std::uint32_t wordlines() const { return state_.wordlines(); }
  [[nodiscard]] Status can_program(TlcPagePos pos) const {
    return check_tlc_program_legality(state_, pos, kind_);
  }
  Status program(TlcPagePos pos, const PageData& data);
  [[nodiscard]] Result<PageData> read(TlcPagePos pos) const;
  [[nodiscard]] PageState page_state(TlcPagePos pos) const {
    return slots_[pos.flat_index()].state;
  }
  void erase();
  void corrupt(TlcPagePos pos);

  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  [[nodiscard]] std::uint32_t programmed_pages() const { return programmed_; }
  [[nodiscard]] bool is_fully_programmed() const {
    return programmed_ == wordlines() * 3;
  }
  [[nodiscard]] bool is_erased() const { return programmed_ == 0; }
  /// Pages programmed in pass `type` so far.
  [[nodiscard]] std::uint32_t programmed_in_pass(TlcPageType type) const {
    return pass_counts_[static_cast<std::size_t>(type)];
  }
  /// Next legal page of pass `type` (the per-pass frontier), if any.
  [[nodiscard]] std::optional<TlcPagePos> next_in_pass(TlcPageType type) const;

  /// Snapshot support (same contract as mlc Block::save/load).
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  TlcSequenceKind kind_;
  TlcBlockState state_;
  std::vector<PageSlot> slots_;  // per page, flat-indexed
  PayloadTable* payloads_;       // borrowed from the device; may be null
  std::array<std::uint32_t, 3> pass_counts_{0, 0, 0};
  std::uint32_t programmed_ = 0;   // valid + corrupted
  std::uint32_t corrupted_ = 0;
  std::uint64_t erase_count_ = 0;
};

class TlcChip {
 public:
  TlcChip(std::uint32_t blocks, std::uint32_t wordlines, TlcSequenceKind kind,
          const TlcTimingSpec& timing, PayloadTable* payloads = nullptr);

  [[nodiscard]] const TlcBlock& block(std::uint32_t b) const { return blocks_.at(b); }
  [[nodiscard]] TlcBlock& block(std::uint32_t b) { return blocks_.at(b); }
  [[nodiscard]] Microseconds busy_until() const { return busy_until_; }

  Result<OpTiming> program(std::uint32_t b, TlcPagePos pos, const PageData& data,
                           Microseconds now);
  struct ReadOutcome {
    OpTiming timing;
    Result<PageData> data = ErrorCode::kNotProgrammed;
  };
  Result<ReadOutcome> read(std::uint32_t b, TlcPagePos pos, Microseconds now);
  Result<OpTiming> erase(std::uint32_t b, Microseconds now);

  struct InFlight {
    std::uint32_t block = 0;
    TlcPagePos pos;
    Microseconds start = 0;
    Microseconds complete = 0;
  };
  /// Power loss: an interrupted pass destroys the in-flight page and every
  /// lower pass of the same word line.
  std::optional<InFlight> apply_power_loss(Microseconds t);

  [[nodiscard]] const OpCounters& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t total_erase_count() const;

  /// Attribution + wear ledger, same contract as the MLC Chip (TLC erases
  /// are eager, so there is no voiding path to roll back).
  void attach_attribution(DeviceAttribution* attr) { attr_ = attr; }
  [[nodiscard]] const std::vector<BlockWear>& wear_ledger() const { return wear_; }

  /// Snapshot support.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  Microseconds occupy(Microseconds now, Microseconds latency);

  std::vector<TlcBlock> blocks_;
  std::vector<BlockWear> wear_;  // physical-block-indexed, preallocated
  TlcTimingSpec timing_;
  Microseconds busy_until_ = 0;
  OpCounters counters_;
  DeviceAttribution* attr_ = nullptr;  // borrowed; null = unattributed
  std::optional<InFlight> last_program_;
};

class TlcDevice {
 public:
  TlcDevice(const TlcGeometry& geometry, const TlcTimingSpec& timing,
            TlcSequenceKind kind);
  // Chips and blocks hold pointers into the device (attribution state,
  // payload table), so it is never copied or moved.
  TlcDevice(const TlcDevice&) = delete;
  TlcDevice& operator=(const TlcDevice&) = delete;

  [[nodiscard]] const TlcGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const TlcTimingSpec& timing() const { return timing_; }
  [[nodiscard]] TlcSequenceKind sequence_kind() const { return kind_; }
  [[nodiscard]] TlcChip& chip(std::uint32_t c) { return *chips_.at(c); }
  [[nodiscard]] const TlcChip& chip(std::uint32_t c) const { return *chips_.at(c); }

  Result<OpTiming> program(const TlcPageAddress& addr, const PageData& data,
                           Microseconds now);
  struct ReadResult {
    OpTiming timing;
    Result<PageData> data = ErrorCode::kNotProgrammed;
  };
  Result<ReadResult> read(const TlcPageAddress& addr, Microseconds now);
  Result<OpTiming> erase(std::uint32_t chip, std::uint32_t block, Microseconds now);

  struct PowerLossVictim {
    std::uint32_t chip = 0;
    std::uint32_t block = 0;
    TlcPagePos pos;
  };
  std::vector<PowerLossVictim> inject_power_loss(Microseconds t);

  [[nodiscard]] OpCounters total_counters() const;
  [[nodiscard]] std::uint64_t total_erase_count() const;
  [[nodiscard]] Microseconds all_idle_at() const;

  /// Cause-tagged attribution (same contract as NandDevice): always on,
  /// bracketed by the FTL via CauseScope, conserved against
  /// total_counters().
  WriteCause set_write_cause(WriteCause cause) {
    const WriteCause previous = attribution_.cause;
    attribution_.cause = cause;
    return previous;
  }
  [[nodiscard]] WriteCause write_cause() const { return attribution_.cause; }
  [[nodiscard]] const AttributionCounters& attribution() const {
    return attribution_.counters;
  }

  /// Optional payload bytes of the stored pages (same contract as
  /// NandDevice::payloads()).
  [[nodiscard]] const PayloadTable& payloads() const { return payloads_; }
  [[nodiscard]] PayloadTable& payloads() { return payloads_; }

  /// Snapshot support.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  [[nodiscard]] bool in_range(const TlcPageAddress& addr) const;
  Microseconds occupy_channel(std::uint32_t channel, Microseconds now);

  TlcGeometry geometry_;
  TlcTimingSpec timing_;
  TlcSequenceKind kind_;
  std::vector<std::unique_ptr<TlcChip>> chips_;
  std::vector<Microseconds> channel_busy_until_;
  DeviceAttribution attribution_;  // chips hold borrowed pointers into this
  PayloadTable payloads_;          // blocks hold borrowed pointers into this
};

}  // namespace rps::nand
