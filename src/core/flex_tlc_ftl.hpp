// flexFTL-TLC: the paper's flexFTL carried to 3-bit NAND (the "applicable
// to TLC" projection of Section 1, fully worked out).
//
// Three-phase ordering (3PO) generalizes 2PO: a block's LSB pages are all
// written first (fast phase), then its CSB pages (mid phase), then its MSB
// pages (slow phase). Per chip the block pool manager keeps one active
// block per phase, with FIFO queues between phases:
//
//   free -> [LSB phase] -> CSBQueue -> [CSB phase] -> MSBQueue
//        -> [MSB phase] -> full -> GC -> free
//
// Power-loss protection needs *two* parity pages per block: an interrupted
// CSB pass destroys the word line's LSB page; an interrupted MSB pass
// destroys its LSB and CSB pages (shadow programming re-places the lower
// pages' charge). The LSB parity is flushed when the fast phase completes,
// the CSB parity when the mid phase completes; both go to LSB-only backup
// blocks, which the relaxed TLC sequence makes legal.
//
// The FTL runs on the shared NAND device model (nand::NandDevice with
// bits_per_cell = 3), so TLC media get the MLC model's power-loss rules:
// a program charged past a cut is a victim and an erase charged past it is
// voided.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/nand/device.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::core {

struct TlcFtlConfig {
  /// A TLC geometry (bits_per_cell = 3); the constructor checks it.
  nand::Geometry geometry{.channels = 2,
                          .chips_per_channel = 2,
                          .planes_per_chip = 1,
                          .blocks_per_chip = 64,
                          .wordlines_per_block = 32,
                          .page_size_bytes = 4096,
                          .spare_bytes = 128,
                          .bits_per_cell = 3};
  nand::TimingSpec timing = nand::TimingSpec::tlc();
  double overprovisioning = 0.30;
  std::uint32_t gc_reserve_blocks = 2;
  double u_high = 0.80;
  double u_low = 0.10;
  double initial_quota_fraction = 0.05;

  static TlcFtlConfig tiny() {
    TlcFtlConfig c;
    c.geometry.channels = 1;
    c.geometry.blocks_per_chip = 24;
    c.geometry.wordlines_per_block = 8;
    c.geometry.page_size_bytes = 512;
    c.gc_reserve_blocks = 1;
    c.initial_quota_fraction = 0.5;
    return c;
  }
};

struct TlcFtlStats {
  std::uint64_t host_write_pages = 0;
  std::array<std::uint64_t, 3> host_writes_by_pass{0, 0, 0};  // L, C, M
  std::uint64_t gc_copy_pages = 0;
  std::uint64_t backup_pages = 0;
  std::uint64_t gc_blocks = 0;
};

struct TlcRecoveryReport {
  std::uint64_t blocks_checked = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t parity_pages_read = 0;
  std::uint64_t pages_recovered = 0;
  std::uint64_t pages_lost = 0;
  std::uint64_t interrupted_writes_discarded = 0;
};

class FlexTlcFtl {
 public:
  explicit FlexTlcFtl(const TlcFtlConfig& config);

  [[nodiscard]] std::string_view name() const { return "flexFTL-TLC"; }
  [[nodiscard]] Lpn exported_pages() const {
    return static_cast<Lpn>(mapping_.size());
  }
  [[nodiscard]] nand::NandDevice& device() { return device_; }
  [[nodiscard]] const nand::NandDevice& device() const { return device_; }
  [[nodiscard]] const TlcFtlStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t quota() const { return quota_; }
  [[nodiscard]] const TlcFtlConfig& config() const { return config_; }

  /// One-page host write; `buffer_utilization` drives the pass choice as
  /// in the MLC policy manager (LSB under pressure while quota lasts).
  Result<Microseconds> write(Lpn lpn, Microseconds now, double buffer_utilization);
  Result<Microseconds> write_data(Lpn lpn, const std::vector<std::uint8_t>& bytes,
                                  Microseconds now, double buffer_utilization);
  Result<nand::PageImage> read_data(Lpn lpn, Microseconds now);

  /// Idle window: background GC (quota-replenishing, consuming CSB/MSB
  /// capacity) while the free pool is below 10%.
  void on_idle(Microseconds now, Microseconds deadline);

  /// Post-power-loss recovery using the two per-block parity pages. Every
  /// acknowledged page a victim destroyed is either restored or counted in
  /// pages_lost.
  TlcRecoveryReport recover_from_power_loss(
      const std::vector<nand::PowerLossVictim>& victims, Microseconds now);

  /// Phase-queue depths (observability).
  [[nodiscard]] std::size_t csb_queue_depth(std::uint32_t chip) const {
    return chips_.at(chip).csb_queue.size();
  }
  [[nodiscard]] std::size_t msb_queue_depth(std::uint32_t chip) const {
    return chips_.at(chip).msb_queue.size();
  }

  [[nodiscard]] bool check_consistency() const;

  /// Serializes the complete FTL + device state; loading into a
  /// same-config instance restores it bit-identically (sim::Snapshot).
  /// load_state rejects (r.fail()) block and page indices out of range.
  void save_state(ser::Writer& w) const;
  void load_state(ser::Reader& r);

 private:
  enum class Use : std::uint8_t { kFree, kActive, kFull, kBackup };

  struct BackupBlock {
    std::uint32_t block = 0;
    std::uint32_t next_lsb = 0;
    std::uint32_t live_pages = 0;
  };

  struct ChipState {
    std::deque<std::uint32_t> free;
    std::optional<std::uint32_t> fast;   // LSB-phase block
    std::deque<std::uint32_t> csb_queue; // LSB-complete, head = CSB-phase block
    std::deque<std::uint32_t> msb_queue; // CSB-complete, head = MSB-phase block
    std::vector<Use> use;
    std::vector<std::uint32_t> valid;
    std::vector<std::uint32_t> written;
    /// Per-block parity accumulators for the in-progress passes.
    nand::PageImage lsb_acc;
    std::unordered_map<std::uint32_t, nand::PageImage> csb_acc;
    /// block -> saved parity page addresses (LSB-pass, CSB-pass).
    std::unordered_map<std::uint32_t, nand::PageAddress> lsb_parity;
    std::unordered_map<std::uint32_t, nand::PageAddress> csb_parity;
    std::optional<BackupBlock> backup;
    std::vector<BackupBlock> retiring;
  };

  static nand::PageImage zeroed_parity();
  std::uint64_t make_signature(Lpn lpn);
  std::uint32_t pick_chip();

  Result<std::uint32_t> allocate(std::uint32_t chip, Use use, std::uint32_t reserve);
  void release(std::uint32_t chip, std::uint32_t block);
  void commit_mapping(Lpn lpn, const nand::PageAddress& addr);
  void unmap(Lpn lpn);

  Result<Microseconds> write_pass(std::uint32_t chip, nand::PageType pass, Lpn lpn,
                                  nand::PageData data, Microseconds now, bool gc);
  Microseconds flush_parity(std::uint32_t chip, std::uint32_t block,
                            const nand::PageImage& acc, bool csb_pass, Microseconds now);
  void invalidate_parities(std::uint32_t chip, std::uint32_t block, Microseconds now);
  void drop_backup_reference(std::uint32_t chip, std::uint32_t backup_block,
                             Microseconds now);

  Result<Microseconds> program_gc_copy(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                       Microseconds now);
  std::optional<std::uint32_t> pick_victim(std::uint32_t chip) const;
  bool collect_block(std::uint32_t chip, std::uint32_t victim, Microseconds now,
                     Microseconds deadline);
  Status ensure_free_block(std::uint32_t chip, Microseconds now);

  [[nodiscard]] std::optional<Lpn> find_lpn_of(const nand::PageAddress& addr) const;

  TlcFtlConfig config_;
  nand::NandDevice device_;
  std::vector<std::optional<nand::PageAddress>> mapping_;
  std::vector<ChipState> chips_;
  TlcFtlStats stats_;
  std::int64_t quota_;
  std::int64_t initial_quota_;
  std::vector<std::uint8_t> rotate_;  // per-chip L/C/M rotation state
  std::uint32_t rr_chip_ = 0;
  std::uint64_t write_version_ = 0;
};

}  // namespace rps::core
