// flexFTL: the paper's RPS-aware FTL (Section 3).
//
// Blocks are programmed under the relaxed program sequence with two-phase
// ordering (2PO): all LSB pages first (the block is a *fast block*), then
// all MSB pages (a *slow block*). Per chip, the block pool manager keeps
//   - one active fast block serving LSB writes,
//   - a FIFO slow-block queue (SBQueue) of LSB-full blocks, whose head is
//     the active slow block serving MSB writes,
//   - full and free pools.
// The adaptive page allocator (PolicyManager) picks LSB vs MSB per write
// from write-buffer utilization and the LSB quota q. While a fast block
// fills, an XOR parity of all its LSB pages accumulates in the parity page
// buffer; one parity page per block is flushed to a backup block (to the
// backup block's LSB pages — legal under RPS) when the last LSB page is
// written, replacing per-paired-page backups entirely. Background GC
// relocates with MSB pages during idle time, reclaiming LSB capacity and
// raising q for future bursts.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/policy.hpp"
#include "src/core/write_predictor.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/util/map_recycle.hpp"
#include "src/util/ring_buffer.hpp"

namespace rps::core {

/// Outcome of the post-power-loss recovery procedure (Section 3.3).
struct RecoveryReport {
  std::uint64_t slow_blocks_checked = 0;
  std::uint64_t fast_blocks_checked = 0;
  std::uint64_t lsb_pages_read = 0;      // parity recomputation reads
  std::uint64_t parity_pages_read = 0;
  std::uint64_t pages_recovered = 0;     // rebuilt from parity
  std::uint64_t pages_lost = 0;          // unrecoverable (no parity coverage)
  std::uint64_t interrupted_writes_discarded = 0;  // in-flight, unacknowledged
  /// Interrupted GC relocation copies rolled back to their still-intact
  /// source pages (the victim block outlives the relocation pass).
  std::uint64_t relocations_rolled_back = 0;
  /// Slow blocks whose saved parity page was itself destroyed by the cut
  /// (power failed during the parity flush): the block proceeds
  /// unprotected, counted — never silently (skipped_parity_backups()).
  std::uint64_t parity_flush_interrupted = 0;
  Microseconds recovery_time_us = 0;

  /// Reports compare whole: the reproducer-replay determinism check in
  /// src/faultsim/ asserts bit-equal reports for bit-equal crashes.
  friend bool operator==(const RecoveryReport&, const RecoveryReport&) = default;
};

class FlexFtl : public ftl::FtlBase {
 public:
  explicit FlexFtl(const ftl::FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "flexFTL"; }

  /// Idle-time work (Section 3.2): besides the common low-free-space
  /// background GC, flexFTL keeps the LSB quota q in a high range — GC
  /// relocation copies consume MSB pages, each raising q, so future bursts
  /// can again be absorbed with fast LSB writes.
  void on_idle_plan(Microseconds now, Microseconds deadline) override;

  /// Power-loss recovery: verifies every slow block's LSB data by parity
  /// recomputation, rebuilds lost pages from the per-block parity pages,
  /// discards interrupted unacknowledged writes, and recomputes the parity
  /// accumulators of active fast blocks. `victims` is what the device
  /// reported from NandDevice::inject_power_loss.
  RecoveryReport recover_from_power_loss(
      const std::vector<nand::PowerLossVictim>& victims, Microseconds now);

  // --- observability (tests, benches, examples) ---
  [[nodiscard]] const PolicyManager& policy() const { return policy_; }
  [[nodiscard]] std::int64_t quota() const { return policy_.quota(); }
  [[nodiscard]] std::optional<std::uint32_t> active_fast_block(std::uint32_t chip) const {
    return chips_.at(chip).fast;
  }
  [[nodiscard]] std::size_t sbqueue_depth(std::uint32_t chip) const {
    return chips_.at(chip).sbqueue.size();
  }
  [[nodiscard]] std::size_t cold_sbqueue_depth(std::uint32_t chip) const {
    return chips_.at(chip).cold_sbqueue.size();
  }
  [[nodiscard]] std::optional<std::uint32_t> active_slow_block(std::uint32_t chip) const {
    const auto& q = chips_.at(chip).sbqueue;
    return q.empty() ? std::nullopt : std::optional<std::uint32_t>(q.front());
  }
  [[nodiscard]] std::uint64_t skipped_parity_backups() const { return skipped_backups_; }
  [[nodiscard]] const WritePredictor& write_predictor() const { return predictor_; }

  /// State-sampling hooks (obs::StateSampler): q, and the total SBQueue
  /// depth (hot + cold streams) across every chip.
  [[nodiscard]] std::int64_t observed_lsb_quota() const override {
    return policy_.quota();
  }
  [[nodiscard]] std::uint64_t observed_slow_queue_depth() const override {
    std::uint64_t depth = 0;
    for (const ChipState& chip : chips_) {
      depth += chip.sbqueue.size() + chip.cold_sbqueue.size();
    }
    return depth;
  }

 protected:
  Result<Microseconds> allocate_host_page(std::uint32_t chip, Lpn lpn,
                                          nand::PageData data, Microseconds now,
                                          double buffer_utilization) override;
  Result<Microseconds> allocate_gc_page(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                        Microseconds now, bool background) override;

  void save_extra(ser::Writer& w) const override;
  void load_extra(ser::Reader& r) override;

 private:
  /// A backup block holding per-block parity pages on its LSB pages.
  struct BackupBlock {
    std::uint32_t block = 0;
    std::uint32_t next_lsb = 0;     // parity write frontier
    std::uint32_t live_pages = 0;   // parity pages still protecting a block
  };

  struct ChipState {
    std::optional<std::uint32_t> fast;   // active fast block (host stream)
    RingBuffer<std::uint32_t> sbqueue;  // head = active slow block
    nand::PageImage parity_acc;          // parity page buffer for `fast`
    /// Cold stream (GC relocation copies), used when separate_gc_stream:
    std::optional<std::uint32_t> cold_fast;
    RingBuffer<std::uint32_t> cold_sbqueue;
    nand::PageImage cold_acc;
    std::optional<BackupBlock> backup;   // current backup block
    std::vector<BackupBlock> retiring;   // full backup blocks, still live
    /// slow block -> when its parity page became durable (MSB writes wait).
    std::unordered_map<std::uint32_t, Microseconds> parity_durable;
    /// slow block -> where its parity page lives.
    std::unordered_map<std::uint32_t, nand::PageAddress> parity_page;
    /// Banked map nodes: the durable/page insert-erase cycle recycles
    /// nodes instead of churning the heap (util/map_recycle.hpp).
    std::vector<std::unordered_map<std::uint32_t, Microseconds>::node_type>
        durable_spares;
    std::vector<std::unordered_map<std::uint32_t, nand::PageAddress>::node_type>
        page_spares;
    /// Retirement log for the final-MSB grace window. The full transition
    /// retires a block's parity page eagerly (bookkeeping must not lag, or
    /// free-pool dynamics diverge), but the final MSB program only
    /// *completes* at `at` — until then a power cut destroys the paired
    /// LSB page and that parity page is still its only copy. Each
    /// retirement is logged here with the parity page's address; recovery
    /// voids entries whose `at` lies beyond the cut and re-hooks `parity`
    /// for reconstruction (the page's media survives the cut: its backup
    /// block's erase, if one was charged, started after `at` and is voided
    /// by the lazy-erase power-loss rules). Entries are pruned once the
    /// chip timeline provably passed `at`.
    struct RetirementLogEntry {
      std::uint32_t block = 0;
      Microseconds at = 0;
      nand::PageAddress parity;
    };
    std::vector<RetirementLogEntry> retire_log;
  };

  static nand::PageImage zeroed_parity();

  Result<Microseconds> write_lsb(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                 Microseconds now, bool gc, bool cold = false);
  Result<Microseconds> write_msb(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                 Microseconds now, bool gc, bool prefer_cold = false);

  /// Flush the chip's accumulated parity page for `fast_block` (just
  /// LSB-completed); returns when it is durable.
  Microseconds flush_parity(std::uint32_t chip, std::uint32_t fast_block,
                            Microseconds now);
  Microseconds flush_parity_from(std::uint32_t chip, std::uint32_t fast_block,
                                 const nand::PageImage& acc, Microseconds now);

  /// The slow block finished its MSB phase: its parity page is stale.
  void invalidate_parity(std::uint32_t chip, std::uint32_t slow_block,
                         Microseconds now);

  /// One parity page of `backup_block` went stale: drop its live count,
  /// recycling the backup block once nothing in it protects anything.
  void release_parity_page(std::uint32_t chip, std::uint32_t backup_block,
                           Microseconds now);

  /// Drop retirement-log entries settled by time `now` (their final MSB
  /// program provably completed; no power loss can void them anymore).
  void prune_retire_log(std::uint32_t chip, Microseconds now);

  /// Find the LPN currently mapped to `addr` (linear scan; recovery only).
  [[nodiscard]] std::optional<Lpn> find_lpn_of(const nand::PageAddress& addr) const;

  /// Media scan for the newest intact copy of `lpn` other than `exclude` —
  /// how recovery rolls an interrupted relocation back to its source.
  [[nodiscard]] std::optional<nand::PageAddress> find_newest_copy(
      Lpn lpn, const nand::PageAddress& exclude) const;

  std::vector<ChipState> chips_;
  PolicyManager policy_;
  WritePredictor predictor_;
  std::uint64_t lsb_since_idle_ = 0;  // burst-size observation for the predictor
  std::uint64_t skipped_backups_ = 0;
};

}  // namespace rps::core
