// flexFTL: the paper's RPS-aware FTL (Section 3), for any number of passes
// per word line — 2 on MLC (the paper's device), 3 on TLC (the Section 1
// projection).
//
// Blocks are programmed under the relaxed program sequence with n-phase
// ordering: all LSB pages first (the block is a *fast block*), then each
// later pass over the whole block in turn, the MSB pass last. MLC's 2PO
// is n = 2; TLC's 3PO inserts the CSB pass. Per chip, the block pool
// manager keeps
//   - one active fast block serving pass 0 (LSB) writes,
//   - one FIFO queue per later pass of blocks whose previous pass is
//     complete, whose head is that pass's active block (MLC's slow-block
//     queue, SBQueue, is the n = 2 case),
//   - full and free pools.
// The adaptive page allocator (PolicyManager) picks the pass per write
// from write-buffer utilization and the LSB quota q. While a block's lower
// pass (any pass but the last) fills, an XOR parity of its pages in that
// pass accumulates in the pass's parity page buffer; one parity page per
// block and lower pass is flushed to a backup block (to the backup block's
// LSB pages — legal under RPS) when the pass completes, replacing
// per-paired-page backups entirely. A later pass waits until the block's
// latest parity page is durable, because its programs destroy the lower
// pages of their word line if the power fails. Background GC relocates
// into the final pass during idle time, reclaiming LSB capacity and
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
  std::uint64_t slow_blocks_checked = 0;  // blocks parity-checked
  std::uint64_t fast_blocks_checked = 0;  // open lower-pass blocks re-accumulated
  std::uint64_t lsb_pages_read = 0;       // lower-pass pages read for parity
  std::uint64_t parity_pages_read = 0;
  std::uint64_t pages_recovered = 0;     // rebuilt from parity
  std::uint64_t pages_lost = 0;          // unrecoverable (no parity coverage)
  std::uint64_t interrupted_writes_discarded = 0;  // in-flight, unacknowledged
  /// Interrupted GC relocation copies rolled back to their still-intact
  /// source pages (the victim block outlives the relocation pass).
  std::uint64_t relocations_rolled_back = 0;
  /// Parity pages found destroyed by the cut (power failed during the
  /// parity flush): the block proceeds with that pass unprotected,
  /// counted — never silently (skipped_parity_backups()).
  std::uint64_t parity_flush_interrupted = 0;
  Microseconds recovery_time_us = 0;

  /// Reports compare whole: the reproducer-replay determinism check in
  /// src/faultsim/ asserts bit-equal reports for bit-equal crashes.
  friend bool operator==(const RecoveryReport&, const RecoveryReport&) = default;
};

class FlexFtl : public ftl::FtlBase {
 public:
  /// Runs on a 2-bit (MLC) or 3-bit (TLC) geometry.
  explicit FlexFtl(const ftl::FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "flexFTL"; }

  /// Idle-time work (Section 3.2): besides the common low-free-space
  /// background GC, flexFTL keeps the LSB quota q in a high range — GC
  /// relocation copies consume MSB pages, each raising q, so future bursts
  /// can again be absorbed with fast LSB writes.
  void on_idle_plan(Microseconds now, Microseconds deadline) override;

  /// Power-loss recovery: verifies every completed lower pass of every
  /// queued block by parity recomputation, rebuilds lost pages from the
  /// per-block parity pages (also for a block whose final program the
  /// cut interrupted), discards interrupted unacknowledged writes, and
  /// recomputes the parity accumulators of the open lower passes.
  /// `victims` is what the device reported from
  /// NandDevice::inject_power_loss.
  RecoveryReport recover_from_power_loss(
      const std::vector<nand::PowerLossVictim>& victims, Microseconds now);

  // --- observability (tests, benches, examples) ---
  [[nodiscard]] const PolicyManager& policy() const { return policy_; }
  [[nodiscard]] std::int64_t quota() const { return policy_.quota(); }
  [[nodiscard]] std::optional<std::uint32_t> active_fast_block(std::uint32_t chip) const {
    return chips_.at(chip).fast;
  }
  /// Blocks queued for pass `pass` (1 <= pass < passes()) on `chip`.
  [[nodiscard]] std::size_t queue_depth(std::uint32_t chip, std::uint32_t pass) const {
    return chips_.at(chip).queues.at(pass - 1).size();
  }
  /// The slow-block queue: blocks waiting for (or in) the final pass.
  [[nodiscard]] std::size_t sbqueue_depth(std::uint32_t chip) const {
    return chips_.at(chip).queues.back().size();
  }
  [[nodiscard]] std::optional<std::uint32_t> active_slow_block(std::uint32_t chip) const {
    const auto& q = chips_.at(chip).queues.back();
    return q.empty() ? std::nullopt : std::optional<std::uint32_t>(q.front());
  }
  [[nodiscard]] std::uint64_t skipped_parity_backups() const { return skipped_backups_; }
  [[nodiscard]] const WritePredictor& write_predictor() const { return predictor_; }

  /// State-sampling hooks (obs::StateSampler): q, and the total depth of
  /// every pass queue across every chip.
  [[nodiscard]] std::int64_t observed_lsb_quota() const override {
    return policy_.quota();
  }
  [[nodiscard]] std::uint64_t observed_slow_queue_depth() const override {
    std::uint64_t depth = 0;
    for (const ChipState& chip : chips_) depth += queued_blocks(chip);
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

  /// Retirement log entry for the final-pass grace window. The full
  /// transition retires a block's parity pages eagerly (bookkeeping must
  /// not lag, or free-pool dynamics diverge), but the final program only
  /// *completes* at `at` — until then a power cut destroys the lower
  /// pages of its word line and those parity pages are still their only
  /// copy. Each retirement is logged with the parity page's address;
  /// recovery voids entries whose `at` lies beyond the cut and re-hooks
  /// `parity` for reconstruction (the page's media survives the cut: its
  /// backup block's erase, if one was charged, started after `at` and is
  /// voided by the lazy-erase power-loss rules). Entries are pruned once
  /// the chip timeline provably passed `at`.
  struct RetirementLogEntry {
    std::uint32_t block = 0;
    Microseconds at = 0;
    nand::PageAddress parity;
  };

  using ParityMap = std::unordered_map<std::uint32_t, nand::PageAddress>;
  using DurableMap = std::unordered_map<std::uint32_t, Microseconds>;

  struct ChipState {
    std::optional<std::uint32_t> fast;  // active pass-0 block
    /// queues[p - 1] feeds pass p: blocks whose pass p - 1 is complete,
    /// head = pass p's active block.
    std::vector<RingBuffer<std::uint32_t>> queues;
    /// Per lower pass p: the parity page buffer of pass p's active block.
    std::vector<nand::PageImage> acc;
    std::optional<BackupBlock> backup;   // current backup block
    std::vector<BackupBlock> retiring;   // full backup blocks, still live
    /// block -> when its latest parity page became durable (later passes
    /// wait for it).
    DurableMap parity_durable;
    /// Per lower pass p: block -> where its pass-p parity page lives.
    std::vector<ParityMap> parity_page;
    /// Banked map nodes: the durable/page insert-erase cycle recycles
    /// nodes instead of churning the heap (util/map_recycle.hpp).
    std::vector<DurableMap::node_type> durable_spares;
    std::vector<ParityMap::node_type> page_spares;
    /// Per lower pass p: retirements of pass-p parity pages.
    std::vector<std::vector<RetirementLogEntry>> retire_log;
  };

  static nand::PageImage zeroed_parity();

  /// Blocks in every pass queue of `chip`.
  static std::size_t queued_blocks(const ChipState& chip);
  /// Bit p set for every pass p >= 1 with an open block on `chip`.
  static std::uint32_t open_passes(const ChipState& chip);

  /// Program `data` as the next page of pass `pass` on `chip`; moves the
  /// block on when the pass completes (parity flush, next queue, full).
  Result<Microseconds> write_pass(std::uint32_t chip, std::uint32_t pass, Lpn lpn,
                                  nand::PageData data, Microseconds now, bool gc);

  /// Flush the chip's pass-`pass` parity page for `block` (whose pass
  /// just completed); returns when it is durable.
  Microseconds flush_parity(std::uint32_t chip, std::uint32_t block, std::uint32_t pass,
                            Microseconds now);

  /// Drop `block`'s pass-`pass` parity page (and its durability wait):
  /// the page is stale or its coverage is void.
  void invalidate_parity(std::uint32_t chip, std::uint32_t block, std::uint32_t pass,
                         Microseconds now);

  /// One parity page of `backup_block` went stale: drop its live count,
  /// recycling the backup block once nothing in it protects anything.
  void release_parity_page(std::uint32_t chip, std::uint32_t backup_block,
                           Microseconds now);

  /// Drop retirement-log entries settled by time `now` (their final
  /// program provably completed; no power loss can void them anymore).
  void prune_retire_log(std::uint32_t chip, Microseconds now);

  /// `lpn` is mapped at the `destroyed` page: point it at its newest
  /// intact copy elsewhere (true), or unmap it when there is none (false).
  bool roll_back(Lpn lpn, const nand::PageAddress& destroyed);

  /// Media scan for the newest intact copy of `lpn` other than `exclude` —
  /// how recovery rolls an interrupted relocation back to its source.
  [[nodiscard]] std::optional<nand::PageAddress> find_newest_copy(
      Lpn lpn, const nand::PageAddress& exclude) const;

  std::uint32_t passes_;
  std::vector<ChipState> chips_;
  PolicyManager policy_;
  WritePredictor predictor_;
  std::uint64_t lsb_since_idle_ = 0;  // burst-size observation for the predictor
  std::uint64_t skipped_backups_ = 0;
};

}  // namespace rps::core
