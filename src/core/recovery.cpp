// Power-loss recovery (Section 3.3, Fig. 7b), over any number of passes.
//
// A sudden power-off during a later-pass program (CSB or MSB) destroys the
// lower pages of its word line — previously-acknowledged data. At reboot,
// flexFTL:
//   1. discards interrupted in-flight writes (they were never
//      acknowledged), rolling interrupted GC copies back to their source,
//   2. re-reads every completed lower pass of every queued block — and of
//      a block whose final program the cut interrupted — recomputing the
//      pass's parity; an ECC-uncorrectable page is reconstructed by
//      XOR-ing the saved per-block parity page with the readable pages,
//      and rewritten,
//   3. re-reads the written pages of each open lower pass to rebuild its
//      partially-accumulated parity page buffer,
//   4. rolls back or reports lost any lower page of a victim's word line
//      that is still mapped but unreadable.
// All reads are charged to the device timeline, so the report's recovery
// time reproduces the paper's reboot-cost estimate.
#include "src/core/flex_ftl.hpp"

#include <algorithm>
#include <cassert>

namespace rps::core {

RecoveryReport FlexFtl::recover_from_power_loss(
    const std::vector<nand::PowerLossVictim>& victims, Microseconds now) {
  RecoveryReport report;
  const Microseconds start = now;
  // Attribution: everything the reboot does — parity re-reads, rewritten
  // reconstructed pages — is recovery/metadata work, not host traffic.
  const nand::CauseScope cause(device_, nand::WriteCause::kMeta);

  // Step 1: interrupted programs never completed. If the destroyed page
  // was a relocation copy, its source still exists (a victim block is only
  // erased after its pass commits): roll the mapping back to the newest
  // intact copy. Otherwise it was an in-flight host write that was never
  // acknowledged: discard it.
  for (const nand::PowerLossVictim& victim : victims) {
    const nand::PageAddress addr{victim.chip, victim.block, victim.pos};
    if (const std::optional<Lpn> lpn = mapping_.lpn_of(addr)) {
      if (roll_back(*lpn, addr)) {
        ++report.relocations_rolled_back;
      } else {
        ++report.interrupted_writes_discarded;
      }
    }
  }

  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;
  const std::uint32_t lower = passes_ - 1;
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    ChipState& cs = chips_[chip];

    // Settle the retirement log against the cut. A retirement whose final
    // program completed by now is irrevocable: drop the entry. One still
    // in flight is void — that program is a victim, the lower pages of
    // its word line are destroyed, and the logged parity pages are their
    // only copy (their media survived the cut: any backup-block erase
    // charged by the eager release started after `at` and was voided by
    // the chip's lazy-erase rules). Re-hook such parity pages and run the
    // parity check over the block below, exactly as if it were still in
    // its final pass — unless the block number was recycled into a new
    // protected block inside the window (then the old incarnation's pages
    // all went stale before the recycling erase, and the live map entry
    // belongs to the new incarnation).
    std::vector<std::vector<std::uint32_t>> rehooked(lower);
    std::vector<std::uint32_t> voided_retirements;
    for (std::uint32_t p = 0; p < lower; ++p) {
      std::vector<RetirementLogEntry> log;
      log.swap(cs.retire_log[p]);
      for (const RetirementLogEntry& entry : log) {
        if (entry.at <= now) continue;
        if (!cs.parity_page[p].emplace(entry.block, entry.parity).second) continue;
        rehooked[p].push_back(entry.block);
        if (std::find(voided_retirements.begin(), voided_retirements.end(),
                      entry.block) == voided_retirements.end()) {
          voided_retirements.push_back(entry.block);
        }
      }
    }

    // Step 2: verify every completed lower pass by parity recomputation:
    // passes 0 .. p-1 of the blocks queued for pass p, slowest pass first
    // (rewrites land in the slowest open pass, so its blocks are checked
    // before a rewrite can complete them), then every lower pass of the
    // voided retirements. (Snapshot the queues: rewriting a recovered page
    // may complete the head block, mutating them.)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> checks;  // block, passes
    for (std::uint32_t p = lower; p >= 1; --p) {
      for (std::size_t i = 0; i < cs.queues[p - 1].size(); ++i) {
        checks.emplace_back(cs.queues[p - 1][i], p);
      }
    }
    for (const std::uint32_t blk : voided_retirements) checks.emplace_back(blk, lower);

    struct Rewrite {
      nand::PageImage page;
      nand::PageAddress lost;
    };
    std::vector<Rewrite> rewrites;
    for (const auto& [blk, completed] : checks) {
      ++report.slow_blocks_checked;
      // Parity coverage is live unless it was re-hooked from the log (a
      // re-hooked entry has no durable timestamp: its eager retirement
      // already released the accounting).
      const bool live = cs.parity_durable.count(blk) != 0;
      rewrites.clear();
      for (std::uint32_t p = 0; p < completed; ++p) {
        const nand::PageType type = nand::type_of_pass(p, passes_);
        nand::PageImage recomputed = zeroed_parity();
        std::optional<nand::PagePos> lost;
        for (std::uint32_t wl = 0; wl < wordlines; ++wl) {
          const nand::PageAddress addr{chip, blk, {wl, type}};
          Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
          ++report.lsb_pages_read;
          // A failed device read counts as an unreadable page, the same as
          // ECC-uncorrectable data — never dereference an error Result
          // (this must hold in NDEBUG builds, where an assert would vanish).
          if (got.is_ok() && got.value().data.is_ok()) {
            const nand::PageData& page = got.value().data.value();
            recomputed.xor_with(page, device_.payloads().find(page.signature));
          } else {
            // Skip the unreadable page; keep accumulating the rest (Fig. 7b).
            lost = nand::PagePos{wl, type};
          }
        }

        // Verify the saved parity page — proactively, not only when a page
        // was lost. A cut during the flush leaves a corrupt parity page the
        // bookkeeping believes durable; trusting it until the next crash
        // would turn a recoverable loss into a silent one. No later pass of
        // this block can have started (it waits for parity durability), so
        // dropping the coverage loses nothing now; the pass proceeds
        // unprotected, counted via skipped_parity_backups() and the report.
        const auto parity_it = cs.parity_page[p].find(blk);
        bool parity_ok = false;
        nand::PageImage saved_parity;
        if (parity_it != cs.parity_page[p].end()) {
          Result<nand::NandDevice::ReadResult> saved =
              device_.read(parity_it->second, now);
          ++report.parity_pages_read;
          if (saved.is_ok() && saved.value().data.is_ok()) {
            parity_ok = true;
            saved_parity = device_.payloads().image(saved.value().data.value());
          } else {
            // Unreadable parity page: the cut landed during the flush (or a
            // re-hooked page's backup block was recycled first). Drop the
            // coverage, releasing the accounting only for live coverage.
            if (live) {
              invalidate_parity(chip, blk, p, now);
            } else {
              cs.parity_page[p].erase(blk);
            }
            ++skipped_backups_;
            ++report.parity_flush_interrupted;
          }
        }
        if (!lost) continue;

        const nand::PageAddress lost_addr{chip, blk, *lost};
        if (!parity_ok) {
          // The pass was not protected (backup allocation failed, or the
          // flush itself was the interrupted program). A stale intact copy
          // elsewhere can still save the data.
          if (const std::optional<Lpn> lpn = mapping_.lpn_of(lost_addr)) {
            if (roll_back(*lpn, lost_addr)) {
              ++report.relocations_rolled_back;
            } else {
              ++report.pages_lost;
            }
          }
          continue;
        }

        // lost page = saved parity XOR (XOR of the pass's readable pages),
        // the payload bytes included.
        nand::PageImage recovered = std::move(saved_parity);
        recovered.xor_with(recomputed);
        recovered.record.spare = 0;  // the parity page's spare held the inverse map
        // A destroyed page that held stale data has nothing to restore.
        if (mapping_.maps_to(recovered.record.lpn, lost_addr)) {
          rewrites.push_back({std::move(recovered), lost_addr});
        }
      }

      // Rewrite the reconstructed pages at fresh locations and remap — only
      // after every pass of the block is checked, since a rewrite may
      // complete this very block and retire its remaining parity pages.
      for (const Rewrite& rewrite : rewrites) {
        const Lpn lpn = rewrite.page.record.lpn;
        const nand::PayloadPin payload(device_.payloads(), rewrite.page.record.signature,
                                       rewrite.page.bytes);
        Result<Microseconds> rewritten =
            allocate_gc_page(chip, lpn, rewrite.page.record, now, /*background=*/false);
        if (rewritten.is_ok()) {
          ++report.pages_recovered;
        } else {
          mapping_.unmap(lpn);
          blocks_.remove_valid({chip, rewrite.lost.block});
          ++report.pages_lost;
        }
      }
    }

    // The voided retirements are settled now: any destroyed page was
    // reconstructed and rewritten elsewhere (or counted lost). The eager
    // retirement already released the parity accounting; only the
    // re-hooked map entries go away (erasing one the corrupt-parity path
    // above already dropped is a no-op).
    for (std::uint32_t p = 0; p < lower; ++p) {
      for (const std::uint32_t blk : rehooked[p]) cs.parity_page[p].erase(blk);
    }

    // Step 3: rebuild the parity page buffer of each open lower pass from
    // its block's already-written pages in that pass.
    for (std::uint32_t p = 0; p < lower; ++p) {
      const std::optional<std::uint32_t> open =
          p == 0 ? cs.fast
                 : (cs.queues[p - 1].empty()
                        ? std::nullopt
                        : std::optional<std::uint32_t>(cs.queues[p - 1].front()));
      if (!open) continue;
      ++report.fast_blocks_checked;
      const nand::PageType type = nand::type_of_pass(p, passes_);
      const nand::Block& block = device_.block({chip, *open});
      nand::PageImage acc = zeroed_parity();
      for (std::uint32_t wl = 0; wl < block.programmed_in_pass(type); ++wl) {
        const nand::PageAddress addr{chip, *open, {wl, type}};
        Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
        ++report.lsb_pages_read;
        // An interrupted (corrupt) program contributes nothing; its write
        // was already discarded in step 1. A failed device read is treated
        // the same (no Result dereference under NDEBUG).
        if (got.is_ok() && got.value().data.is_ok()) {
          const nand::PageData& page = got.value().data.value();
          acc.xor_with(page, device_.payloads().find(page.signature));
        }
      }
      cs.acc[p] = std::move(acc);
    }
  }

  // Step 4: a victim destroyed every lower pass of its word line. The
  // parity check restored the pages of protected blocks; any such page
  // still mapped but unreadable goes back to an older intact copy or is
  // reported lost — never silently.
  for (const nand::PowerLossVictim& victim : victims) {
    for (std::uint32_t p = 0; p < nand::pass_of(victim.pos.type, passes_); ++p) {
      const nand::PageAddress addr{victim.chip, victim.block,
                                   {victim.pos.wordline, nand::type_of_pass(p, passes_)}};
      if (device_.block({addr.chip, addr.block}).page_state(addr.pos) ==
          nand::PageState::kValid) {
        continue;
      }
      if (const std::optional<Lpn> lpn = mapping_.lpn_of(addr)) {
        if (roll_back(*lpn, addr)) {
          ++report.relocations_rolled_back;
        } else {
          ++report.pages_lost;
        }
      }
    }
  }

  // A voided erase leaves a free block with surviving media — that is the
  // point: it may have held the only copy of rolled-back data. Any such
  // block not reclaimed above must be scrubbed before reallocation, since
  // programs validate against erased state.
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      const nand::BlockAddress addr{chip, b};
      if (blocks_.use(addr) != ftl::BlockUse::kFree) continue;
      if (device_.block(addr).is_erased()) continue;
      const Result<nand::OpTiming> erased = erase_block(addr, now);
      // A worn-out block fails its scrub erase and is retired instead of
      // re-entering the free pool; recovery proceeds without it.
      assert(erased.is_ok() || erased.code() == ErrorCode::kBlockBad);
      (void)erased;
    }
  }

  report.recovery_time_us = std::max<Microseconds>(0, device_.all_idle_at() - start);
  return report;
}

}  // namespace rps::core
