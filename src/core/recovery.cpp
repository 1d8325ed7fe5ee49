// Power-loss recovery (Section 3.3, Fig. 7b).
//
// A sudden power-off during an MSB program destroys the paired LSB page's
// previously-acknowledged data. At reboot, flexFTL:
//   1. discards interrupted in-flight writes (they were never acknowledged),
//   2. re-reads every LSB page of every slow block, recomputing the parity;
//      an ECC-uncorrectable page is reconstructed by XOR-ing the saved
//      per-block parity page with the readable pages, and rewritten,
//   3. re-reads the written LSB pages of each active fast block to rebuild
//      its partially-accumulated parity page buffer.
// All reads are charged to the device timeline, so the report's recovery
// time reproduces the paper's reboot-cost estimate.
#include "src/core/flex_ftl.hpp"

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
    const std::optional<Lpn> lpn = find_lpn_of(addr);
    if (!lpn) continue;
    if (const std::optional<nand::PageAddress> source = find_newest_copy(*lpn, addr)) {
      // The source may sit in a GC victim block whose erase the power loss
      // voided (it was charged after the cut): pull it back out of the
      // free pool before hanging valid pages off it.
      blocks_.reclaim({source->chip, source->block}, ftl::BlockUse::kFull);
      mapping_.update(*lpn, *source);  // returns `addr`; fix the counters
      blocks_.remove_valid({addr.chip, addr.block});
      blocks_.add_valid({source->chip, source->block});
      ++report.relocations_rolled_back;
    } else {
      mapping_.unmap(*lpn);
      blocks_.remove_valid({addr.chip, addr.block});
      ++report.interrupted_writes_discarded;
    }
  }

  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    ChipState& cs = chips_[chip];

    // Settle the retirement log against the cut. A retirement whose final
    // MSB program completed by now is irrevocable: drop the entry. One
    // still in flight is void — that MSB program is a victim, the paired
    // LSB page is destroyed, and the logged parity page is the data's only
    // copy (its media survived the cut: any backup-block erase charged by
    // the eager release started after `at` and was voided by the chip's
    // lazy-erase rules). Re-hook such parity pages and run the parity
    // check over the block below, exactly as if it were still the active
    // slow block — unless the block number was recycled into a new
    // protected block inside the window (then the old incarnation's pages
    // all went stale before the recycling erase, and the live map entry
    // belongs to the new incarnation).
    std::vector<std::uint32_t> voided_retirements;
    {
      std::vector<ChipState::RetirementLogEntry> log;
      log.swap(cs.retire_log);
      for (const ChipState::RetirementLogEntry& entry : log) {
        if (entry.at <= now) continue;
        if (cs.parity_page.emplace(entry.block, entry.parity).second) {
          voided_retirements.push_back(entry.block);
        }
      }
    }

    // Step 2: verify every slow block's LSB data by parity recomputation.
    // (Snapshot the queue: rewriting a recovered page may consume MSB pages
    // and retire the head slow block, mutating the deque.)
    std::vector<std::uint32_t> slow_blocks;
    slow_blocks.reserve(cs.sbqueue.size() + cs.cold_sbqueue.size() +
                        voided_retirements.size());
    for (std::size_t i = 0; i < cs.sbqueue.size(); ++i) {
      slow_blocks.push_back(cs.sbqueue[i]);
    }
    for (std::size_t i = 0; i < cs.cold_sbqueue.size(); ++i) {
      slow_blocks.push_back(cs.cold_sbqueue[i]);
    }
    slow_blocks.insert(slow_blocks.end(), voided_retirements.begin(),
                       voided_retirements.end());
    for (const std::uint32_t blk : slow_blocks) {
      ++report.slow_blocks_checked;
      nand::PageImage recomputed = zeroed_parity();
      std::optional<nand::PagePos> lost;
      for (std::uint32_t wl = 0; wl < wordlines; ++wl) {
        const nand::PageAddress addr{chip, blk, {wl, nand::PageType::kLsb}};
        Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
        ++report.lsb_pages_read;
        // A failed device read counts as an unreadable page, the same as
        // ECC-uncorrectable data — never dereference an error Result (this
        // must hold in NDEBUG builds, where an assert would vanish).
        if (got.is_ok() && got.value().data.is_ok()) {
          const nand::PageData& page = got.value().data.value();
          recomputed.xor_with(page, device_.payloads().find(page.signature));
        } else {
          // Skip the unreadable page; keep accumulating the rest (Fig. 7b).
          lost = nand::PagePos{wl, nand::PageType::kLsb};
        }
      }

      // Verify the saved parity page — proactively, not only when a page
      // was lost. A cut during the flush leaves a corrupt parity page the
      // bookkeeping believes durable; trusting it until the next crash
      // would turn a recoverable loss into a silent one. No MSB of this
      // block can have started (the MSB phase waits for parity
      // durability), so dropping the coverage loses nothing now; the
      // block proceeds unprotected, counted via skipped_parity_backups()
      // and the report.
      const auto parity_it = cs.parity_page.find(blk);
      bool parity_ok = false;
      nand::PageImage saved_parity;
      if (parity_it != cs.parity_page.end()) {
        Result<nand::NandDevice::ReadResult> saved =
            device_.read(parity_it->second, now);
        ++report.parity_pages_read;
        if (saved.is_ok() && saved.value().data.is_ok()) {
          parity_ok = true;
          saved_parity = device_.payloads().image(saved.value().data.value());
        } else {
          // Unreadable parity page: the cut landed during the flush (or a
          // re-hooked page's backup block was recycled first). Drop the
          // coverage — releasing the accounting only for live coverage; a
          // re-hooked entry (no durable timestamp) was already released by
          // its eager retirement.
          if (cs.parity_durable.count(blk) != 0) {
            invalidate_parity(chip, blk, now);
          } else {
            cs.parity_page.erase(blk);
          }
          ++skipped_backups_;
          ++report.parity_flush_interrupted;
        }
      }
      if (!lost) continue;

      const nand::PageAddress lost_addr{chip, blk, *lost};
      if (!parity_ok) {
        // The block was not protected (backup allocation failed, or the
        // flush itself was the interrupted program). A stale intact copy
        // elsewhere can still save the data.
        if (const std::optional<Lpn> lpn = find_lpn_of(lost_addr)) {
          if (const auto source = find_newest_copy(*lpn, lost_addr)) {
            blocks_.reclaim({source->chip, source->block}, ftl::BlockUse::kFull);
            mapping_.update(*lpn, *source);
            blocks_.remove_valid({chip, blk});
            blocks_.add_valid({source->chip, source->block});
            ++report.relocations_rolled_back;
          } else {
            mapping_.unmap(*lpn);
            blocks_.remove_valid({chip, blk});
            ++report.pages_lost;
          }
        }
        continue;
      }

      // lost page = saved parity XOR (XOR of all readable LSB pages), the
      // payload bytes included.
      nand::PageImage recovered = std::move(saved_parity);
      recovered.xor_with(recomputed);
      recovered.record.spare = 0;  // the parity page's spare held the inverse map

      if (!mapping_.maps_to(recovered.record.lpn, lost_addr)) {
        // The destroyed page held stale data; nothing to restore.
        continue;
      }
      // Rewrite the reconstructed page at a fresh location and remap.
      const Lpn lpn = recovered.record.lpn;
      const nand::PayloadPin payload(device_.payloads(), recovered.record.signature,
                                     recovered.bytes);
      Result<Microseconds> rewritten =
          allocate_gc_page(chip, lpn, recovered.record, now, /*background=*/false);
      if (rewritten.is_ok()) {
        ++report.pages_recovered;
      } else {
        mapping_.unmap(lpn);
        blocks_.remove_valid({chip, blk});
        ++report.pages_lost;
      }
    }

    // The voided retirements are settled now: any destroyed page was
    // reconstructed and rewritten elsewhere (or counted lost). The eager
    // retirement already released the parity accounting; only the
    // re-hooked map entries go away (erasing one the corrupt-parity path
    // above already dropped is a no-op).
    for (const std::uint32_t blk : voided_retirements) {
      cs.parity_page.erase(blk);
    }

    // Step 3: rebuild the parity page buffers of the active fast blocks
    // (host and cold streams) from their already-written LSB pages.
    for (const bool cold : {false, true}) {
      const std::optional<std::uint32_t>& fast = cold ? cs.cold_fast : cs.fast;
      if (!fast) continue;
      ++report.fast_blocks_checked;
      const nand::Block& block = device_.block({chip, *fast});
      nand::PageImage acc = zeroed_parity();
      for (std::uint32_t wl = 0; wl < block.programmed_in_pass(nand::PageType::kLsb); ++wl) {
        const nand::PageAddress addr{chip, *fast, {wl, nand::PageType::kLsb}};
        Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
        ++report.lsb_pages_read;
        // An interrupted (corrupt) LSB program contributes nothing; its
        // write was already discarded in step 1. A failed device read is
        // treated the same (no Result dereference under NDEBUG).
        if (got.is_ok() && got.value().data.is_ok()) {
          const nand::PageData& page = got.value().data.value();
          acc.xor_with(page, device_.payloads().find(page.signature));
        }
      }
      (cold ? cs.cold_acc : cs.parity_acc) = std::move(acc);
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
