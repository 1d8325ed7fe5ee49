#include "src/ftl/rtf_ftl.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

RtfFtl::RtfFtl(const FtlConfig& config)
    : FtlBase(config, nand::SequenceKind::kFps),
      order_(nand::fps_order(config.geometry.wordlines_per_block)),
      actives_(config.geometry.num_units(),
               std::vector<BlockCursor>(config.rtf_active_blocks)),
      backup_(config.geometry.num_units()),
      lsb_debt_(config.geometry.num_units(), 0) {
  assert(config.geometry.bits_per_cell == 2);  // an MLC policy
}

std::uint32_t RtfFtl::lsb_ready_cursors(std::uint32_t chip) const {
  std::uint32_t ready = 0;
  for (const BlockCursor& c : actives_.at(chip)) {
    if (c.valid && next_type(c) == nand::PageType::kLsb) ++ready;
  }
  return ready;
}

std::optional<std::size_t> RtfFtl::find_cursor(std::uint32_t chip,
                                               nand::PageType type) const {
  const std::vector<BlockCursor>& cursors = actives_.at(chip);
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].valid && next_type(cursors[i]) == type) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> RtfFtl::replenish_slot(std::uint32_t chip, Microseconds now,
                                                  bool gc) {
  std::vector<BlockCursor>& cursors = actives_.at(chip);
  const auto empty_slot = [&] {
    return std::find_if(cursors.begin(), cursors.end(),
                        [](const BlockCursor& c) { return !c.valid; });
  };
  if (empty_slot() == cursors.end()) return std::nullopt;
  std::optional<std::size_t> filled;
  // A failed opening leaves the pool serving from the cursors it has.
  (void)open_active_block(
      chip, now, gc, [&] { return empty_slot() != cursors.end(); },
      [&](std::uint32_t block) {
        const auto slot = empty_slot();
        *slot = {.valid = true, .block = block, .next = 0};
        filled = static_cast<std::size_t>(slot - cursors.begin());
      });
  return filled;
}

Microseconds RtfFtl::backup_paired_lsb(const nand::PageAddress& msb_addr,
                                       Microseconds now) {
  const nand::PageAddress paired{msb_addr.chip, msb_addr.block,
                                 {msb_addr.pos.wordline, nand::PageType::kLsb}};
  const nand::Block& block = device_.block({paired.chip, paired.block});
  if (block.page_state(paired.pos) != nand::PageState::kValid) return now;
  const Lpn lpn = block.read(paired.pos).value().lpn;
  // Only still-referenced data needs protecting.
  if (lpn == kInvalidLpn || !mapping_.maps_to(lpn, paired)) return now;

  // Attribution: the paired-LSB copy (and the cycled backup-block erase)
  // is backup overhead, not part of the host MSB write that required it.
  const nand::CauseScope cause(device_, nand::WriteCause::kBackup);

  // The copy is a real page read followed by a program to a backup block.
  Result<nand::NandDevice::ReadResult> got = device_.read(paired, now);
  assert(got.is_ok() && got.value().data.is_ok());
  const Microseconds read = got.value().timing.complete;
  nand::PageData copy = std::move(got.value().data).take();
  copy.spare |= nand::kNonHostSpareFlag;  // backup copy, not the mapped page
  // Backups go to an SLC-mode block: consecutive fast LSB-speed writes,
  // which MLC-mode FPS ordering would forbid.
  const Result<Microseconds> durable =
      program_slc_backup(msb_addr.chip, backup_[msb_addr.chip], copy, read);
  if (!durable.is_ok()) {
    ++skipped_backups_;
    return read;
  }
  return durable.value();
}

Result<Microseconds> RtfFtl::append_at(std::uint32_t chip, std::size_t slot, Lpn lpn,
                                       nand::PageData data, Microseconds now, bool gc) {
  BlockCursor& cursor = actives_.at(chip)[slot];
  const nand::PagePos pos = order_[cursor.next];
  const nand::PageAddress addr{chip, cursor.block, pos};

  Microseconds start = now;
  if (pos.type == nand::PageType::kMsb && !gc) {
    // Destructive MSB program: its paired LSB data must be backed up first.
    // GC relocation copies skip this: their sources survive until the pass
    // completes, so an interrupted pass is redone rather than recovered.
    start = backup_paired_lsb(addr, now);
  }
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), start);
  assert(timing.is_ok());
  if (++cursor.next == order_.size()) {
    blocks_.set_use({chip, cursor.block}, BlockUse::kFull);
    cursor.valid = false;
  }
  commit_mapping(lpn, addr);
  if (!gc) {
    if (pos.type == nand::PageType::kLsb) {
      ++stats_.host_lsb_writes;
      ++lsb_debt_[chip];
    } else {
      ++stats_.host_msb_writes;
      if (lsb_debt_[chip] > 0) --lsb_debt_[chip];
    }
  }
  return timing.value().complete;
}

Result<Microseconds> RtfFtl::allocate_host_page(std::uint32_t chip, Lpn lpn,
                                                nand::PageData data, Microseconds now,
                                                double buffer_utilization) {
  (void)buffer_utilization;
  // Return-to-fast: serve from an LSB frontier when one exists.
  std::optional<std::size_t> slot = find_cursor(chip, nand::PageType::kLsb);
  if (!slot) slot = replenish_slot(chip, now, /*gc=*/false);  // fresh block => LSB
  if (!slot) slot = find_cursor(chip, nand::PageType::kMsb);
  if (!slot) return ErrorCode::kNoFreeBlock;
  return append_at(chip, *slot, lpn, std::move(data), now, /*gc=*/false);
}

Result<Microseconds> RtfFtl::allocate_gc_page(std::uint32_t chip, Lpn lpn,
                                              nand::PageData data, Microseconds now,
                                              bool background) {
  // GC copies consume MSB pages first: that is what returns blocks toward
  // the fast state (and what the paper's rtfFTL does in idle times).
  (void)background;
  std::optional<std::size_t> slot = find_cursor(chip, nand::PageType::kMsb);
  if (!slot) slot = find_cursor(chip, nand::PageType::kLsb);
  if (!slot) slot = replenish_slot(chip, now, /*gc=*/true);
  if (!slot) return ErrorCode::kNoFreeBlock;
  return append_at(chip, *slot, lpn, std::move(data), now, /*gc=*/true);
}

void RtfFtl::on_idle_plan(Microseconds now, Microseconds deadline) {
  // Standard low-free-space background GC first.
  FtlBase::on_idle_plan(now, deadline);

  // Return-to-fast maintenance: consume MSB frontiers via GC relocation so
  // the next burst finds LSB-ready blocks. The work done is proportional
  // to the LSB skew the host has accumulated (one victim relocation fills
  // roughly a block's worth of MSB holes) — not an unconditional churn.
  const std::uint32_t chips = device_.geometry().num_units();
  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;
  for (std::uint32_t chip = 0; chip < chips; ++chip) {
    // Fill empty slots so every slot contributes an LSB frontier.
    while (replenish_slot(chip, now, /*gc=*/false)) {
    }
    while (lsb_debt_[chip] >= wordlines &&
           device_.chip(chip).busy_until() < deadline) {
      const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
      if (!victim) break;
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      if (!collect_block(chip, *victim, start, deadline, /*background=*/true)) break;
      lsb_debt_[chip] -= std::min<std::uint64_t>(lsb_debt_[chip], wordlines);
    }
    // Finish off MSB-next cursors with single-page GC copies so the next
    // burst finds LSB frontiers (after an MSB program the FPS order always
    // returns to an LSB page).
    const std::size_t slots = actives_[chip].size();
    for (std::size_t i = 0;
         i < slots && find_cursor(chip, nand::PageType::kMsb).has_value() &&
         device_.chip(chip).busy_until() < deadline;
         ++i) {
      const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
      if (!victim) break;
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      collect_block(chip, *victim, start, deadline, /*background=*/true,
                    /*max_copies=*/1);
    }
    // A finished MSB may have been a block's last page; refill empty slots
    // so the pool is fast-ready when the burst arrives.
    while (replenish_slot(chip, now, /*gc=*/false)) {
    }
  }
}

void RtfFtl::save_extra(ser::Writer& w) const {
  w.u64(actives_.size());
  for (const std::vector<BlockCursor>& pool : actives_) save_cursors(w, pool);
  save_cursors(w, backup_);
  w.u64(lsb_debt_.size());
  for (const std::uint64_t debt : lsb_debt_) w.u64(debt);
  w.u64(skipped_backups_);
}

void RtfFtl::load_extra(ser::Reader& r) {
  if (r.u64() != actives_.size()) {
    r.fail();
    return;
  }
  const auto pages = static_cast<std::uint32_t>(order_.size());
  for (std::vector<BlockCursor>& pool : actives_) load_cursors(r, pool, pages);
  load_cursors(r, backup_, device_.geometry().wordlines_per_block);
  if (r.u64() != lsb_debt_.size()) {
    r.fail();
    return;
  }
  for (std::uint64_t& debt : lsb_debt_) debt = r.u64();
  skipped_backups_ = r.u64();
}

}  // namespace rps::ftl
