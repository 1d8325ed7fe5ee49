#include "src/core/flex_ftl.hpp"

#include <algorithm>
#include <cassert>

#include "src/obs/trace.hpp"
#include "src/util/serialize.hpp"

namespace rps::core {

namespace {

PolicyManager::Params policy_params(const ftl::FtlConfig& config) {
  PolicyManager::Params p;
  p.u_high = config.u_high;
  p.u_low = config.u_low;
  // The quota starts at a fraction of all LSB pages in the device
  // (Section 3.2: 5%). There is one LSB page per word line.
  const auto total_lsb_pages =
      static_cast<double>(config.geometry.total_blocks()) *
      config.geometry.wordlines_per_block;
  p.initial_quota =
      static_cast<std::int64_t>(total_lsb_pages * config.initial_quota_fraction);
  p.chips = config.geometry.num_units();
  p.passes = config.geometry.bits_per_cell;
  return p;
}

}  // namespace

FlexFtl::FlexFtl(const ftl::FtlConfig& config)
    : FtlBase(config, nand::SequenceKind::kRps),
      passes_(config.geometry.bits_per_cell),
      chips_(config.geometry.num_units()),
      policy_(policy_params(config)) {
  // A chip's parity tables key on its own block numbers, so blocks_per_chip
  // bounds their population — reserving up front keeps the per-write
  // coverage bookkeeping rehash-free for the whole run.
  for (ChipState& chip : chips_) {
    chip.queues.resize(passes_ - 1);
    chip.acc.resize(passes_ - 1);
    chip.parity_page.resize(passes_ - 1);
    chip.retire_log.resize(passes_ - 1);
    chip.parity_durable.reserve(config.geometry.blocks_per_chip);
    for (ParityMap& pages : chip.parity_page) pages.reserve(config.geometry.blocks_per_chip);
  }
}

nand::PageImage FlexFtl::zeroed_parity() {
  nand::PageImage d;
  d.record.lpn = 0;  // XOR identity; PageData's default LPN is the all-ones sentinel
  return d;
}

std::size_t FlexFtl::queued_blocks(const ChipState& chip) {
  std::size_t blocks = 0;
  for (const RingBuffer<std::uint32_t>& queue : chip.queues) blocks += queue.size();
  return blocks;
}

std::uint32_t FlexFtl::open_passes(const ChipState& chip) {
  std::uint32_t open = 0;
  for (std::size_t p = 1; p <= chip.queues.size(); ++p) {
    if (!chip.queues[p - 1].empty()) open |= 1u << p;
  }
  return open;
}

Result<Microseconds> FlexFtl::write_pass(std::uint32_t chip, std::uint32_t pass, Lpn lpn,
                                         nand::PageData data, Microseconds now, bool gc) {
  ChipState& cs = chips_.at(chip);
  const std::uint32_t last = passes_ - 1;
  if (pass == 0 && !cs.fast) {
    const Status opened = open_active_block(
        chip, now, gc, [&] { return !cs.fast; },
        [&](std::uint32_t block) { cs.fast = block; });
    if (!opened.is_ok()) return opened.code();
  }
  if (pass > 0 && cs.queues[pass - 1].empty()) return ErrorCode::kNoFreePage;
  // The head of a pass queue is that pass's active block (Section 3.1).
  const std::uint32_t target = pass == 0 ? *cs.fast : cs.queues[pass - 1].front();
  nand::Block& block = device_.block_mut({chip, target});
  const nand::PageType type = nand::type_of_pass(pass, passes_);
  const std::optional<nand::PagePos> pos =
      pass == 0 ? block.next_lsb() : block.next_in_pass(type);
  assert(pos.has_value());  // invariant: an active block has space in its pass
  const nand::PageAddress addr{chip, target, *pos};

  // A later pass destroys the lower pages of its word line if the power
  // fails mid-program, so the block's latest parity page must be durable
  // before the pass begins; normally it became durable long ago.
  Microseconds start = now;
  if (pass > 0) {
    const auto durable = cs.parity_durable.find(target);
    if (durable != cs.parity_durable.end()) start = std::max(start, durable->second);
  }
  if (pass < last) {
    // The pass's parity page buffer accumulates every record and payload.
    if (block.programmed_in_pass(type) == 0) cs.acc[pass] = zeroed_parity();
    cs.acc[pass].xor_with(data, device_.payloads().find(data.signature));
  }
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), start);
  assert(timing.is_ok());
  const Microseconds complete = timing.value().complete;
  commit_mapping(lpn, addr);
  // The quota: pass 0 spends, the final pass repays, middle passes are
  // neutral.
  if (pass == 0) {
    policy_.note_lsb_write();
    if (!gc) {
      ++stats_.host_lsb_writes;
      ++lsb_since_idle_;
    }
  } else if (pass == last) {
    policy_.note_msb_write();
    if (!gc) ++stats_.host_msb_writes;
  }
  if (block.programmed_in_pass(type) < block.wordlines()) return complete;

  if (pass < last) {
    // The pass is complete: flush its parity page, then the block joins
    // the next pass's queue (Fig. 6's fast -> slow transition at n = 2).
    if (pass == 0 && trace_ != nullptr) {
      trace_->record(obs::EventKind::kBlockFastToSlow, chip + 1, complete, -1, target);
    }
    flush_parity(chip, target, pass, complete);
    if (pass == 0) {
      cs.fast.reset();
    } else {
      cs.queues[pass - 1].pop_front();
    }
    cs.queues[pass].push_back(target);
    return complete;
  }

  // Slow -> full transition: the block's parity pages are no longer
  // needed. The bookkeeping retires them eagerly (deferring it would shift
  // free-pool dynamics), but the retirement only becomes *irrevocable*
  // once this final program completes — until then a power cut destroys
  // the lower pages of its word line with those parity pages as their
  // only copy. Log them so recovery can void the retirement; the parity
  // media survives the cut because any backup-block erase the release
  // charges starts after `complete` and is voided by the chip's
  // lazy-erase power-loss rules.
  blocks_.set_use({chip, target}, ftl::BlockUse::kFull);
  cs.queues[last - 1].pop_front();
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kBlockSlowToFull, chip + 1, complete, -1, target);
  }
  prune_retire_log(chip, timing.value().start);
  for (std::uint32_t p = 0; p < last; ++p) {
    const auto parity_it = cs.parity_page[p].find(target);
    if (parity_it != cs.parity_page[p].end()) {
      cs.retire_log[p].push_back({target, complete, parity_it->second});
    }
    invalidate_parity(chip, target, p, complete);
  }
  return complete;
}

Microseconds FlexFtl::flush_parity(std::uint32_t chip, std::uint32_t block,
                                   std::uint32_t pass, Microseconds now) {
  // Attribution: the parity program is backup overhead, whatever write
  // path (host pass completion, GC) triggered the flush.
  const nand::CauseScope cause(device_, nand::WriteCause::kParity);
  ChipState& cs = chips_.at(chip);
  if (!cs.backup) {
    // Never take the final free block: GC depends on it as a relocation
    // destination when every pass queue is empty.
    Result<std::uint32_t> fresh =
        blocks_.allocate(chip, ftl::BlockUse::kBackup, /*reserve=*/1);
    if (!fresh.is_ok()) {
      // No backup space: the pass proceeds unprotected (counted, and the
      // recovery path reports such pages as lost).
      ++skipped_backups_;
      if (trace_ != nullptr) {
        trace_->record(obs::EventKind::kParityFlush, chip + 1, now, -1, block, 0,
                       /*skipped=*/1);
      }
      return now;
    }
    cs.backup = BackupBlock{.block = fresh.value(), .next_lsb = 0, .live_pages = 0};
  }

  // Parity pages go to the backup block's LSB pages only (footnote 2) —
  // consecutive LSB programs are exactly what RPS makes legal.
  const nand::PageAddress dst{chip, cs.backup->block,
                              {cs.backup->next_lsb, nand::PageType::kLsb}};
  // The parity page is the XOR of the block's pages in the pass —
  // including their LPN fields, which is what lets recovery reconstruct a
  // lost page's LPN. Only the spare word is claimed for the inverse map
  // (host pages keep spare = 0, so recovery can still XOR it away).
  const nand::PageImage& acc = cs.acc[pass];
  nand::PageData parity = acc.record;
  // Inverse map for power-off recovery, plus the metadata flag that keeps
  // mapping reconstruction from mistaking the parity page for host data.
  parity.spare = block | nand::kNonHostSpareFlag;
  const nand::PayloadPin payload(device_.payloads(), parity.signature, acc.bytes);
  Result<nand::OpTiming> timing = device_.program(dst, parity, now);
  assert(timing.is_ok());
  ++cs.backup->next_lsb;
  ++cs.backup->live_pages;
  blocks_.add_written({chip, cs.backup->block});
  ++stats_.backup_pages;

  util::recycled_assign(cs.parity_page[pass], cs.page_spares, block, dst);
  util::recycled_assign(cs.parity_durable, cs.durable_spares, block,
                        timing.value().complete);

  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kParityFlush, chip + 1, now,
                   timing.value().complete - now, block, dst.block,
                   /*skipped=*/0);
  }

  if (cs.backup->next_lsb >= device_.geometry().wordlines_per_block) {
    cs.retiring.push_back(*cs.backup);
    cs.backup.reset();
  }
  return timing.value().complete;
}

void FlexFtl::invalidate_parity(std::uint32_t chip, std::uint32_t block,
                                std::uint32_t pass, Microseconds now) {
  ChipState& cs = chips_.at(chip);
  const auto durable = cs.parity_durable.find(block);
  if (durable != cs.parity_durable.end()) {
    util::recycled_erase(cs.parity_durable, cs.durable_spares, durable);
  }
  ParityMap& pages = cs.parity_page[pass];
  const auto it = pages.find(block);
  if (it == pages.end()) return;  // was never protected
  const std::uint32_t backup_block = it->second.block;
  util::recycled_erase(pages, cs.page_spares, it);
  release_parity_page(chip, backup_block, now);
}

void FlexFtl::release_parity_page(std::uint32_t chip, std::uint32_t backup_block,
                                  Microseconds now) {
  ChipState& cs = chips_.at(chip);
  if (cs.backup && cs.backup->block == backup_block) {
    assert(cs.backup->live_pages > 0);
    --cs.backup->live_pages;
    return;
  }
  for (auto retiring = cs.retiring.begin(); retiring != cs.retiring.end(); ++retiring) {
    if (retiring->block != backup_block) continue;
    assert(retiring->live_pages > 0);
    if (--retiring->live_pages == 0) {
      // Every parity page in this retired backup block is stale: recycle.
      // The erase is parity overhead regardless of what released the page.
      const nand::CauseScope cause(device_, nand::WriteCause::kParity);
      const Result<nand::OpTiming> erased = erase_block({chip, backup_block}, now);
      assert(erased.is_ok());
      (void)erased;
      blocks_.release({chip, backup_block});
      cs.retiring.erase(retiring);
    }
    return;
  }
}

void FlexFtl::prune_retire_log(std::uint32_t chip, Microseconds now) {
  for (std::vector<RetirementLogEntry>& log : chips_.at(chip).retire_log) {
    std::erase_if(log, [now](const RetirementLogEntry& entry) { return entry.at <= now; });
  }
}

Result<Microseconds> FlexFtl::allocate_host_page(std::uint32_t chip, Lpn lpn,
                                                 nand::PageData data, Microseconds now,
                                                 double buffer_utilization) {
  const ChipState& cs = chips_.at(chip);
  const std::uint32_t open = open_passes(cs);
  std::uint32_t pass = policy_.choose(chip, buffer_utilization, open);

  // Block-pool-status feedback (Fig. 5: the block pool manager reports its
  // state to the page allocator to balance page-type consumption): when
  // free LSB capacity is nearly exhausted but later-pass capacity is
  // banked in the queues, consume the slowest open pass instead of forcing
  // foreground GC.
  if (pass == 0 && open != 0) {
    const bool lsb_starved =
        blocks_.free_blocks(chip) <= config_.gc_reserve_blocks + 2 && !cs.fast;
    const bool queues_bloated =
        queued_blocks(cs) > device_.geometry().blocks_per_chip / 2;
    if (lsb_starved || queues_bloated) pass = highest_open_pass(open);
  }
  return write_pass(chip, pass, lpn, std::move(data), now, /*gc=*/false);
}

Result<Microseconds> FlexFtl::allocate_gc_page(std::uint32_t chip, Lpn lpn,
                                               nand::PageData data, Microseconds now,
                                               bool background) {
  (void)background;
  // GC copies consume the slowest open pass (MSB pages raise q); LSB only
  // as a fallback.
  return write_pass(chip, highest_open_pass(open_passes(chips_.at(chip))), lpn,
                    std::move(data), now, /*gc=*/true);
}

void FlexFtl::on_idle_plan(Microseconds now, Microseconds deadline) {
  // Grace windows whose final program completed by now are settled: their
  // log entries can never be voided anymore.
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    prune_retire_log(chip, now);
  }
  // Burst observation happens on every idle, even ones too short to work
  // in — the predictor must see the workload's rhythm either way.
  if (config_.use_write_predictor) {
    if (lsb_since_idle_ > 0) predictor_.observe_burst(lsb_since_idle_);
    lsb_since_idle_ = 0;
  }

  FtlBase::on_idle_plan(now, deadline);
  // Same spill guard as the base background GC.
  deadline -= 2 * config_.timing.program_msb_us;
  if (deadline <= now) return;

  // Quota replenishment: while q is below its target, relocate victims
  // (copies go to MSB pages, each incrementing q) until the quota is back,
  // the idle window closes, or no victim passes the yield guard. The
  // target is the static ceiling, unless the write predictor (paper's
  // conclusion / future work) is enabled — then the observed burst sizes
  // bound how much idle GC is worth doing.
  std::int64_t target = policy_.initial_quota();
  if (config_.use_write_predictor) {
    const std::int64_t predicted = predictor_.predicted_demand();
    if (predicted >= 0) {
      target = std::min(target, std::max(policy_.quota(), predicted));
    }
  }
  const std::uint32_t chips = device_.geometry().num_units();
  std::uint32_t stalled = 0;
  std::uint32_t chip = bgc_rr_chip_ % chips;
  while (policy_.quota() < target && stalled < chips) {
    const bool msb_available = !chips_[chip].queues.back().empty();
    if (!msb_available || device_.chip(chip).busy_until() >= deadline ||
        blocks_.best_victim_gain(chip) <
            blocks_.pages_per_block() / config_.bgc_min_yield_divisor) {
      ++stalled;
      chip = (chip + 1) % chips;
      continue;
    }
    const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
    if (!victim) {
      ++stalled;
      chip = (chip + 1) % chips;
      continue;
    }
    const Microseconds start = std::max(now, device_.chip(chip).busy_until());
    if (!collect_block(chip, *victim, start, deadline, /*background=*/true)) {
      ++stalled;
    } else {
      stalled = 0;
    }
    chip = (chip + 1) % chips;
  }
}

bool FlexFtl::roll_back(Lpn lpn, const nand::PageAddress& destroyed) {
  const nand::BlockAddress from{destroyed.chip, destroyed.block};
  const std::optional<nand::PageAddress> source = find_newest_copy(lpn, destroyed);
  if (!source) {
    mapping_.unmap(lpn);
    blocks_.remove_valid(from);
    return false;
  }
  // The older copy may sit in a GC victim block whose erase the power loss
  // voided (it was charged after the cut): pull it back out of the free
  // pool before hanging valid pages off it.
  const nand::BlockAddress home{source->chip, source->block};
  blocks_.reclaim(home, ftl::BlockUse::kFull);
  mapping_.update(lpn, *source);  // returns `destroyed`; fix the counters
  blocks_.remove_valid(from);
  blocks_.add_valid(home);
  // A GC scan of the source block may already have passed the revived
  // page (it had been relocated): rewind the scan so GC finds it again.
  blocks_.set_gc_cursor(home, std::min(blocks_.gc_cursor(home), source->pos.wordline));
  return true;
}

std::optional<nand::PageAddress> FlexFtl::find_newest_copy(
    Lpn lpn, const nand::PageAddress& exclude) const {
  std::optional<nand::PageAddress> best;
  std::uint64_t best_version = 0;
  const nand::Geometry& geometry = device_.geometry();
  for (std::uint32_t chip = 0; chip < geometry.num_units(); ++chip) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      if (device_.bad_blocks().is_retired(chip, b)) continue;
      const nand::Block& block = device_.block({chip, b});
      if (block.is_erased()) continue;
      for (std::uint32_t wl = 0; wl < geometry.wordlines_per_block; ++wl) {
        for (std::uint32_t p = 0; p < passes_; ++p) {
          const nand::PagePos pos{wl, nand::type_of_pass(p, passes_)};
          const nand::PageAddress addr{chip, b, pos};
          if (addr == exclude) continue;
          if (block.page_state(pos) != nand::PageState::kValid) continue;
          const Result<nand::PageData> data = block.read(pos);
          if (!data.is_ok()) continue;
          if (data.value().spare & nand::kNonHostSpareFlag) continue;
          if (data.value().lpn != lpn) continue;
          if (!best || data.value().version > best_version) {
            best = addr;
            best_version = data.value().version;
          }
        }
      }
    }
  }
  return best;
}

namespace {

/// Reads a block index; fails the reader when it is out of range.
std::uint32_t load_block(ser::Reader& r, std::uint32_t blocks) {
  const std::uint32_t block = r.u32();
  if (block >= blocks) r.fail();
  return block;
}

/// Reads a count of entries of at least 4 bytes each; fails the reader
/// when the stream cannot hold them.
std::uint64_t load_count(ser::Reader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 4) r.fail();
  return r.ok() ? n : 0;
}

void save_backup(ser::Writer& w, const auto& b) {
  w.u32(b.block);
  w.u32(b.next_lsb);
  w.u32(b.live_pages);
}

}  // namespace

void FlexFtl::save_extra(ser::Writer& w) const {
  w.u64(chips_.size());
  for (const ChipState& chip : chips_) {
    w.boolean(chip.fast.has_value());
    w.u32(chip.fast.value_or(0));
    for (const RingBuffer<std::uint32_t>& queue : chip.queues) {
      w.u64(queue.size());
      for (std::size_t i = 0; i < queue.size(); ++i) w.u32(queue[i]);
    }
    for (const nand::PageImage& acc : chip.acc) nand::save(w, acc);
    w.boolean(chip.backup.has_value());
    if (chip.backup) save_backup(w, *chip.backup);
    w.u64(chip.retiring.size());
    for (const BackupBlock& b : chip.retiring) save_backup(w, b);
    // Canonical byte stream: hash maps are emitted sorted by block key.
    std::vector<std::pair<std::uint32_t, Microseconds>> durable(
        chip.parity_durable.begin(), chip.parity_durable.end());
    std::sort(durable.begin(), durable.end());
    w.u64(durable.size());
    for (const auto& [block, at] : durable) {
      w.u32(block);
      w.i64(at);
    }
    for (const ParityMap& parity : chip.parity_page) {
      std::vector<std::pair<std::uint32_t, nand::PageAddress>> pages(parity.begin(),
                                                                     parity.end());
      std::sort(pages.begin(), pages.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      w.u64(pages.size());
      for (const auto& [block, addr] : pages) {
        w.u32(block);
        save_address(w, addr);
      }
    }
    for (const std::vector<RetirementLogEntry>& log : chip.retire_log) {
      w.u64(log.size());
      for (const RetirementLogEntry& entry : log) {
        w.u32(entry.block);
        w.i64(entry.at);
        save_address(w, entry.parity);
      }
    }
  }
  policy_.save(w);
  predictor_.save(w);
  w.u64(lsb_since_idle_);
  w.u64(skipped_backups_);
}

void FlexFtl::load_extra(ser::Reader& r) {
  // Every block index and page address restored here later indexes a
  // device or pool array (writes, parity flushes, recovery): values outside
  // the FTL-visible blocks fail the reader even when the stream's checksum
  // holds.
  const nand::Geometry& g = device_.geometry();
  const std::uint32_t blocks = device_.visible_blocks();
  const auto load_backup = [&](std::uint32_t max_next) {
    BackupBlock b;
    b.block = load_block(r, blocks);
    b.next_lsb = r.u32();
    b.live_pages = r.u32();
    if (b.next_lsb > max_next) r.fail();
    return b;
  };
  if (r.u64() != chips_.size()) {
    r.fail();
    return;
  }
  for (ChipState& chip : chips_) {
    const bool has_fast = r.boolean();
    const std::uint32_t fast = r.u32();
    if (has_fast && fast >= blocks) r.fail();
    chip.fast = has_fast ? std::optional<std::uint32_t>(fast) : std::nullopt;
    for (RingBuffer<std::uint32_t>& queue : chip.queues) {
      queue.clear();
      const std::uint64_t n = load_count(r);
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) queue.push_back(load_block(r, blocks));
    }
    for (nand::PageImage& acc : chip.acc) nand::load(r, acc);
    chip.backup.reset();
    // The active backup block is retired on reaching its last word line.
    if (r.boolean()) chip.backup = load_backup(g.wordlines_per_block - 1);
    chip.retiring.clear();
    const std::uint64_t retiring = load_count(r);
    chip.retiring.reserve(static_cast<std::size_t>(retiring));
    for (std::uint64_t i = 0; i < retiring && r.ok(); ++i) {
      chip.retiring.push_back(load_backup(g.wordlines_per_block));
    }
    chip.parity_durable.clear();
    const std::uint64_t durable = load_count(r);
    for (std::uint64_t i = 0; i < durable && r.ok(); ++i) {
      const std::uint32_t block = load_block(r, blocks);
      chip.parity_durable.emplace(block, r.i64());
    }
    for (ParityMap& parity : chip.parity_page) {
      parity.clear();
      const std::uint64_t pages = load_count(r);
      for (std::uint64_t i = 0; i < pages && r.ok(); ++i) {
        const std::uint32_t block = load_block(r, blocks);
        parity.emplace(block, load_address(r));
      }
    }
    for (std::vector<RetirementLogEntry>& log : chip.retire_log) {
      log.clear();
      const std::uint64_t entries = load_count(r);
      log.reserve(static_cast<std::size_t>(entries));
      for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
        RetirementLogEntry entry;
        entry.block = load_block(r, blocks);
        entry.at = r.i64();
        entry.parity = load_address(r);
        log.push_back(entry);
      }
    }
    if (!r.ok()) return;
  }
  policy_.load(r);
  predictor_.load(r);
  lsb_since_idle_ = r.u64();
  skipped_backups_ = r.u64();
}

}  // namespace rps::core
