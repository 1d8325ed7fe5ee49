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
  return p;
}

}  // namespace

FlexFtl::FlexFtl(const ftl::FtlConfig& config)
    : FtlBase(config, nand::SequenceKind::kRps),
      chips_(config.geometry.num_units()),
      policy_(policy_params(config)) {
  // A chip's parity tables key on its own block numbers, so blocks_per_chip
  // bounds their population — reserving up front keeps the per-write
  // coverage bookkeeping rehash-free for the whole run.
  for (ChipState& chip : chips_) {
    chip.parity_durable.reserve(config.geometry.blocks_per_chip);
    chip.parity_page.reserve(config.geometry.blocks_per_chip);
  }
}

nand::PageImage FlexFtl::zeroed_parity() {
  nand::PageImage d;
  d.record.lpn = 0;  // XOR identity; PageData's default LPN is the all-ones sentinel
  return d;
}

Result<Microseconds> FlexFtl::write_lsb(std::uint32_t chip, Lpn lpn,
                                        nand::PageData data, Microseconds now,
                                        bool gc, bool cold) {
  ChipState& cs = chips_.at(chip);
  std::optional<std::uint32_t>& fast_slot = cold ? cs.cold_fast : cs.fast;
  nand::PageImage& acc = cold ? cs.cold_acc : cs.parity_acc;
  RingBuffer<std::uint32_t>& queue = cold ? cs.cold_sbqueue : cs.sbqueue;
  if (!fast_slot) {
    // Host-path allocation may trigger foreground GC whose copies recurse
    // into write_lsb and install a fast block; re-check before installing
    // our own (clobbering it would orphan a half-filled active block).
    if (!gc && blocks_.free_blocks(chip) <= config_.gc_reserve_blocks) {
      const Status freed = ensure_free_block(chip, now);
      if (!freed.is_ok() && !fast_slot) return freed.code();
    }
    if (!fast_slot) {
      Result<std::uint32_t> block = blocks_.allocate(
          chip, ftl::BlockUse::kActive, gc ? 0 : config_.gc_reserve_blocks);
      if (!block.is_ok()) return block.code();
      fast_slot = block.value();
      acc = zeroed_parity();
    }
  }

  const std::uint32_t fast = *fast_slot;
  nand::Block& block = device_.block_mut({chip, fast});
  const std::optional<nand::PagePos> pos = block.next_lsb();
  assert(pos.has_value());  // invariant: an active fast block has LSB space
  const nand::PageAddress addr{chip, fast, *pos};

  // The parity page buffer accumulates every LSB record and its payload.
  acc.xor_with(data, device_.payloads().find(data.signature));
  Result<nand::OpTiming> timing = device_.program(addr, data, now);
  assert(timing.is_ok());
  commit_mapping(lpn, addr);
  policy_.note_lsb_write();
  if (!gc) {
    ++stats_.host_lsb_writes;
    ++lsb_since_idle_;
  }

  if (!block.next_lsb()) {
    // Last LSB page written: flush the accumulated parity page, then the
    // block joins its slow-block queue (Fig. 6's fast -> slow transition).
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kBlockFastToSlow, chip + 1,
                     timing.value().complete, -1, fast);
    }
    flush_parity_from(chip, fast, acc, timing.value().complete);
    queue.push_back(fast);
    fast_slot.reset();
  }
  return timing.value().complete;
}

Microseconds FlexFtl::flush_parity(std::uint32_t chip, std::uint32_t fast_block,
                                   Microseconds now) {
  return flush_parity_from(chip, fast_block, chips_.at(chip).parity_acc, now);
}

Microseconds FlexFtl::flush_parity_from(std::uint32_t chip, std::uint32_t fast_block,
                                        const nand::PageImage& acc, Microseconds now) {
  // Attribution: the parity program is backup overhead, whatever write
  // path (host LSB completion, GC) triggered the flush.
  const nand::CauseScope cause(device_, nand::WriteCause::kParity);
  ChipState& cs = chips_.at(chip);
  if (!cs.backup) {
    // Never take the final free block: GC depends on it as a relocation
    // destination when the SBQueue is empty.
    Result<std::uint32_t> block =
        blocks_.allocate(chip, ftl::BlockUse::kBackup, /*reserve=*/1);
    if (!block.is_ok()) {
      // No backup space: the block proceeds unprotected (counted, and the
      // recovery path reports such pages as lost).
      ++skipped_backups_;
      if (trace_ != nullptr) {
        trace_->record(obs::EventKind::kParityFlush, chip + 1, now, -1,
                       fast_block, 0, /*skipped=*/1);
      }
      return now;
    }
    cs.backup = BackupBlock{.block = block.value(), .next_lsb = 0, .live_pages = 0};
  }

  // Parity pages go to the backup block's LSB pages only (footnote 2) —
  // consecutive LSB programs are exactly what RPS makes legal.
  const nand::PageAddress dst{chip, cs.backup->block,
                              {cs.backup->next_lsb, nand::PageType::kLsb}};
  // The parity page is the XOR of the block's LSB pages — including their
  // LPN fields, which is what lets recovery reconstruct a lost page's LPN.
  // Only the spare word is claimed for the inverse map (host pages keep
  // spare = 0, so recovery can still XOR it away).
  nand::PageData parity = acc.record;
  // Inverse map for power-off recovery, plus the metadata flag that keeps
  // mapping reconstruction from mistaking the parity page for host data.
  parity.spare = fast_block | nand::kNonHostSpareFlag;
  const nand::PayloadPin payload(device_.payloads(), parity.signature, acc.bytes);
  Result<nand::OpTiming> timing = device_.program(dst, parity, now);
  assert(timing.is_ok());
  ++cs.backup->next_lsb;
  ++cs.backup->live_pages;
  blocks_.add_written({chip, cs.backup->block});
  ++stats_.backup_pages;

  util::recycled_assign(cs.parity_page, cs.page_spares, fast_block, dst);
  util::recycled_assign(cs.parity_durable, cs.durable_spares, fast_block,
                        timing.value().complete);

  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kParityFlush, chip + 1, now,
                   timing.value().complete - now, fast_block, dst.block,
                   /*skipped=*/0);
  }

  if (cs.backup->next_lsb >= device_.geometry().wordlines_per_block) {
    cs.retiring.push_back(*cs.backup);
    cs.backup.reset();
  }
  return timing.value().complete;
}

void FlexFtl::invalidate_parity(std::uint32_t chip, std::uint32_t slow_block,
                                Microseconds now) {
  ChipState& cs = chips_.at(chip);
  const auto durable = cs.parity_durable.find(slow_block);
  if (durable != cs.parity_durable.end()) {
    util::recycled_erase(cs.parity_durable, cs.durable_spares, durable);
  }
  const auto it = cs.parity_page.find(slow_block);
  if (it == cs.parity_page.end()) return;  // was never protected
  const std::uint32_t backup_block = it->second.block;
  util::recycled_erase(cs.parity_page, cs.page_spares, it);
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
  std::vector<ChipState::RetirementLogEntry>& log = chips_.at(chip).retire_log;
  std::erase_if(log, [now](const ChipState::RetirementLogEntry& entry) {
    return entry.at <= now;
  });
}

Result<Microseconds> FlexFtl::write_msb(std::uint32_t chip, Lpn lpn,
                                        nand::PageData data, Microseconds now,
                                        bool gc, bool prefer_cold) {
  ChipState& cs = chips_.at(chip);
  // Stream preference with cross-stream fallback (deadlock safety).
  RingBuffer<std::uint32_t>* queue = prefer_cold ? &cs.cold_sbqueue : &cs.sbqueue;
  RingBuffer<std::uint32_t>* other = prefer_cold ? &cs.sbqueue : &cs.cold_sbqueue;
  if (queue->empty()) queue = other;
  if (queue->empty()) return ErrorCode::kNoFreePage;
  // FIFO: the head of the SBQueue is the active slow block (Section 3.1).
  const std::uint32_t slow = queue->front();
  nand::Block& block = device_.block_mut({chip, slow});
  const std::optional<nand::PagePos> pos = block.next_in_pass(nand::PageType::kMsb);
  assert(pos.has_value());  // invariant: SBQueue blocks have MSB space

  // The block's parity page must be durable before its (destructive) MSB
  // phase begins; normally it became durable long ago.
  Microseconds start = now;
  const auto durable = cs.parity_durable.find(slow);
  if (durable != cs.parity_durable.end()) start = std::max(start, durable->second);

  const nand::PageAddress addr{chip, slow, *pos};
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), start);
  assert(timing.is_ok());
  commit_mapping(lpn, addr);
  policy_.note_msb_write();
  if (!gc) ++stats_.host_msb_writes;

  if (block.is_fully_programmed()) {
    // Slow -> full transition: the backup parity page is no longer needed.
    // The bookkeeping retires eagerly (deferring it would shift free-pool
    // dynamics), but the retirement only becomes *irrevocable* once this
    // final MSB program completes — until then a power cut destroys the
    // paired LSB page with that parity page as its only copy. Log it so
    // recovery can void it; the parity media survives the cut because any
    // backup-block erase the release charges starts after `complete` and
    // is voided by the chip's lazy-erase power-loss rules.
    blocks_.set_use({chip, slow}, ftl::BlockUse::kFull);
    queue->pop_front();
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kBlockSlowToFull, chip + 1,
                     timing.value().complete, -1, slow);
    }
    prune_retire_log(chip, timing.value().start);
    const auto parity_it = cs.parity_page.find(slow);
    if (parity_it != cs.parity_page.end()) {
      cs.retire_log.push_back({slow, timing.value().complete, parity_it->second});
    }
    invalidate_parity(chip, slow, timing.value().complete);
  }
  return timing.value().complete;
}

Result<Microseconds> FlexFtl::allocate_host_page(std::uint32_t chip, Lpn lpn,
                                                 nand::PageData data, Microseconds now,
                                                 double buffer_utilization) {
  ChipState& cs = chips_.at(chip);
  const bool has_slow = !cs.sbqueue.empty() || !cs.cold_sbqueue.empty();
  nand::PageType choice = policy_.choose(chip, buffer_utilization, has_slow);

  // Block-pool-status feedback (Fig. 5: the block pool manager reports its
  // state to the page allocator to balance page-type consumption): when
  // free LSB capacity is nearly exhausted but MSB capacity is banked in the
  // SBQueue, consume MSB pages instead of forcing foreground GC.
  if (choice == nand::PageType::kLsb && has_slow) {
    const bool lsb_starved =
        blocks_.free_blocks(chip) <= config_.gc_reserve_blocks + 2 && !cs.fast;
    const bool sbqueue_bloated =
        cs.sbqueue.size() + cs.cold_sbqueue.size() >
        device_.geometry().blocks_per_chip / 2;
    if (lsb_starved || sbqueue_bloated) choice = nand::PageType::kMsb;
  }

  // choose() only picks MSB when a slow block exists (footnote 1).
  if (choice == nand::PageType::kMsb && has_slow) {
    return write_msb(chip, lpn, std::move(data), now, /*gc=*/false);
  }
  return write_lsb(chip, lpn, std::move(data), now, /*gc=*/false);
}

Result<Microseconds> FlexFtl::allocate_gc_page(std::uint32_t chip, Lpn lpn,
                                               nand::PageData data, Microseconds now,
                                               bool background) {
  (void)background;
  // GC copies consume slow MSB pages (raising q); LSB only as a fallback.
  // With hot/cold separation on, copies live in their own stream.
  const bool cold = config_.separate_gc_stream;
  ChipState& cs = chips_.at(chip);
  const bool has_slow = !cs.sbqueue.empty() || !cs.cold_sbqueue.empty();
  if (has_slow) {
    return write_msb(chip, lpn, std::move(data), now, /*gc=*/true,
                     /*prefer_cold=*/cold);
  }
  return write_lsb(chip, lpn, std::move(data), now, /*gc=*/true, /*cold=*/cold);
}

void FlexFtl::on_idle_plan(Microseconds now, Microseconds deadline) {
  // Grace windows whose final MSB completed by now are settled: their log
  // entries can never be voided anymore.
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
    const bool msb_available = !chips_[chip].sbqueue.empty() ||
                               !chips_[chip].cold_sbqueue.empty();
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

std::optional<Lpn> FlexFtl::find_lpn_of(const nand::PageAddress& addr) const {
  for (Lpn lpn = 0; lpn < mapping_.exported_pages(); ++lpn) {
    if (mapping_.maps_to(lpn, addr)) return lpn;
  }
  return std::nullopt;
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
        for (const nand::PageType type : {nand::PageType::kLsb, nand::PageType::kMsb}) {
          const nand::PagePos pos{wl, type};
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

void save_address(ser::Writer& w, const nand::PageAddress& addr) {
  w.u32(addr.chip);
  w.u32(addr.block);
  w.u32(addr.pos.wordline);
  w.u8(static_cast<std::uint8_t>(addr.pos.type));
}

void load_address(ser::Reader& r, nand::PageAddress& addr) {
  addr.chip = r.u32();
  addr.block = r.u32();
  addr.pos.wordline = r.u32();
  addr.pos.type = static_cast<nand::PageType>(r.u8());
}

void save_opt_block(ser::Writer& w, const std::optional<std::uint32_t>& block) {
  w.boolean(block.has_value());
  w.u32(block.value_or(0));
}

void load_opt_block(ser::Reader& r, std::optional<std::uint32_t>& block) {
  const bool has = r.boolean();
  const std::uint32_t value = r.u32();
  block = has ? std::optional<std::uint32_t>(value) : std::nullopt;
}

void save_deque(ser::Writer& w, const RingBuffer<std::uint32_t>& q) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) w.u32(q[i]);
}

bool load_deque(ser::Reader& r, RingBuffer<std::uint32_t>& q) {
  q.clear();
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    r.fail();
    return false;
  }
  for (std::uint64_t i = 0; i < n; ++i) q.push_back(r.u32());
  return true;
}

}  // namespace

void FlexFtl::save_extra(ser::Writer& w) const {
  w.u64(chips_.size());
  for (const ChipState& chip : chips_) {
    save_opt_block(w, chip.fast);
    save_deque(w, chip.sbqueue);
    nand::save(w, chip.parity_acc);
    save_opt_block(w, chip.cold_fast);
    save_deque(w, chip.cold_sbqueue);
    nand::save(w, chip.cold_acc);
    w.boolean(chip.backup.has_value());
    if (chip.backup) {
      w.u32(chip.backup->block);
      w.u32(chip.backup->next_lsb);
      w.u32(chip.backup->live_pages);
    }
    w.u64(chip.retiring.size());
    for (const BackupBlock& b : chip.retiring) {
      w.u32(b.block);
      w.u32(b.next_lsb);
      w.u32(b.live_pages);
    }
    // Canonical byte stream: hash maps are emitted sorted by block key.
    std::vector<std::pair<std::uint32_t, Microseconds>> durable(
        chip.parity_durable.begin(), chip.parity_durable.end());
    std::sort(durable.begin(), durable.end());
    w.u64(durable.size());
    for (const auto& [block, at] : durable) {
      w.u32(block);
      w.i64(at);
    }
    std::vector<std::pair<std::uint32_t, nand::PageAddress>> pages(
        chip.parity_page.begin(), chip.parity_page.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(pages.size());
    for (const auto& [block, addr] : pages) {
      w.u32(block);
      save_address(w, addr);
    }
    w.u64(chip.retire_log.size());
    for (const ChipState::RetirementLogEntry& entry : chip.retire_log) {
      w.u32(entry.block);
      w.i64(entry.at);
      save_address(w, entry.parity);
    }
  }
  policy_.save(w);
  predictor_.save(w);
  w.u64(lsb_since_idle_);
  w.u64(skipped_backups_);
}

void FlexFtl::load_extra(ser::Reader& r) {
  if (r.u64() != chips_.size()) {
    r.fail();
    return;
  }
  for (ChipState& chip : chips_) {
    load_opt_block(r, chip.fast);
    if (!load_deque(r, chip.sbqueue)) return;
    nand::load(r, chip.parity_acc);
    load_opt_block(r, chip.cold_fast);
    if (!load_deque(r, chip.cold_sbqueue)) return;
    nand::load(r, chip.cold_acc);
    chip.backup.reset();
    if (r.boolean()) {
      BackupBlock b;
      b.block = r.u32();
      b.next_lsb = r.u32();
      b.live_pages = r.u32();
      chip.backup = b;
    }
    chip.retiring.clear();
    const std::uint64_t retiring = r.u64();
    if (retiring > r.remaining()) {
      r.fail();
      return;
    }
    chip.retiring.reserve(static_cast<std::size_t>(retiring));
    for (std::uint64_t i = 0; i < retiring; ++i) {
      BackupBlock b;
      b.block = r.u32();
      b.next_lsb = r.u32();
      b.live_pages = r.u32();
      chip.retiring.push_back(b);
    }
    chip.parity_durable.clear();
    const std::uint64_t durable = r.u64();
    if (durable > r.remaining()) {
      r.fail();
      return;
    }
    chip.parity_durable.reserve(static_cast<std::size_t>(durable));
    for (std::uint64_t i = 0; i < durable; ++i) {
      const std::uint32_t block = r.u32();
      chip.parity_durable.emplace(block, r.i64());
    }
    chip.parity_page.clear();
    const std::uint64_t pages = r.u64();
    if (pages > r.remaining()) {
      r.fail();
      return;
    }
    chip.parity_page.reserve(static_cast<std::size_t>(pages));
    for (std::uint64_t i = 0; i < pages; ++i) {
      const std::uint32_t block = r.u32();
      nand::PageAddress addr;
      load_address(r, addr);
      chip.parity_page.emplace(block, addr);
    }
    chip.retire_log.clear();
    const std::uint64_t log = r.u64();
    if (log > r.remaining()) {
      r.fail();
      return;
    }
    chip.retire_log.reserve(static_cast<std::size_t>(log));
    for (std::uint64_t i = 0; i < log; ++i) {
      ChipState::RetirementLogEntry entry;
      entry.block = r.u32();
      entry.at = r.i64();
      load_address(r, entry.parity);
      chip.retire_log.push_back(entry);
    }
  }
  policy_.load(r);
  predictor_.load(r);
  lsb_since_idle_ = r.u64();
  skipped_backups_ = r.u64();
}

}  // namespace rps::core
