#include "src/core/flex_tlc_ftl.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/serialize.hpp"

namespace rps::core {

namespace {
constexpr double kBgcFreeThreshold = 0.10;
}

FlexTlcFtl::FlexTlcFtl(const TlcFtlConfig& config)
    : config_(config),
      device_(config.geometry, config.timing, nand::SequenceKind::kRps),
      chips_(config.geometry.num_units()),
      rotate_(config.geometry.num_units(), 0) {
  assert(config.geometry.bits_per_cell == 3);
  const auto exported = static_cast<Lpn>(
      std::floor(static_cast<double>(config.geometry.total_pages()) *
                 (1.0 - config.overprovisioning)));
  mapping_.resize(exported);
  const auto lsb_pages = static_cast<double>(config.geometry.num_units()) *
                         config.geometry.blocks_per_chip *
                         config.geometry.wordlines_per_block;
  initial_quota_ =
      static_cast<std::int64_t>(lsb_pages * config.initial_quota_fraction);
  quota_ = initial_quota_;
  for (ChipState& cs : chips_) {
    cs.use.assign(config.geometry.blocks_per_chip, Use::kFree);
    cs.valid.assign(config.geometry.blocks_per_chip, 0);
    cs.written.assign(config.geometry.blocks_per_chip, 0);
    for (std::uint32_t b = 0; b < config.geometry.blocks_per_chip; ++b) {
      cs.free.push_back(b);
    }
  }
}

nand::PageImage FlexTlcFtl::zeroed_parity() {
  nand::PageImage d;
  d.record.lpn = 0;
  return d;
}

std::uint64_t FlexTlcFtl::make_signature(Lpn lpn) {
  std::uint64_t x = lpn * 0x9e3779b97f4a7c15ull + (++write_version_);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 31);
}

std::uint32_t FlexTlcFtl::pick_chip() {
  // Headroom-based placement with round-robin tie-breaking (the same
  // balance rule as the MLC FtlBase; see DESIGN.md).
  const std::uint32_t chips = device_.geometry().num_units();
  const std::uint64_t chip_pages =
      static_cast<std::uint64_t>(device_.geometry().blocks_per_chip) *
      device_.geometry().pages_per_block();
  const std::uint32_t start = rr_chip_++ % chips;
  std::uint32_t best = start;
  std::uint64_t best_headroom = 0;
  for (std::uint32_t i = 0; i < chips; ++i) {
    const std::uint32_t chip = (start + i) % chips;
    std::uint64_t valid = 0;
    for (const std::uint32_t v : chips_[chip].valid) valid += v;
    const std::uint64_t headroom = chip_pages - valid;
    if (i == 0 || headroom > best_headroom) {
      best = chip;
      best_headroom = headroom;
    }
  }
  return best;
}

Result<std::uint32_t> FlexTlcFtl::allocate(std::uint32_t chip, Use use,
                                           std::uint32_t reserve) {
  ChipState& cs = chips_.at(chip);
  if (cs.free.size() <= reserve) return ErrorCode::kNoFreeBlock;
  const std::uint32_t block = cs.free.front();
  cs.free.pop_front();
  cs.use[block] = use;
  cs.valid[block] = 0;
  cs.written[block] = 0;
  return block;
}

void FlexTlcFtl::release(std::uint32_t chip, std::uint32_t block) {
  ChipState& cs = chips_.at(chip);
  assert(cs.valid[block] == 0);
  cs.use[block] = Use::kFree;
  cs.free.push_back(block);
}

void FlexTlcFtl::commit_mapping(Lpn lpn, const nand::PageAddress& addr) {
  unmap(lpn);
  mapping_[lpn] = addr;
  ++chips_[addr.chip].valid[addr.block];
}

void FlexTlcFtl::unmap(Lpn lpn) {
  if (const std::optional<nand::PageAddress>& old = mapping_[lpn]) {
    assert(chips_[old->chip].valid[old->block] > 0);
    --chips_[old->chip].valid[old->block];
    mapping_[lpn].reset();
  }
}

Microseconds FlexTlcFtl::flush_parity(std::uint32_t chip, std::uint32_t block,
                                      const nand::PageImage& acc, bool csb_pass,
                                      Microseconds now) {
  // Attribution: the parity program is protection overhead, not part of the
  // host or GC pass whose completion triggered the flush.
  const nand::CauseScope cause(device_, nand::WriteCause::kParity);
  ChipState& cs = chips_.at(chip);
  if (!cs.backup) {
    // Never take the final free block: garbage collection depends on it as
    // a relocation destination when every phase queue is empty.
    const Result<std::uint32_t> fresh = allocate(chip, Use::kBackup, /*reserve=*/1);
    if (!fresh.is_ok()) return now;  // unprotected; recovery reports losses
    cs.backup = BackupBlock{fresh.value(), 0, 0};
  }
  const nand::PageAddress dst{chip, cs.backup->block,
                              {cs.backup->next_lsb, nand::PageType::kLsb}};
  nand::PageData parity = acc.record;
  parity.spare = static_cast<std::uint64_t>(block) | nand::kNonHostSpareFlag;
  const nand::PayloadPin payload(device_.payloads(), parity.signature, acc.bytes);
  const Result<nand::OpTiming> timing = device_.program(dst, parity, now);
  assert(timing.is_ok());
  ++cs.backup->next_lsb;
  ++cs.backup->live_pages;
  ++stats_.backup_pages;
  (csb_pass ? cs.csb_parity : cs.lsb_parity)[block] = dst;
  if (cs.backup->next_lsb >= device_.geometry().wordlines_per_block) {
    cs.retiring.push_back(*cs.backup);
    cs.backup.reset();
  }
  return timing.value().complete;
}

void FlexTlcFtl::drop_backup_reference(std::uint32_t chip, std::uint32_t backup_block,
                                       Microseconds now) {
  ChipState& cs = chips_.at(chip);
  if (cs.backup && cs.backup->block == backup_block) {
    --cs.backup->live_pages;
    return;
  }
  for (auto it = cs.retiring.begin(); it != cs.retiring.end(); ++it) {
    if (it->block != backup_block) continue;
    if (--it->live_pages == 0) {
      // The recycled backup block's erase is parity overhead too.
      const nand::CauseScope cause(device_, nand::WriteCause::kParity);
      const Result<nand::OpTiming> erased = device_.erase({chip, backup_block}, now);
      assert(erased.is_ok());
      (void)erased;
      release(chip, backup_block);
      cs.retiring.erase(it);
    }
    return;
  }
}

void FlexTlcFtl::invalidate_parities(std::uint32_t chip, std::uint32_t block,
                                     Microseconds now) {
  ChipState& cs = chips_.at(chip);
  for (auto* map : {&cs.lsb_parity, &cs.csb_parity}) {
    const auto it = map->find(block);
    if (it == map->end()) continue;
    drop_backup_reference(chip, it->second.block, now);
    map->erase(it);
  }
  cs.csb_acc.erase(block);
}

Result<Microseconds> FlexTlcFtl::write_pass(std::uint32_t chip, nand::PageType pass,
                                            Lpn lpn, nand::PageData data,
                                            Microseconds now, bool gc) {
  ChipState& cs = chips_.at(chip);
  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;

  std::uint32_t block = 0;
  switch (pass) {
    case nand::PageType::kLsb: {
      if (!cs.fast) {
        Result<std::uint32_t> fresh =
            allocate(chip, Use::kActive, gc ? 0 : config_.gc_reserve_blocks);
        if (!fresh.is_ok() && !gc) {
          const Status freed = ensure_free_block(chip, now);
          if (!freed.is_ok() && !cs.fast) return freed.code();
          if (!cs.fast) fresh = allocate(chip, Use::kActive, 0);
        }
        if (!cs.fast) {
          if (!fresh.is_ok()) return fresh.code();
          cs.fast = fresh.value();
          cs.lsb_acc = zeroed_parity();
        }
      }
      block = *cs.fast;
      break;
    }
    case nand::PageType::kCsb:
      if (cs.csb_queue.empty()) return ErrorCode::kNoFreePage;
      block = cs.csb_queue.front();
      break;
    case nand::PageType::kMsb:
      if (cs.msb_queue.empty()) return ErrorCode::kNoFreePage;
      block = cs.msb_queue.front();
      break;
  }

  const nand::Block& device_block = device_.block({chip, block});
  const std::optional<nand::PagePos> pos = device_block.next_in_pass(pass);
  assert(pos.has_value());
  const nand::PageAddress addr{chip, block, *pos};

  const std::span<const std::uint8_t> payload = device_.payloads().find(data.signature);
  if (pass == nand::PageType::kLsb) cs.lsb_acc.xor_with(data, payload);
  if (pass == nand::PageType::kCsb) {
    auto [it, inserted] = cs.csb_acc.try_emplace(block, zeroed_parity());
    it->second.xor_with(data, payload);
  }

  const Result<nand::OpTiming> timing = device_.program(addr, data, now);
  assert(timing.is_ok());
  ++chips_[chip].written[block];
  commit_mapping(lpn, addr);

  switch (pass) {
    case nand::PageType::kLsb:
      --quota_;
      if (!gc) ++stats_.host_writes_by_pass[0];
      if (device_block.programmed_in_pass(nand::PageType::kLsb) >= wordlines) {
        // Fast phase complete: flush the LSB parity, hand to the CSB queue.
        flush_parity(chip, block, cs.lsb_acc, /*csb_pass=*/false,
                     timing.value().complete);
        cs.csb_queue.push_back(block);
        cs.fast.reset();
      }
      break;
    case nand::PageType::kCsb:
      if (!gc) ++stats_.host_writes_by_pass[1];
      if (device_block.programmed_in_pass(nand::PageType::kCsb) >= wordlines) {
        const auto acc = cs.csb_acc.find(block);
        assert(acc != cs.csb_acc.end());
        flush_parity(chip, block, acc->second, /*csb_pass=*/true,
                     timing.value().complete);
        cs.csb_queue.pop_front();
        cs.msb_queue.push_back(block);
      }
      break;
    case nand::PageType::kMsb:
      quota_ = std::min(quota_ + 1, initial_quota_);
      if (!gc) ++stats_.host_writes_by_pass[2];
      if (device_block.is_fully_programmed()) {
        cs.msb_queue.pop_front();
        cs.use[block] = Use::kFull;
        invalidate_parities(chip, block, timing.value().complete);
      }
      break;
  }
  return timing.value().complete;
}

Result<Microseconds> FlexTlcFtl::write(Lpn lpn, Microseconds now,
                                       double buffer_utilization) {
  return write_data(lpn, {}, now, buffer_utilization);
}

Result<Microseconds> FlexTlcFtl::write_data(Lpn lpn, const std::vector<std::uint8_t>& bytes,
                                            Microseconds now,
                                            double buffer_utilization) {
  if (lpn >= mapping_.size()) return ErrorCode::kOutOfRange;
  nand::PageData data;
  data.lpn = lpn;
  data.signature = make_signature(lpn);
  data.version = write_version_;
  // The payload lives in the device's table under the write's signature
  // (pinned until the pass program stores the page).
  const nand::PayloadPin pin(device_.payloads(), data.signature, bytes);
  const std::uint32_t chip = pick_chip();
  ChipState& cs = chips_.at(chip);

  // Pass selection (the MLC policy generalized to three passes).
  const bool has_c = !cs.csb_queue.empty();
  const bool has_m = !cs.msb_queue.empty();
  nand::PageType pass = nand::PageType::kLsb;
  if (buffer_utilization > config_.u_high && quota_ > 0) {
    pass = nand::PageType::kLsb;
  } else if (buffer_utilization < config_.u_low) {
    pass = has_m ? nand::PageType::kMsb
                 : (has_c ? nand::PageType::kCsb : nand::PageType::kLsb);
  } else {
    // Rotate L -> C -> M, skipping phases with no open block.
    for (int i = 0; i < 3; ++i) {
      const std::uint8_t r = rotate_[chip]++ % 3;
      if (r == 0) break;  // LSB always available (allocates)
      if (r == 1 && has_c) {
        pass = nand::PageType::kCsb;
        break;
      }
      if (r == 2 && has_m) {
        pass = nand::PageType::kMsb;
        break;
      }
    }
  }
  // Block-pool feedback: don't burn the last free blocks on LSB when
  // mid/slow capacity is banked in the queues.
  if (pass == nand::PageType::kLsb && !cs.fast &&
      cs.free.size() <= config_.gc_reserve_blocks + 1 && (has_c || has_m)) {
    pass = has_m ? nand::PageType::kMsb : nand::PageType::kCsb;
  }
  // Attribution: the pass program is host work; nested scopes re-tag any
  // parity flush or foreground GC it triggers.
  const Result<Microseconds> done = [&] {
    const nand::CauseScope cause(device_, nand::WriteCause::kHost);
    return write_pass(chip, pass, lpn, data, now, /*gc=*/false);
  }();
  if (done.is_ok()) ++stats_.host_write_pages;
  return done;
}

Result<nand::PageImage> FlexTlcFtl::read_data(Lpn lpn, Microseconds now) {
  if (lpn >= mapping_.size()) return ErrorCode::kOutOfRange;
  if (!mapping_[lpn]) return ErrorCode::kNotFound;
  Result<nand::NandDevice::ReadResult> got = device_.read(*mapping_[lpn], now);
  assert(got.is_ok());
  if (!got.value().data.is_ok()) return got.value().data.code();
  return device_.payloads().image(got.value().data.value());
}

Result<Microseconds> FlexTlcFtl::program_gc_copy(std::uint32_t chip, Lpn lpn,
                                                 nand::PageData data,
                                                 Microseconds now) {
  ChipState& cs = chips_.at(chip);
  if (!cs.msb_queue.empty()) {
    return write_pass(chip, nand::PageType::kMsb, lpn, std::move(data), now, true);
  }
  if (!cs.csb_queue.empty()) {
    return write_pass(chip, nand::PageType::kCsb, lpn, std::move(data), now, true);
  }
  return write_pass(chip, nand::PageType::kLsb, lpn, std::move(data), now, true);
}

std::optional<std::uint32_t> FlexTlcFtl::pick_victim(std::uint32_t chip) const {
  const ChipState& cs = chips_.at(chip);
  std::optional<std::uint32_t> best;
  std::uint32_t best_invalid = 0;
  for (std::uint32_t b = 0; b < cs.use.size(); ++b) {
    if (cs.use[b] != Use::kFull) continue;
    const std::uint32_t invalid = cs.written[b] - cs.valid[b];
    if (invalid > best_invalid) {
      best_invalid = invalid;
      best = b;
    }
  }
  return best;
}

bool FlexTlcFtl::collect_block(std::uint32_t chip, std::uint32_t victim,
                               Microseconds now, Microseconds deadline) {
  // Attribution: relocation reads/copies and the victim erase are GC work
  // regardless of which path (host pressure or idle) requested them.
  const nand::CauseScope cause(device_, nand::WriteCause::kGcCopy);
  const nand::Block& block = device_.block({chip, victim});
  for (std::uint32_t wl = 0; wl < block.wordlines(); ++wl) {
    for (const nand::PageType pass :
         {nand::PageType::kLsb, nand::PageType::kCsb, nand::PageType::kMsb}) {
      const nand::PagePos pos{wl, pass};
      if (block.page_state(pos) != nand::PageState::kValid) continue;
      const nand::PageAddress addr{chip, victim, pos};
      const Lpn lpn = block.read(pos).value().lpn;
      if (lpn >= mapping_.size() || !mapping_[lpn] || !(*mapping_[lpn] == addr)) {
        continue;
      }
      if (device_.chip(chip).busy_until() >= deadline) return false;
      Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
      assert(got.is_ok());
      if (!got.value().data.is_ok()) continue;
      Result<Microseconds> copied =
          program_gc_copy(chip, lpn, std::move(got.value().data).take(),
                          got.value().timing.complete);
      if (!copied.is_ok()) return false;
      ++stats_.gc_copy_pages;
    }
  }
  if (chips_[chip].valid[victim] != 0) return false;
  const Result<nand::OpTiming> erased = device_.erase({chip, victim}, now);
  assert(erased.is_ok());
  (void)erased;
  release(chip, victim);
  ++stats_.gc_blocks;
  return true;
}

Status FlexTlcFtl::ensure_free_block(std::uint32_t chip, Microseconds now) {
  while (chips_[chip].free.size() <= config_.gc_reserve_blocks) {
    const std::optional<std::uint32_t> victim = pick_victim(chip);
    if (!victim) return Status{ErrorCode::kNoFreeBlock};
    if (!collect_block(chip, *victim, now, kTimeNever)) {
      return Status{ErrorCode::kNoFreeBlock};
    }
  }
  return Status::ok();
}

void FlexTlcFtl::on_idle(Microseconds now, Microseconds deadline) {
  deadline -= 2 * config_.timing.program_msb_us;  // spill guard
  if (deadline <= now) return;
  const std::uint32_t blocks = device_.geometry().blocks_per_chip;
  const std::uint32_t pages = device_.geometry().pages_per_block();
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    while (device_.chip(chip).busy_until() < deadline) {
      const double free_fraction =
          static_cast<double>(chips_[chip].free.size()) / blocks;
      const bool need_space = free_fraction < kBgcFreeThreshold;
      const bool need_quota = quota_ < initial_quota_;
      if (!need_space && !need_quota) break;
      const std::optional<std::uint32_t> victim = pick_victim(chip);
      if (!victim) break;
      // Yield guard, as in the MLC base.
      if (chips_[chip].written[*victim] - chips_[chip].valid[*victim] < pages / 4 &&
          !need_space) {
        break;
      }
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      if (!collect_block(chip, *victim, start, deadline)) break;
    }
  }
}

std::optional<Lpn> FlexTlcFtl::find_lpn_of(const nand::PageAddress& addr) const {
  for (Lpn lpn = 0; lpn < mapping_.size(); ++lpn) {
    if (mapping_[lpn] && *mapping_[lpn] == addr) return lpn;
  }
  return std::nullopt;
}

TlcRecoveryReport FlexTlcFtl::recover_from_power_loss(
    const std::vector<nand::PowerLossVictim>& victims, Microseconds now) {
  TlcRecoveryReport report;
  // Attribution: reboot-time parity checks and rewrites are recovery
  // metadata work, not host traffic.
  const nand::CauseScope cause(device_, nand::WriteCause::kMeta);

  // The cut voided every erase charged past it, so a free block may still
  // hold media. Its pages are stale (a block is freed only once nothing
  // maps into it), and programs validate against erased state: erase it
  // before a rewrite below can allocate it.
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    for (std::uint32_t b = 0; b < chips_[chip].use.size(); ++b) {
      if (chips_[chip].use[b] != Use::kFree || device_.block({chip, b}).is_erased()) {
        continue;
      }
      const Result<nand::OpTiming> erased = device_.erase({chip, b}, now);
      assert(erased.is_ok());
      (void)erased;
    }
  }

  // Interrupted, unacknowledged writes roll back.
  for (const nand::PowerLossVictim& victim : victims) {
    if (const std::optional<Lpn> lpn = find_lpn_of({victim.chip, victim.block, victim.pos})) {
      unmap(*lpn);
      ++report.interrupted_writes_discarded;
    }
  }

  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;
  for (std::uint32_t chip = 0; chip < chips_.size(); ++chip) {
    ChipState& cs = chips_[chip];

    // A pass in flight can only have damaged blocks in the CSB/MSB queues.
    // Check each queued block's lower passes against their parity pages.
    auto recover_pass = [&](std::uint32_t blk, nand::PageType pass,
                            std::unordered_map<std::uint32_t, nand::PageAddress>& parity_map,
                            std::uint32_t pages_in_pass) {
      nand::PageImage recomputed = zeroed_parity();
      std::optional<nand::PagePos> lost;
      for (std::uint32_t wl = 0; wl < pages_in_pass; ++wl) {
        const nand::PageAddress addr{chip, blk, {wl, pass}};
        Result<nand::NandDevice::ReadResult> got = device_.read(addr, now);
        assert(got.is_ok());
        ++report.pages_read;
        if (got.value().data.is_ok()) {
          const nand::PageData& page = got.value().data.value();
          recomputed.xor_with(page, device_.payloads().find(page.signature));
        } else {
          lost = addr.pos;
        }
      }
      if (!lost) return;
      const nand::PageAddress lost_addr{chip, blk, *lost};
      const auto parity_it = parity_map.find(blk);
      if (parity_it == parity_map.end()) {
        if (const std::optional<Lpn> lpn = find_lpn_of(lost_addr)) {
          unmap(*lpn);
          ++report.pages_lost;
        }
        return;
      }
      Result<nand::NandDevice::ReadResult> saved = device_.read(parity_it->second, now);
      assert(saved.is_ok());
      ++report.parity_pages_read;
      if (!saved.value().data.is_ok()) return;  // parity itself interrupted
      nand::PageImage recovered = device_.payloads().image(saved.value().data.value());
      recovered.xor_with(recomputed);
      recovered.record.spare = 0;
      const Lpn lpn = recovered.record.lpn;
      if (lpn >= mapping_.size() || !mapping_[lpn] || !(*mapping_[lpn] == lost_addr)) {
        return;  // stale data; nothing to restore
      }
      const nand::PayloadPin payload(device_.payloads(), recovered.record.signature,
                                     recovered.bytes);
      if (program_gc_copy(chip, lpn, recovered.record, now).is_ok()) {
        ++report.pages_recovered;
      } else {
        unmap(lpn);
        ++report.pages_lost;
      }
    };

    const std::vector<std::uint32_t> csb_blocks(cs.csb_queue.begin(),
                                                cs.csb_queue.end());
    for (const std::uint32_t blk : csb_blocks) {
      ++report.blocks_checked;
      recover_pass(blk, nand::PageType::kLsb, cs.lsb_parity, wordlines);
    }
    const std::vector<std::uint32_t> msb_blocks(cs.msb_queue.begin(),
                                                cs.msb_queue.end());
    for (const std::uint32_t blk : msb_blocks) {
      ++report.blocks_checked;
      recover_pass(blk, nand::PageType::kLsb, cs.lsb_parity, wordlines);
      recover_pass(blk, nand::PageType::kCsb, cs.csb_parity, wordlines);
    }

    // Rebuild the in-RAM accumulators of the open passes.
    auto rebuild = [&](std::uint32_t blk, nand::PageType pass) {
      nand::PageImage acc = zeroed_parity();
      const std::uint32_t written = device_.block({chip, blk}).programmed_in_pass(pass);
      for (std::uint32_t wl = 0; wl < written; ++wl) {
        const Result<nand::NandDevice::ReadResult> got =
            device_.read({chip, blk, {wl, pass}}, now);
        ++report.pages_read;
        if (!got.value().data.is_ok()) continue;
        const nand::PageData& page = got.value().data.value();
        acc.xor_with(page, device_.payloads().find(page.signature));
      }
      return acc;
    };
    if (cs.fast) cs.lsb_acc = rebuild(*cs.fast, nand::PageType::kLsb);
    if (!cs.csb_queue.empty()) {
      cs.csb_acc[cs.csb_queue.front()] = rebuild(cs.csb_queue.front(), nand::PageType::kCsb);
    }
  }

  // A victim also destroyed the lower passes of its word line. The parity
  // check above restored those of blocks still in a phase queue, but a
  // final MSB program leaves its block full, with its parity dropped, the
  // moment it is issued. Any such page still mapped is lost.
  const std::uint32_t bits = device_.geometry().bits_per_cell;
  for (const nand::PowerLossVictim& victim : victims) {
    for (std::uint32_t p = 0; p < nand::pass_of(victim.pos.type, bits); ++p) {
      const nand::PageAddress addr{victim.chip, victim.block,
                                   {victim.pos.wordline, nand::type_of_pass(p, bits)}};
      if (device_.block({addr.chip, addr.block}).page_state(addr.pos) ==
          nand::PageState::kValid) {
        continue;
      }
      if (const std::optional<Lpn> lpn = find_lpn_of(addr)) {
        unmap(*lpn);
        ++report.pages_lost;
      }
    }
  }
  return report;
}

bool FlexTlcFtl::check_consistency() const {
  std::uint64_t valid_total = 0;
  for (const ChipState& cs : chips_) {
    for (const std::uint32_t v : cs.valid) valid_total += v;
  }
  std::uint64_t mapped = 0;
  for (const auto& entry : mapping_) {
    if (!entry) continue;
    ++mapped;
    if (device_.chip(entry->chip).block(entry->block).page_state(entry->pos) ==
        nand::PageState::kErased) {
      return false;
    }
  }
  return valid_total == mapped;
}

namespace {

void save_address(ser::Writer& w, const nand::PageAddress& addr) {
  w.u32(addr.chip);
  w.u32(addr.block);
  w.u32(addr.pos.wordline);
  w.u8(static_cast<std::uint8_t>(addr.pos.type));
}

/// Reads a page address; fails the reader unless it names a page of `g`.
nand::PageAddress load_address(ser::Reader& r, const nand::Geometry& g) {
  nand::PageAddress addr;
  addr.chip = r.u32();
  addr.block = r.u32();
  addr.pos.wordline = r.u32();
  const std::uint8_t type = r.u8();
  addr.pos.type = static_cast<nand::PageType>(type);
  if (addr.chip >= g.num_units() || addr.block >= g.blocks_per_chip ||
      addr.pos.wordline >= g.wordlines_per_block ||
      type > static_cast<std::uint8_t>(nand::PageType::kCsb)) {
    r.fail();
  }
  return addr;
}

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

}  // namespace

void FlexTlcFtl::save_state(ser::Writer& w) const {
  device_.save(w);
  w.u64(mapping_.size());
  for (const std::optional<nand::PageAddress>& entry : mapping_) {
    w.boolean(entry.has_value());
    if (entry) save_address(w, *entry);
  }
  w.u64(chips_.size());
  for (const ChipState& chip : chips_) {
    w.u64(chip.free.size());
    for (const std::uint32_t b : chip.free) w.u32(b);
    w.boolean(chip.fast.has_value());
    w.u32(chip.fast.value_or(0));
    w.u64(chip.csb_queue.size());
    for (const std::uint32_t b : chip.csb_queue) w.u32(b);
    w.u64(chip.msb_queue.size());
    for (const std::uint32_t b : chip.msb_queue) w.u32(b);
    w.u64(chip.use.size());
    for (const Use u : chip.use) w.u8(static_cast<std::uint8_t>(u));
    w.u64(chip.valid.size());
    for (const std::uint32_t v : chip.valid) w.u32(v);
    w.u64(chip.written.size());
    for (const std::uint32_t v : chip.written) w.u32(v);
    nand::save(w, chip.lsb_acc);
    // Canonical byte stream: hash maps are emitted sorted by block key.
    std::vector<std::uint32_t> acc_keys;
    acc_keys.reserve(chip.csb_acc.size());
    for (const auto& [block, acc] : chip.csb_acc) acc_keys.push_back(block);
    std::sort(acc_keys.begin(), acc_keys.end());
    w.u64(acc_keys.size());
    for (const std::uint32_t block : acc_keys) {
      w.u32(block);
      nand::save(w, chip.csb_acc.at(block));
    }
    for (const auto* parity : {&chip.lsb_parity, &chip.csb_parity}) {
      std::vector<std::pair<std::uint32_t, nand::PageAddress>> entries(parity->begin(),
                                                                      parity->end());
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      w.u64(entries.size());
      for (const auto& [block, addr] : entries) {
        w.u32(block);
        save_address(w, addr);
      }
    }
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
  }
  w.u64(stats_.host_write_pages);
  for (const std::uint64_t n : stats_.host_writes_by_pass) w.u64(n);
  w.u64(stats_.gc_copy_pages);
  w.u64(stats_.backup_pages);
  w.u64(stats_.gc_blocks);
  w.i64(quota_);
  w.i64(initial_quota_);
  w.u64(rotate_.size());
  for (const std::uint8_t t : rotate_) w.u8(t);
  w.u32(rr_chip_);
  w.u64(write_version_);
}

void FlexTlcFtl::load_state(ser::Reader& r) {
  // Every block index, page address and count restored here later indexes
  // an array (allocation, GC, parity flushes, recovery): out-of-range
  // values fail the reader even when the stream's checksum holds.
  const nand::Geometry& g = device_.geometry();
  const std::uint32_t blocks = g.blocks_per_chip;
  const std::uint32_t wordlines = g.wordlines_per_block;
  device_.load(r);
  if (r.u64() != mapping_.size()) {
    r.fail();
    return;
  }
  for (std::optional<nand::PageAddress>& entry : mapping_) {
    entry.reset();
    if (r.boolean()) entry = load_address(r, g);
    if (!r.ok()) return;
  }
  if (r.u64() != chips_.size()) {
    r.fail();
    return;
  }
  auto load_blocks = [&](std::deque<std::uint32_t>& out) {
    out.clear();
    const std::uint64_t n = load_count(r);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(load_block(r, blocks));
  };
  auto load_backup = [&](std::uint32_t max_next) {
    BackupBlock b;
    b.block = load_block(r, blocks);
    b.next_lsb = r.u32();
    b.live_pages = r.u32();
    if (b.next_lsb > max_next) r.fail();
    return b;
  };
  for (ChipState& chip : chips_) {
    load_blocks(chip.free);
    const bool has_fast = r.boolean();
    const std::uint32_t fast = has_fast ? load_block(r, blocks) : r.u32();
    chip.fast = has_fast ? std::optional<std::uint32_t>(fast) : std::nullopt;
    load_blocks(chip.csb_queue);
    load_blocks(chip.msb_queue);
    if (r.u64() != chip.use.size()) {
      r.fail();
      return;
    }
    for (Use& u : chip.use) {
      const std::uint8_t raw = r.u8();
      if (raw > static_cast<std::uint8_t>(Use::kBackup)) {
        r.fail();
        return;
      }
      u = static_cast<Use>(raw);
    }
    for (std::vector<std::uint32_t>* counts : {&chip.valid, &chip.written}) {
      if (r.u64() != counts->size()) {
        r.fail();
        return;
      }
      for (std::uint32_t& v : *counts) {
        v = r.u32();
        if (v > g.pages_per_block()) r.fail();
      }
    }
    nand::load(r, chip.lsb_acc);
    chip.csb_acc.clear();
    const std::uint64_t accs = load_count(r);
    for (std::uint64_t i = 0; i < accs && r.ok(); ++i) {
      const std::uint32_t block = load_block(r, blocks);
      nand::PageImage acc;
      nand::load(r, acc);
      chip.csb_acc.emplace(block, std::move(acc));
    }
    for (auto* parity : {&chip.lsb_parity, &chip.csb_parity}) {
      parity->clear();
      const std::uint64_t entries = load_count(r);
      parity->reserve(static_cast<std::size_t>(entries));
      for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
        const std::uint32_t block = load_block(r, blocks);
        parity->emplace(block, load_address(r, g));
      }
    }
    chip.backup.reset();
    // The active backup block is retired on reaching its last word line.
    if (r.boolean()) chip.backup = load_backup(wordlines - 1);
    chip.retiring.clear();
    const std::uint64_t retiring = load_count(r);
    chip.retiring.reserve(static_cast<std::size_t>(retiring));
    for (std::uint64_t i = 0; i < retiring && r.ok(); ++i) {
      chip.retiring.push_back(load_backup(wordlines));
    }
    if (!r.ok()) return;
  }
  stats_.host_write_pages = r.u64();
  for (std::uint64_t& n : stats_.host_writes_by_pass) n = r.u64();
  stats_.gc_copy_pages = r.u64();
  stats_.backup_pages = r.u64();
  stats_.gc_blocks = r.u64();
  quota_ = r.i64();
  initial_quota_ = r.i64();
  if (r.u64() != rotate_.size()) {
    r.fail();
    return;
  }
  for (std::uint8_t& t : rotate_) t = r.u8();
  rr_chip_ = r.u32();
  write_version_ = r.u64();
}

}  // namespace rps::core
