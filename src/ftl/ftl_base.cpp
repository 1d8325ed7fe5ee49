#include "src/ftl/ftl_base.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/trace.hpp"
#include "src/util/serialize.hpp"

namespace rps::ftl {

Lpn FtlBase::compute_exported_pages(const FtlConfig& config) {
  // Spare blocks reserved for bad-block remapping are not FTL-addressable
  // and never back exported capacity. With no reservation this is exactly
  // geometry.total_pages().
  const nand::Geometry& g = config.geometry;
  const std::uint64_t visible_blocks =
      g.blocks_per_chip - config.bad_blocks.spare_blocks_per_unit;
  const auto total = static_cast<double>(static_cast<std::uint64_t>(g.num_units()) *
                                         visible_blocks * g.pages_per_block());
  return static_cast<Lpn>(
      std::floor(total * (1.0 - config.overprovisioning) * config.capacity_factor));
}

FtlBase::FtlBase(const FtlConfig& config, nand::SequenceKind kind)
    : config_(config),
      device_(config.geometry, config.timing, kind, config.bad_blocks),
      mapping_(compute_exported_pages(config), config.geometry),
      blocks_(config.geometry.num_units(), device_.visible_blocks(),
              config.geometry.pages_per_block()) {
  // MLC or TLC; flexFTL is the one policy that runs on both (the others
  // assert two bits in their own constructors).
  assert(config.geometry.bits_per_cell == 2 || config.geometry.bits_per_cell == 3);
  // Factory-bad visible blocks the device could not remap are dead on
  // arrival: drop them from the pools before any allocation happens.
  for (std::uint32_t u = 0; u < config.geometry.num_units(); ++u) {
    for (const std::uint32_t dead : device_.bad_blocks().dead_visible_blocks(u)) {
      blocks_.retire({u, dead});
      ++stats_.retired_blocks;
    }
  }
  // Grown-bad lifecycle events surface through the device as they happen.
  device_.set_bad_block_listener([this](const nand::BadBlockEvent& event) {
    if (event.new_physical >= 0) {
      ++stats_.remapped_blocks;
    } else {
      ++stats_.retired_blocks;
    }
    if (trace_ != nullptr) {
      trace_->record(event.new_physical >= 0 ? obs::EventKind::kBlockRemapped
                                             : obs::EventKind::kBlockRetired,
                     event.unit + 1, event.now, -1, event.visible_block,
                     event.old_physical,
                     event.new_physical >= 0
                         ? static_cast<std::uint64_t>(event.new_physical)
                         : static_cast<std::uint64_t>(event.cause));
    }
  });
}

std::uint64_t FtlBase::make_signature(Lpn lpn) {
  // splitmix64-style mix of (lpn, version) — unique per write.
  std::uint64_t x = lpn * 0x9e3779b97f4a7c15ull + (++write_version_);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Result<HostOp> FtlBase::host_program(std::uint32_t chip, Lpn lpn,
                                     std::span<const std::uint8_t> payload,
                                     Microseconds now, double buffer_utilization,
                                     std::uint32_t stream) {
  nand::PageData data;
  data.lpn = lpn;
  data.signature = make_signature(lpn);
  data.version = write_version_;
  data.spare = stream & nand::kStreamSpareMask;
  // A payload rides in the device's table under the write's signature:
  // the pin keeps it until the policy has programmed the page, and every
  // copy of the page (GC, backup, parity) finds it by the same signature.
  const nand::PayloadPin pin(device_.payloads(), data.signature, payload);
  current_stream_ = stream;
  // Attribution: everything the policy does to place this page — the
  // program itself plus any synchronous backup the policy wraps around
  // it — is host-caused unless a narrower scope (parity flush, GC)
  // re-tags its own ops.
  const Result<Microseconds> done = [&] {
    const nand::CauseScope scope(device_, nand::WriteCause::kHost);
    return allocate_host_page(chip, lpn, data, now, buffer_utilization);
  }();
  current_stream_ = 0;
  if (!done.is_ok()) return done.code();
  ++stats_.host_write_pages;
  incremental_gc(now);
  return HostOp{done.value()};
}

Result<HostOp> FtlBase::write(Lpn lpn, Microseconds now, double buffer_utilization) {
  if (lpn >= mapping_.exported_pages()) return ErrorCode::kOutOfRange;
  return host_program(pick_chip(), lpn, {}, now, buffer_utilization, /*stream=*/0);
}

Result<HostOp> FtlBase::write_on(std::uint32_t chip, Lpn lpn, Microseconds now,
                                 double buffer_utilization, std::uint32_t stream) {
  if (lpn >= mapping_.exported_pages()) return ErrorCode::kOutOfRange;
  if (chip >= device_.geometry().num_units()) return ErrorCode::kOutOfRange;
  return host_program(chip, lpn, {}, now, buffer_utilization, stream);
}

Result<HostOp> FtlBase::write_data(Lpn lpn, const std::vector<std::uint8_t>& bytes,
                                   Microseconds now, double buffer_utilization) {
  if (lpn >= mapping_.exported_pages()) return ErrorCode::kOutOfRange;
  return host_program(pick_chip(), lpn, bytes, now, buffer_utilization, /*stream=*/0);
}

Result<HostOp> FtlBase::read(Lpn lpn, Microseconds now) {
  if (lpn >= mapping_.exported_pages()) return ErrorCode::kOutOfRange;
  const Result<nand::PageAddress> addr = mapping_.lookup(lpn);
  ++stats_.host_read_pages;
  if (!addr.is_ok()) {
    // Never-written page: zero-fill, satisfied without touching the device.
    ++stats_.unmapped_reads;
    return HostOp{now};
  }
  // A host read moves no data through the model: the sensing outcome and
  // its timing are all it needs, so the page's record is never copied.
  const Result<nand::NandDevice::SenseResult> sensed = device_.sense(addr.value(), now);
  assert(sensed.is_ok());
  if (!sensed.value().status.is_ok()) {
    ++stats_.read_errors;
    return sensed.value().status.code();
  }
  return HostOp{sensed.value().timing.complete};
}

Result<nand::PageImage> FtlBase::read_data(Lpn lpn, Microseconds now,
                                           Microseconds* complete) {
  if (complete != nullptr) *complete = now;
  if (lpn >= mapping_.exported_pages()) return ErrorCode::kOutOfRange;
  const Result<nand::PageAddress> addr = mapping_.lookup(lpn);
  if (!addr.is_ok()) {
    ++stats_.unmapped_reads;
    return ErrorCode::kNotFound;
  }
  Result<nand::NandDevice::ReadResult> got = device_.read(addr.value(), now);
  assert(got.is_ok());
  if (complete != nullptr) *complete = got.value().timing.complete;
  if (!got.value().data.is_ok()) {
    ++stats_.read_errors;
    return got.value().data.code();
  }
  return device_.payloads().image(got.value().data.value());
}

void FtlBase::commit_mapping(Lpn lpn, const nand::PageAddress& addr) {
  const nand::BlockAddress block{addr.chip, addr.block};
  blocks_.add_written(block);
  const std::optional<nand::PageAddress> old = mapping_.update(lpn, addr);
  if (old) blocks_.remove_valid({old->chip, old->block});
  blocks_.add_valid(block);
  if (placement_observer_) placement_observer_(lpn, addr);
}

bool FtlBase::collect_block(std::uint32_t chip, std::uint32_t victim, Microseconds now,
                            Microseconds deadline, bool background,
                            std::uint32_t max_copies, nand::WriteCause cause) {
  // Everything this collection does — copy reads, relocation programs,
  // the victim (and coalesced sibling) erases — is charged to `cause`:
  // kGcCopy by default, kWearLevel/kScrub when the wear leveler or
  // scrubber drives the collection.
  const nand::CauseScope scope(device_, cause);
  if (trace_ == nullptr) {
    return collect_block_impl(chip, victim, now, deadline, background, max_copies);
  }
  const std::uint64_t copies_before = stats_.gc_copy_pages;
  const bool freed = collect_block_impl(chip, victim, now, deadline, background, max_copies);
  const std::uint64_t copies = stats_.gc_copy_pages - copies_before;
  if (copies > 0 || freed) {
    // The migration occupies the chip from `now` to its post-GC busy time.
    const Microseconds busy = device_.chip(chip).busy_until();
    trace_->record(background ? obs::EventKind::kGcBackground
                              : obs::EventKind::kGcForeground,
                   chip + 1, now, std::max<Microseconds>(0, busy - now), victim,
                   copies, freed ? 1 : 0);
    if (freed) {
      trace_->record(obs::EventKind::kBlockReclaimed, chip + 1, now, -1, victim,
                     background ? 1 : 0);
    }
  }
  return freed;
}

bool FtlBase::collect_block_impl(std::uint32_t chip, std::uint32_t victim,
                                 Microseconds now, Microseconds deadline,
                                 bool background, std::uint32_t max_copies) {
  nand::Block& block = device_.block_mut({chip, victim});
  const nand::BlockAddress victim_addr{chip, victim};
  std::uint32_t copies = 0;
  // Resume where the last (budget-capped) scan of this block life left
  // off: everything below the cursor was invalid or already relocated,
  // and on a kFull block neither comes back short of a reboot, which
  // rewinds the cursor — a fresh scan would walk those pages only to
  // skip them.
  const std::uint32_t bits = block.bits();
  constexpr std::uint32_t kLookAhead = 8;
  for (std::uint32_t wl = blocks_.gc_cursor(victim_addr); wl < block.wordlines();
       ++wl) {
    blocks_.set_gc_cursor(victim_addr, wl);
    for (std::uint32_t pass = 0; pass < bits; ++pass) {
      if (blocks_.valid_pages(victim_addr) == 0) break;
      const nand::PagePos pos{wl, nand::type_of_pass(pass, bits)};
      if (block.page_state(pos) != nand::PageState::kValid) continue;
      const nand::PageAddress page_addr{chip, victim, pos};
      // Prefetch the mapping entry of the page kLookAhead slots on, so its
      // validity test finds it in cache. The hint counts no read.
      const std::uint32_t ahead = pos.flat_index(bits) + kLookAhead;
      if (ahead < block.num_pages()) mapping_.prefetch(block.lpn_hint(ahead));
      // Validity test: does the mapping still point here? (peek — the
      // record is copied only for pages that actually relocate)
      const nand::PageData* record = block.peek(pos);
      if (!mapping_.maps_to(record->lpn, page_addr)) continue;
      if (copies >= max_copies) return false;           // out of copy budget
      if (device_.chip(chip).busy_until() >= deadline) return false;  // out of idle budget
      // Charge the copy: the page's sensing, then an FTL-policy program
      // of the record the scan peeked. The page is intact (kValid above,
      // and block_mut settled any pending erase), so the sensing is too.
      const Result<nand::NandDevice::SenseResult> sensed = device_.sense(page_addr, now);
      assert(sensed.is_ok() && sensed.value().status.is_ok());
      Result<Microseconds> programmed = allocate_gc_page(
          chip, record->lpn, *record, sensed.value().timing.complete, background);
      if (!programmed.is_ok()) return false;  // destination exhausted; retry later
      ++stats_.gc_copy_pages;
      ++copies;
    }
  }
  if (blocks_.valid_pages(victim_addr) != 0) return false;
  // Multi-plane erase coalescing: sibling planes of the victim's die that
  // hold a fully-invalid full block at the same block offset can ride the
  // victim's erase inside one aligned multi-plane window. Pure win with
  // planes: the group's erase latency is paid once in wall-clock time.
  const nand::Geometry& geometry = device_.geometry();
  if (geometry.planes_per_chip > 1) {
    std::vector<nand::BlockAddress>& group = erase_group_;
    group.clear();
    group.push_back(victim_addr);
    const std::uint32_t die = geometry.chip_of_unit(chip);
    for (std::uint32_t p = 0; p < geometry.planes_per_chip; ++p) {
      const std::uint32_t sibling = geometry.unit_of(die, p);
      if (sibling == chip) continue;
      const nand::BlockAddress candidate{sibling, victim};
      if (blocks_.use(candidate) != BlockUse::kFull) continue;
      if (blocks_.valid_pages(candidate) != 0) continue;
      group.push_back(candidate);
    }
    if (group.size() > 1) {
      const Result<nand::OpTiming> erased = device_.multi_plane_erase(group, now);
      if (erased.is_ok()) {
        for (const nand::BlockAddress& member : group) {
          blocks_.release(member);
          if (member.chip != chip) {
            ++stats_.coalesced_erases;
            if (trace_ != nullptr) {
              trace_->record(obs::EventKind::kBlockReclaimed, member.chip + 1,
                             now, -1, member.block, background ? 1 : 0);
            }
          }
        }
        if (background) {
          ++stats_.background_gc_blocks;
        } else {
          ++stats_.foreground_gc_blocks;
        }
        return true;
      }
      // A group member hit kBlockBad: fall through to the single-block
      // path, which retires the victim if it is the one that died.
    }
  }
  const Result<nand::OpTiming> erased = erase_block(victim_addr, now);
  if (!erased.is_ok()) {
    assert(erased.code() == ErrorCode::kBlockBad);
    // The worn-out victim was retired instead of freed. Relocation still
    // emptied it, so GC made progress; the caller may pick a new victim.
    return true;
  }
  blocks_.release(victim_addr);
  if (background) {
    ++stats_.background_gc_blocks;
  } else {
    ++stats_.foreground_gc_blocks;
  }
  return true;
}

Result<nand::OpTiming> FtlBase::erase_block(const nand::BlockAddress& addr,
                                            Microseconds now) {
  Result<nand::OpTiming> erased = device_.erase(addr, now);
  if (!erased.is_ok() && erased.code() == ErrorCode::kBlockBad) {
    // Spare pool dry: the device retired the visible address (listener
    // already counted it); mirror that in the allocation bookkeeping.
    blocks_.retire(addr);
  }
  return erased;
}

std::uint32_t FtlBase::pick_chip() {
  // Place the write on the chip with the most headroom (physical pages not
  // holding valid data), ties broken round-robin. Free-block counts alone
  // are too coarse: a chip whose pages are ~100% valid still shows a few
  // free blocks right after GC, keeps attracting writes, and eventually
  // packs itself into an un-collectable state.
  //
  // pick_idle_unit applies the same rule to the units idle at a time and
  // advances the same counter, so the controller's striped picks and the
  // legacy picks walk the same sequence when the whole array is idle.
  // This untimed pick (set-up fills call it per page) keeps its own loop
  // free of the busy and anchor tests.
  const std::uint32_t chips = device_.geometry().num_units();
  const std::uint64_t chip_pages = device_.geometry().pages_per_unit();
  const std::uint32_t start = rr_chip_++ % chips;
  std::uint32_t best = start;
  std::uint64_t best_headroom = chip_pages - blocks_.chip_valid_pages(start);
  std::uint32_t chip = start;
  for (std::uint32_t i = 1; i < chips; ++i) {
    if (++chip == chips) chip = 0;
    const std::uint64_t headroom = chip_pages - blocks_.chip_valid_pages(chip);
    if (headroom > best_headroom) {
      best = chip;
      best_headroom = headroom;
    }
  }
  return best;
}

UnitPick FtlBase::pick_idle_unit(Microseconds t, std::int64_t anchor_die) {
  const nand::Geometry& geometry = device_.geometry();
  const std::uint64_t unit_pages = geometry.pages_per_unit();
  return pick_unit(
      geometry.num_units(), geometry.planes_per_chip, rr_chip_, t, anchor_die,
      [this](std::uint32_t u) { return device_.chip(u).busy_until(); },
      [this, unit_pages](std::uint32_t u) {
        return unit_pages - blocks_.chip_valid_pages(u);
      });
}

void FtlBase::incremental_gc(Microseconds now) {
  const std::uint32_t chips = device_.geometry().num_units();
  const std::uint32_t chip = igc_rr_chip_++ % chips;
  const std::uint32_t free = blocks_.free_blocks(chip);
  if (free > config_.gc_reserve_blocks + 1) return;
  // Unless critically low, wait for a worthwhile victim — relocating
  // immature victims inflates write amplification for nothing.
  const bool urgent = free <= config_.gc_reserve_blocks;
  if (!urgent && blocks_.best_victim_gain(chip) <
                     blocks_.pages_per_block() / config_.bgc_min_yield_divisor) {
    return;
  }
  const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
  if (!victim) return;
  collect_block(chip, *victim, now, kTimeNever, /*background=*/false,
                config_.gc_incremental_copies);
}

Status FtlBase::ensure_free_block(std::uint32_t chip, Microseconds now) {
  while (blocks_.free_blocks(chip) <= config_.gc_reserve_blocks) {
    const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
    if (!victim) return Status{ErrorCode::kNoFreeBlock};
    if (!collect_block(chip, *victim, now, kTimeNever, /*background=*/false)) {
      return Status{ErrorCode::kNoFreeBlock};
    }
  }
  return Status::ok();
}

Result<Microseconds> FtlBase::program_slc_backup(std::uint32_t chip, BlockCursor& cursor,
                                                 nand::PageData data, Microseconds now) {
  if (!cursor.valid) {
    const Result<std::uint32_t> block =
        blocks_.allocate(chip, BlockUse::kBackup, /*reserve=*/1);
    if (!block.is_ok()) return block.code();
    const Status slc = device_.block_mut({chip, block.value()}).set_slc_mode();
    assert(slc.is_ok());
    (void)slc;
    cursor = BlockCursor{.valid = true, .block = block.value(), .next = 0};
  }
  const nand::PageAddress addr{chip, cursor.block, {cursor.next, nand::PageType::kLsb}};
  const Result<nand::OpTiming> timing = device_.program(addr, std::move(data), now);
  assert(timing.is_ok());
  ++cursor.next;
  blocks_.add_written({chip, cursor.block});
  ++stats_.backup_pages;
  const Microseconds complete = timing.value().complete;
  if (cursor.next >= device_.geometry().wordlines_per_block) {
    const Result<nand::OpTiming> erased = erase_block({chip, cursor.block}, complete);
    assert(erased.is_ok());
    (void)erased;
    blocks_.release({chip, cursor.block});
    cursor.valid = false;
  }
  return complete;
}

void FtlBase::on_idle_plan(Microseconds now, Microseconds deadline) {
  // Stop background work early enough that an in-flight MSB program (plus
  // its copy read) cannot spill into the next burst's first requests.
  const Microseconds guarded =
      deadline - 2 * config_.timing.program_msb_us;
  if (guarded <= now) return;
  if (config_.wear_level_threshold > 0) static_wear_level(now, guarded);
  if (config_.read_scrub_threshold > 0) scrub_read_disturbed(now, guarded);
  const std::uint32_t chips = device_.geometry().num_units();
  for (std::uint32_t i = 0; i < chips; ++i) {
    const std::uint32_t chip = (bgc_rr_chip_ + i) % chips;
    while (blocks_.free_fraction(chip) < config_.bgc_free_threshold &&
           device_.chip(chip).busy_until() < guarded) {
      // Yield guard: background GC only runs victims that reclaim a decent
      // fraction of a block; low-yield relocation is deferred until
      // invalidation catches up (or foreground GC truly needs the space).
      if (blocks_.best_victim_gain(chip) <
          blocks_.pages_per_block() / config_.bgc_min_yield_divisor) {
        break;
      }
      const std::optional<std::uint32_t> victim = blocks_.pick_victim(chip);
      if (!victim) break;
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      if (!collect_block(chip, *victim, start, guarded, /*background=*/true)) break;
    }
  }
  bgc_rr_chip_ = (bgc_rr_chip_ + 1) % chips;
}

Status FtlBase::trim(Lpn lpn) {
  if (lpn >= mapping_.exported_pages()) return Status{ErrorCode::kOutOfRange};
  if (const std::optional<nand::PageAddress> old = mapping_.unmap(lpn)) {
    blocks_.remove_valid({old->chip, old->block});
  }
  return Status::ok();
}

void FtlBase::rebuild_mapping() {
  // Pass 1: scan every valid page's OOB, keeping the newest copy per LPN.
  struct Newest {
    nand::PageAddress addr;
    std::uint64_t version = 0;
    bool present = false;
  };
  std::vector<Newest> newest(mapping_.exported_pages());
  const nand::Geometry& geometry = device_.geometry();
  // Scan the FTL-visible range through the translating accessor: remapped
  // blocks are found under their visible address, and dead physical
  // blocks (bad, unreachable) are never scanned at all.
  for (std::uint32_t chip = 0; chip < geometry.num_units(); ++chip) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      if (device_.bad_blocks().is_retired(chip, b)) continue;
      const nand::Block& block = device_.block({chip, b});
      for (std::uint32_t wl = 0; wl < geometry.wordlines_per_block; ++wl) {
        for (std::uint32_t pass = 0; pass < geometry.bits_per_cell; ++pass) {
          const nand::PagePos pos{wl, nand::type_of_pass(pass, geometry.bits_per_cell)};
          if (block.page_state(pos) != nand::PageState::kValid) continue;
          const nand::PageData* data = block.peek(pos);
          assert(data != nullptr);
          const nand::PageData& d = *data;
          if (d.spare & nand::kNonHostSpareFlag) continue;  // FTL metadata
          if (d.lpn >= mapping_.exported_pages()) continue; // parity / junk
          Newest& slot = newest[d.lpn];
          if (!slot.present || d.version > slot.version) {
            slot = Newest{{chip, b, pos}, d.version, true};
          }
        }
      }
    }
  }
  // Pass 2: replace the mapping and the valid-page accounting.
  MappingTable fresh(mapping_.exported_pages(), geometry);
  BlockManager fresh_blocks(geometry.num_units(), device_.visible_blocks(),
                            geometry.pages_per_block());
  // Preserve block roles, written counts and free lists from the old
  // bookkeeping (an FTL snapshots those separately; only the valid counts
  // derive from the media scan).
  fresh_blocks = blocks_;
  for (std::uint32_t chip = 0; chip < geometry.num_units(); ++chip) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      while (fresh_blocks.valid_pages({chip, b}) > 0) {
        fresh_blocks.remove_valid({chip, b});
      }
    }
  }
  for (Lpn lpn = 0; lpn < newest.size(); ++lpn) {
    if (!newest[lpn].present) continue;
    const nand::BlockAddress home{newest[lpn].addr.chip, newest[lpn].addr.block};
    // Live data in a block the bookkeeping had freed means its erase was
    // voided by a power loss (charged after the cut, never began): pull
    // the block back out of the free pool. No-op when already in use.
    fresh_blocks.reclaim(home, BlockUse::kFull);
    fresh.update(lpn, newest[lpn].addr);
    fresh_blocks.add_valid(home);
    // The newest intact copy may be one a GC scan had already relocated
    // (its newer copy died in the cut): rewind the scan so GC finds it.
    fresh_blocks.set_gc_cursor(
        home, std::min(fresh_blocks.gc_cursor(home), newest[lpn].addr.pos.wordline));
  }
  mapping_ = std::move(fresh);
  blocks_ = std::move(fresh_blocks);
}

void FtlBase::static_wear_level(Microseconds now, Microseconds deadline) {
  for (std::uint32_t chip = 0; chip < device_.num_units(); ++chip) {
    // Migrate trailing cold blocks until none is behind by the threshold
    // (or the idle window closes). Cold data lives in full blocks that
    // stopped cycling; freeing them returns low-wear blocks to rotation.
    while (device_.chip(chip).busy_until() < deadline) {
      std::uint64_t max_erases = 0;
      std::optional<std::uint32_t> coldest;
      std::uint64_t coldest_erases = 0;
      for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
        if (blocks_.use({chip, b}) == BlockUse::kRetired) continue;
        const std::uint64_t erases = device_.block({chip, b}).erase_count();
        max_erases = std::max(max_erases, erases);
        if (blocks_.use({chip, b}) != BlockUse::kFull) continue;
        if (!coldest || erases < coldest_erases) {
          coldest = b;
          coldest_erases = erases;
        }
      }
      if (!coldest || max_erases < coldest_erases + config_.wear_level_threshold) {
        break;
      }
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      if (!collect_block(chip, *coldest, start, deadline, /*background=*/true,
                         UINT32_MAX, nand::WriteCause::kWearLevel)) {
        break;  // out of idle budget mid-block; resume next idle
      }
    }
  }
}

void FtlBase::scrub_read_disturbed(Microseconds now, Microseconds deadline) {
  for (std::uint32_t chip = 0; chip < device_.num_units(); ++chip) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      if (device_.chip(chip).busy_until() >= deadline) break;
      if (blocks_.use({chip, b}) != BlockUse::kFull) continue;
      if (device_.block({chip, b}).reads_since_erase() <
          config_.read_scrub_threshold) {
        continue;
      }
      const Microseconds start = std::max(now, device_.chip(chip).busy_until());
      if (collect_block(chip, b, start, deadline, /*background=*/true, UINT32_MAX,
                        nand::WriteCause::kScrub)) {
        ++stats_.scrubbed_blocks;
      }
    }
  }
}

bool FtlBase::check_consistency() const {
  std::uint64_t valid_total = 0;
  for (std::uint32_t c = 0; c < device_.num_units(); ++c) {
    for (std::uint32_t b = 0; b < device_.visible_blocks(); ++b) {
      valid_total += blocks_.valid_pages({c, b});
    }
  }
  if (valid_total != mapping_.mapped_count()) return false;
  for (Lpn lpn = 0; lpn < mapping_.exported_pages(); ++lpn) {
    const Result<nand::PageAddress> addr = mapping_.lookup(lpn);
    if (!addr.is_ok()) continue;
    const nand::Block& block = device_.block({addr.value().chip, addr.value().block});
    if (!block.is_programmed(addr.value().pos)) return false;
  }
  return true;
}

void FtlBase::save_state(ser::Writer& w) const {
  device_.save(w);
  mapping_.save(w);
  blocks_.save(w);
  // Stats stream in X-macro list order: a new counter added to the list
  // serializes automatically (bump sim::Snapshot::kVersion when it does).
#define RPS_FIELD(name) w.u64(stats_.name);
  RPS_FTL_STAT_FIELDS(RPS_FIELD)
#undef RPS_FIELD
  w.u32(rr_chip_);
  w.u32(bgc_rr_chip_);
  w.u32(igc_rr_chip_);
  w.u64(write_version_);
  w.u32(current_stream_);
  save_extra(w);
}

void FtlBase::load_state(ser::Reader& r) {
  device_.load(r);
  mapping_.load(r, device_.num_units(), device_.visible_blocks(), device_.geometry());
  blocks_.load(r);
#define RPS_FIELD(name) stats_.name = r.u64();
  RPS_FTL_STAT_FIELDS(RPS_FIELD)
#undef RPS_FIELD
  rr_chip_ = r.u32();
  bgc_rr_chip_ = r.u32();
  igc_rr_chip_ = r.u32();
  write_version_ = r.u64();
  current_stream_ = r.u32();
  load_extra(r);
}

void FtlBase::save_cursors(ser::Writer& w, std::span<const BlockCursor> cursors) {
  w.u64(cursors.size());
  for (const BlockCursor& c : cursors) {
    w.boolean(c.valid);
    w.u32(c.block);
    w.u32(c.next);
  }
}

void FtlBase::load_cursors(ser::Reader& r, std::span<BlockCursor> cursors,
                           std::uint32_t order) const {
  if (r.u64() != cursors.size()) {
    r.fail();
    return;
  }
  for (BlockCursor& c : cursors) {
    c.valid = r.boolean();
    c.block = r.u32();
    c.next = r.u32();
    if (c.block >= device_.visible_blocks() || c.next > order ||
        (c.valid && c.next == order)) {
      r.fail();
    }
  }
}

void FtlBase::save_address(ser::Writer& w, const nand::PageAddress& addr) {
  w.u32(addr.chip);
  w.u32(addr.block);
  w.u32(addr.pos.wordline);
  w.u8(static_cast<std::uint8_t>(addr.pos.type));
}

nand::PageAddress FtlBase::load_address(ser::Reader& r) const {
  const nand::Geometry& g = device_.geometry();
  nand::PageAddress addr;
  addr.chip = r.u32();
  addr.block = r.u32();
  addr.pos.wordline = r.u32();
  const std::uint8_t type = r.u8();
  addr.pos.type = static_cast<nand::PageType>(type);
  if (addr.chip >= g.num_units() || addr.block >= device_.visible_blocks() ||
      addr.pos.wordline >= g.wordlines_per_block || type > 2 ||
      nand::pass_of(addr.pos.type, g.bits_per_cell) >= g.bits_per_cell) {
    r.fail();
  }
  return addr;
}

void FtlBase::save_extra(ser::Writer& w) const { (void)w; }

void FtlBase::load_extra(ser::Reader& r) { (void)r; }

}  // namespace rps::ftl
