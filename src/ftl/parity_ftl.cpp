#include "src/ftl/parity_ftl.hpp"

#include <algorithm>

#include "src/util/serialize.hpp"

namespace rps::ftl {

ParityFtl::ParityFtl(const FtlConfig& config)
    : PageFtl(config), backup_(config.geometry.num_units()) {
  // Coverage tracks at most one entry per in-flight LSB word line; sizing
  // the table to the device's block count up front keeps the steady-state
  // write path free of rehashes.
  parity_durable_at_.reserve(config.geometry.num_units() *
                             config.geometry.blocks_per_chip);
}

Microseconds ParityFtl::flush_parity(Microseconds now) {
  if (pending_.empty()) return now;
  if (pending_.size() < kLsbPagesPerParity) ++partial_flushes_;
  // Attribution: the parity program and the cycled backup-block erase are
  // parity overhead, not part of whatever write path triggered the flush.
  const nand::CauseScope cause(device_, nand::WriteCause::kParity);

  // Round-robin the parity writes over chips to use channel parallelism.
  const std::uint32_t chip = backup_rr_++ % device_.geometry().num_units();
  nand::PageData parity = parity_acc_.record;
  parity.lpn = kInvalidLpn;  // not user data; never a GC relocation source
  parity.spare |= nand::kNonHostSpareFlag;
  const nand::PayloadPin payload(device_.payloads(), parity.signature, parity_acc_.bytes);
  const Result<Microseconds> durable = program_slc_backup(chip, backup_[chip], parity, now);
  if (durable.is_ok()) {
    for (const nand::PageAddress& covered : pending_) {
      util::recycled_assign(parity_durable_at_, durable_spares_, wl_key(covered),
                            durable.value());
    }
  } else {
    // No space anywhere for a backup: drop coverage (counted, not silent).
    ++skipped_backups_;
  }
  pending_.clear();
  parity_acc_ = nand::PageImage{};
  return durable.is_ok() ? durable.value() : now;
}

Microseconds ParityFtl::before_program(const nand::PageAddress& addr,
                                       const nand::PageData& data, Microseconds now,
                                       bool gc) {
  if (addr.pos.type == nand::PageType::kLsb) {
    // GC relocation copies need no coverage: their source pages survive
    // until the relocation completes, so an interrupted pass is redone.
    if (gc) return now;
    parity_acc_.xor_with(data, device_.payloads().find(data.signature));
    pending_.push_back(addr);
    if (pending_.size() >= kLsbPagesPerParity) {
      // The flush runs on another chip's timeline; this LSB program does
      // not wait for it (pre-backup, not write-through).
      flush_parity(now);
    }
    return now;
  }

  // MSB program: the paired LSB page's covering parity must be durable.
  const nand::PageAddress paired{addr.chip, addr.block,
                                 {addr.pos.wordline, nand::PageType::kLsb}};
  const bool uncovered =
      std::find(pending_.begin(), pending_.end(), paired) != pending_.end();
  Microseconds start = now;
  if (uncovered) start = std::max(start, flush_parity(now));
  const auto it = parity_durable_at_.find(wl_key(paired));
  if (it != parity_durable_at_.end()) {
    start = std::max(start, it->second);
    util::recycled_erase(parity_durable_at_, durable_spares_, it);
  }
  return start;
}

void ParityFtl::save_extra(ser::Writer& w) const {
  PageFtl::save_extra(w);
  nand::save(w, parity_acc_);
  w.u64(pending_.size());
  for (const nand::PageAddress& addr : pending_) save_address(w, addr);
  std::vector<std::pair<std::uint64_t, Microseconds>> durable(parity_durable_at_.begin(),
                                                              parity_durable_at_.end());
  std::sort(durable.begin(), durable.end());
  w.u64(durable.size());
  for (const auto& [key, at] : durable) {
    w.u64(key);
    w.i64(at);
  }
  save_cursors(w, backup_);
  w.u32(backup_rr_);
  w.u64(partial_flushes_);
  w.u64(skipped_backups_);
}

void ParityFtl::load_extra(ser::Reader& r) {
  PageFtl::load_extra(r);
  nand::load(r, parity_acc_);
  pending_.clear();
  const std::uint64_t pending = r.u64();
  if (pending > r.remaining()) {
    r.fail();
    return;
  }
  pending_.reserve(static_cast<std::size_t>(pending));
  for (std::uint64_t i = 0; i < pending; ++i) pending_.push_back(load_address(r));
  parity_durable_at_.clear();
  const std::uint64_t durable = r.u64();
  if (durable > r.remaining()) {
    r.fail();
    return;
  }
  parity_durable_at_.reserve(static_cast<std::size_t>(durable));
  for (std::uint64_t i = 0; i < durable; ++i) {
    const std::uint64_t key = r.u64();
    parity_durable_at_.emplace(key, r.i64());
  }
  load_cursors(r, backup_, device_.geometry().wordlines_per_block);
  backup_rr_ = r.u32();
  partial_flushes_ = r.u64();
  skipped_backups_ = r.u64();
}

}  // namespace rps::ftl
