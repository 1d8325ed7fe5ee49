// parityFTL: FPS baseline with the adaptive paired-page pre-backup scheme
// of Lee et al. [6] (Section 4.1).
//
// Before an MSB program endangers previously written LSB data, a parity
// page covering that data must be durable. Under FPS at most two LSB pages
// can share one parity page, and exploiting inter-channel parallelism the
// scheme pairs LSB pages from different chips: every two LSB programs, the
// accumulated XOR parity is flushed to a backup block (itself written in
// FPS order — RPS is what later makes LSB-only backup blocks possible).
// An MSB program whose paired LSB is not yet covered forces a synchronous
// partial flush and waits for it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/ftl/page_ftl.hpp"
#include "src/util/map_recycle.hpp"

namespace rps::ftl {

class ParityFtl : public PageFtl {
 public:
  explicit ParityFtl(const FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "parityFTL"; }

  /// LSB pages accumulated but not yet flushed (observable for tests).
  [[nodiscard]] std::size_t pending_lsb_pages() const { return pending_.size(); }
  /// Parity flushes that had to cover fewer than two LSB pages.
  [[nodiscard]] std::uint64_t partial_flushes() const { return partial_flushes_; }
  /// Parity writes skipped because no backup block could be allocated.
  [[nodiscard]] std::uint64_t skipped_backups() const { return skipped_backups_; }

  /// How many LSB pages share one parity page (fixed at 2 under FPS [6]).
  static constexpr std::size_t kLsbPagesPerParity = 2;

 protected:
  Microseconds before_program(const nand::PageAddress& addr, const nand::PageData& data,
                              Microseconds now, bool gc) override;

  void save_extra(ser::Writer& w) const override;
  void load_extra(ser::Reader& r) override;

 private:
  /// Flush the accumulated parity to a backup block; returns its durable
  /// time (or `now` when there was nothing to flush / no backup space).
  Microseconds flush_parity(Microseconds now);

  static std::uint64_t wl_key(const nand::PageAddress& addr) {
    return (static_cast<std::uint64_t>(addr.chip) << 44) |
           (static_cast<std::uint64_t>(addr.block) << 20) | addr.pos.wordline;
  }

  nand::PageImage parity_acc_;
  std::vector<nand::PageAddress> pending_;  // LSB pages in the accumulator
  /// Word lines whose LSB data is covered by a durable parity page, with
  /// the flush completion time (MSB programs wait on it, then consume it).
  using DurableMap = std::unordered_map<std::uint64_t, Microseconds>;
  DurableMap parity_durable_at_;
  std::vector<DurableMap::node_type> durable_spares_;  // recycled nodes
  /// Per-chip SLC-mode backup blocks: parity pages land on LSB pages
  /// only, back to back, at LSB program speed (an FPS device cannot
  /// legally sustain consecutive LSB programs on an MLC-mode block).
  std::vector<BlockCursor> backup_;
  std::uint32_t backup_rr_ = 0;
  std::uint64_t partial_flushes_ = 0;
  std::uint64_t skipped_backups_ = 0;
};

}  // namespace rps::ftl
