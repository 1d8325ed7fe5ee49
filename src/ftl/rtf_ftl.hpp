// rtfFTL: the return-to-fast FPS baseline after Grupp et al. [5]
// (Section 4.1).
//
// Each chip keeps a small pool of active blocks (8 in the paper's setup).
// Host writes are served from any active block whose next FPS page is an
// LSB page, giving a bounded pool of fast pages for bursts. When the pool
// is exhausted, writes fall back to MSB pages — and every MSB program must
// first back up its paired LSB page (a read plus a program to a backup
// block), because the MSB program is destructive and rtfFTL must survive
// sudden power-off. During idle times, garbage collection aggressively
// consumes MSB pages so the next burst again finds LSB frontiers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ftl/ftl_base.hpp"
#include "src/nand/program_order.hpp"

namespace rps::ftl {

class RtfFtl : public FtlBase {
 public:
  explicit RtfFtl(const FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "rtfFTL"; }

  void on_idle_plan(Microseconds now, Microseconds deadline) override;

  /// Active blocks on `chip` whose next FPS page is an LSB page — the
  /// currently available fast-write pool (observable for tests).
  [[nodiscard]] std::uint32_t lsb_ready_cursors(std::uint32_t chip) const;

 protected:
  Result<Microseconds> allocate_host_page(std::uint32_t chip, Lpn lpn,
                                          nand::PageData data, Microseconds now,
                                          double buffer_utilization) override;
  Result<Microseconds> allocate_gc_page(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                        Microseconds now, bool background) override;

  void save_extra(ser::Writer& w) const override;
  void load_extra(ser::Reader& r) override;

 private:
  [[nodiscard]] nand::PageType next_type(const BlockCursor& cursor) const {
    return order_[cursor.next].type;
  }

  /// Index of a valid cursor on `chip` whose next page has `type`.
  std::optional<std::size_t> find_cursor(std::uint32_t chip, nand::PageType type) const;

  /// Fill an empty cursor slot with a fresh block, if possible.
  std::optional<std::size_t> replenish_slot(std::uint32_t chip, Microseconds now, bool gc);

  /// Program at a specific cursor: pays the paired-LSB backup before MSB
  /// programs, advances the cursor, commits the mapping.
  Result<Microseconds> append_at(std::uint32_t chip, std::size_t slot, Lpn lpn,
                                 nand::PageData data, Microseconds now, bool gc);

  /// Copy the paired LSB page to a backup block before `msb_addr` is
  /// programmed; returns when the backup is durable.
  Microseconds backup_paired_lsb(const nand::PageAddress& msb_addr, Microseconds now);

  nand::ProgramOrder order_;
  std::vector<std::vector<BlockCursor>> actives_;  // [chip][slot]
  std::vector<BlockCursor> backup_;  // per-chip SLC-mode backup block
  /// Host LSB writes since the last idle-time MSB consumption: the idle GC
  /// consumes a matching amount of MSB capacity (capacity balance — every
  /// LSB-skewed burst must eventually be paid for with MSB programs).
  std::vector<std::uint64_t> lsb_debt_;
  std::uint64_t skipped_backups_ = 0;
};

}  // namespace rps::ftl
