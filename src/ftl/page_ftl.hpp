// pageFTL: the FPS-based page-mapping baseline (Section 4.1).
//
// One active block per chip, programmed strictly in the device's fixed
// program sequence, so host writes alternate between fast LSB and slow MSB
// pages regardless of workload. Assumes no sudden power-off, hence no
// paired-page backups — the paper uses it as the performance ceiling of an
// FPS FTL.
//
// The program path exposes one hook (before_program) that parityFTL
// layers its pre-backup bookkeeping onto.
#pragma once

#include <vector>

#include "src/ftl/ftl_base.hpp"
#include "src/nand/program_order.hpp"

namespace rps::ftl {

class PageFtl : public FtlBase {
 public:
  explicit PageFtl(const FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "pageFTL"; }

 protected:
  Result<Microseconds> allocate_host_page(std::uint32_t chip, Lpn lpn,
                                          nand::PageData data, Microseconds now,
                                          double buffer_utilization) override;
  Result<Microseconds> allocate_gc_page(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                        Microseconds now, bool background) override;

  void save_extra(ser::Writer& w) const override;
  void load_extra(ser::Reader& r) override;

  /// Append one page at `chip`'s active cursor for `slot` (opening a block
  /// as needed) and commit the mapping. Slot 0 is the default-stream + GC
  /// cursor (the only one that exists pre-multi-tenant); host writes
  /// carrying a stream hint use the slot FtlBase::stream_slot maps it to,
  /// so streams fill distinct blocks.
  Result<Microseconds> append_to_active(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                        Microseconds now, bool gc,
                                        std::uint32_t slot = 0);

  /// Hook: called with the chosen physical page before it is programmed.
  /// May delay the program (return a later time) — parityFTL waits for the
  /// covering parity page to become durable before an MSB program.
  /// `gc` marks relocation copies: those need no backup coverage, because
  /// the victim block is not erased until the relocation completes, so an
  /// interrupted GC pass is simply redone from the intact source.
  virtual Microseconds before_program(const nand::PageAddress& addr,
                                      const nand::PageData& data, Microseconds now,
                                      bool gc) {
    (void)addr;
    (void)data;
    (void)gc;
    return now;
  }

  /// The cursor of (chip, slot) — fixed-size (never reallocates, so
  /// references stay valid across the GC recursion in append_to_active).
  [[nodiscard]] BlockCursor& cursor_at(std::uint32_t chip, std::uint32_t slot) {
    return active_[chip * slots_ + slot];
  }

  nand::ProgramOrder order_;  // the device's FPS order, one per block shape
  std::uint32_t slots_;       // cursor slots per chip (config.write_stream_slots)
  std::vector<BlockCursor> active_;  // [chip][slot], flattened
};

}  // namespace rps::ftl
