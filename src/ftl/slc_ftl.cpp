#include "src/ftl/slc_ftl.hpp"

#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

SlcFtl::SlcFtl(const FtlConfig& config)
    : FtlBase(halved(config), nand::SequenceKind::kFps),
      cursors_(config.geometry.num_units()) {
  assert(config.geometry.bits_per_cell == 2);  // an MLC policy
}

Result<Microseconds> SlcFtl::append(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                    Microseconds now, bool gc) {
  Cursor& cursor = cursors_.at(chip);
  const std::uint32_t wordlines = device_.geometry().wordlines_per_block;
  if (!cursor.valid || cursor.next_wordline >= wordlines) {
    // Reentrancy care, as in the other FTLs: foreground GC triggered below
    // may recurse and install a cursor itself.
    if (!gc && blocks_.free_blocks(chip) <= config_.gc_reserve_blocks) {
      const Status freed = ensure_free_block(chip, now);
      if (!freed.is_ok() && !(cursor.valid && cursor.next_wordline < wordlines)) {
        return freed.code();
      }
    }
    if (!cursor.valid || cursor.next_wordline >= wordlines) {
      Result<std::uint32_t> block = blocks_.allocate(
          chip, BlockUse::kActive, gc ? 0 : config_.gc_reserve_blocks);
      if (!block.is_ok()) return block.code();
      const Status slc = device_.block_mut({chip, block.value()}).set_slc_mode();
      assert(slc.is_ok());
      (void)slc;
      cursor = Cursor{.valid = true, .block = block.value(), .next_wordline = 0};
    }
  }

  const nand::PageAddress addr{chip, cursor.block,
                               {cursor.next_wordline, nand::PageType::kLsb}};
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), now);
  assert(timing.is_ok());
  ++cursor.next_wordline;
  if (cursor.next_wordline >= wordlines) {
    blocks_.set_use({chip, cursor.block}, BlockUse::kFull);
    cursor.valid = false;
  }
  commit_mapping(lpn, addr);
  if (!gc) ++stats_.host_lsb_writes;
  return timing.value().complete;
}

Result<Microseconds> SlcFtl::allocate_host_page(std::uint32_t chip, Lpn lpn,
                                                nand::PageData data, Microseconds now,
                                                double buffer_utilization) {
  (void)buffer_utilization;  // every write is already as fast as possible
  return append(chip, lpn, std::move(data), now, /*gc=*/false);
}

Result<Microseconds> SlcFtl::allocate_gc_page(std::uint32_t chip, Lpn lpn,
                                              nand::PageData data, Microseconds now,
                                              bool background) {
  (void)background;
  return append(chip, lpn, std::move(data), now, /*gc=*/true);
}

void SlcFtl::save_extra(ser::Writer& w) const {
  w.u64(cursors_.size());
  for (const Cursor& c : cursors_) {
    w.boolean(c.valid);
    w.u32(c.block);
    w.u32(c.next_wordline);
  }
}

void SlcFtl::load_extra(ser::Reader& r) {
  if (r.u64() != cursors_.size()) {
    r.fail();
    return;
  }
  for (Cursor& c : cursors_) {
    c.valid = r.boolean();
    c.block = r.u32();
    c.next_wordline = r.u32();
  }
}

}  // namespace rps::ftl
