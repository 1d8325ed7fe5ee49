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
  BlockCursor& cursor = cursors_[chip];
  if (!cursor.valid) {
    const Status opened = open_active_block(
        chip, now, gc, [&] { return !cursor.valid; },
        [&](std::uint32_t block) {
          const Status slc = device_.block_mut({chip, block}).set_slc_mode();
          assert(slc.is_ok());
          (void)slc;
          cursor = {.valid = true, .block = block, .next = 0};
        });
    if (!opened.is_ok()) return opened.code();
  }

  const nand::PageAddress addr{chip, cursor.block, {cursor.next, nand::PageType::kLsb}};
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), now);
  assert(timing.is_ok());
  if (++cursor.next == device_.geometry().wordlines_per_block) {
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

void SlcFtl::save_extra(ser::Writer& w) const { save_cursors(w, cursors_); }

void SlcFtl::load_extra(ser::Reader& r) {
  load_cursors(r, cursors_, device_.geometry().wordlines_per_block);
}

}  // namespace rps::ftl
