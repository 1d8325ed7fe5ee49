#include "src/ftl/page_ftl.hpp"

#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

PageFtl::PageFtl(const FtlConfig& config)
    : FtlBase(config, nand::SequenceKind::kFps),
      order_(nand::fps_order(config.geometry.wordlines_per_block)),
      slots_(std::max<std::uint32_t>(1, config.write_stream_slots)),
      active_(static_cast<std::size_t>(config.geometry.num_units()) * slots_) {
  assert(config.geometry.bits_per_cell == 2);  // an MLC policy
}

Result<Microseconds> PageFtl::append_to_active(std::uint32_t chip, Lpn lpn,
                                               nand::PageData data, Microseconds now,
                                               bool gc, std::uint32_t slot) {
  BlockCursor& cursor = cursor_at(chip, slot);
  if (!cursor.valid) {
    const Status opened = open_active_block(
        chip, now, gc, [&] { return !cursor.valid; },
        [&](std::uint32_t block) { cursor = {.valid = true, .block = block, .next = 0}; });
    if (!opened.is_ok()) return opened.code();
  }
  const nand::PagePos pos = order_[cursor.next];
  const nand::PageAddress addr{chip, cursor.block, pos};

  const Microseconds start = before_program(addr, data, now, gc);
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), start);
  assert(timing.is_ok());  // the cursor follows the device's own order
  if (++cursor.next == order_.size()) {
    blocks_.set_use({chip, cursor.block}, BlockUse::kFull);
    cursor.valid = false;
  }
  commit_mapping(lpn, addr);
  if (!gc) {
    if (pos.type == nand::PageType::kLsb) {
      ++stats_.host_lsb_writes;
    } else {
      ++stats_.host_msb_writes;
    }
  }
  return timing.value().complete;
}

Result<Microseconds> PageFtl::allocate_host_page(std::uint32_t chip, Lpn lpn,
                                                 nand::PageData data, Microseconds now,
                                                 double buffer_utilization) {
  (void)buffer_utilization;  // pageFTL is asymmetry-oblivious
  return append_to_active(chip, lpn, std::move(data), now, /*gc=*/false,
                          stream_slot(current_stream()));
}

Result<Microseconds> PageFtl::allocate_gc_page(std::uint32_t chip, Lpn lpn,
                                               nand::PageData data, Microseconds now,
                                               bool background) {
  (void)background;
  return append_to_active(chip, lpn, std::move(data), now, /*gc=*/true);
}

void PageFtl::save_extra(ser::Writer& w) const { save_cursors(w, active_); }

void PageFtl::load_extra(ser::Reader& r) {
  load_cursors(r, active_, static_cast<std::uint32_t>(order_.size()));
}

}  // namespace rps::ftl
