#include "src/ftl/page_ftl.hpp"

#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

PageFtl::PageFtl(const FtlConfig& config, nand::SequenceKind kind)
    : FtlBase(config, kind),
      order_(nand::fps_order(config.geometry.wordlines_per_block)),
      slots_(std::max<std::uint32_t>(1, config.write_stream_slots)),
      active_(static_cast<std::size_t>(config.geometry.num_units()) * slots_) {
  assert(config.geometry.bits_per_cell == 2);  // an MLC policy
}

Result<std::uint32_t> PageFtl::activate_block(std::uint32_t chip, Microseconds now,
                                              bool gc, BlockUse use) {
  if (gc) return blocks_.allocate(chip, use, /*reserve=*/0);
  Result<std::uint32_t> block = blocks_.allocate(chip, use, config_.gc_reserve_blocks);
  if (block.is_ok()) return block;
  const Status freed = ensure_free_block(chip, now);
  if (!freed.is_ok()) return freed.code();
  return blocks_.allocate(chip, use, /*reserve=*/0);
}

Result<Microseconds> PageFtl::append_to_active(std::uint32_t chip, Lpn lpn,
                                               nand::PageData data, Microseconds now,
                                               bool gc, std::uint32_t slot) {
  ActiveCursor& cursor = cursor_at(chip, slot);
  if (!cursor.valid || cursor.exhausted(order_)) {
    // Careful with reentrancy: a host-path allocation below may trigger
    // foreground GC, whose relocation copies recurse into this function and
    // install (and partially fill) a fresh cursor themselves. Clobbering it
    // afterwards would orphan a half-written active block — a permanent
    // capacity leak. So make room first, then re-check the cursor.
    if (!gc && blocks_.free_blocks(chip) <= config_.gc_reserve_blocks) {
      const Status freed = ensure_free_block(chip, now);
      if (!freed.is_ok() && !(cursor.valid && !cursor.exhausted(order_))) {
        return freed.code();
      }
    }
    if (!cursor.valid || cursor.exhausted(order_)) {
      Result<std::uint32_t> block = blocks_.allocate(
          chip, BlockUse::kActive, gc ? 0 : config_.gc_reserve_blocks);
      if (!block.is_ok()) return block.code();
      cursor = ActiveCursor{.valid = true, .block = block.value(), .next = 0};
    }
  }
  const nand::PagePos pos = order_[cursor.next];
  const nand::PageAddress addr{chip, cursor.block, pos};

  const Microseconds start = before_program(addr, data, now, gc);
  Result<nand::OpTiming> timing = device_.program(addr, std::move(data), start);
  assert(timing.is_ok());  // the cursor follows the device's own order
  ++cursor.next;
  if (cursor.exhausted(order_)) {
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
  after_program(addr, timing.value().complete);
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

void PageFtl::save_extra(ser::Writer& w) const {
  w.u64(active_.size());
  for (const ActiveCursor& c : active_) {
    w.boolean(c.valid);
    w.u32(c.block);
    w.u32(c.next);
  }
}

void PageFtl::load_extra(ser::Reader& r) {
  if (r.u64() != active_.size()) {
    r.fail();
    return;
  }
  for (ActiveCursor& c : active_) {
    c.valid = r.boolean();
    c.block = r.u32();
    c.next = r.u32();
  }
}

}  // namespace rps::ftl
