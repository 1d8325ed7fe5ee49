#include "src/ftl/block_manager.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

BlockManager::BlockManager(std::uint32_t chips, std::uint32_t blocks_per_chip,
                           std::uint32_t pages_per_block)
    : blocks_per_chip_(blocks_per_chip), pages_per_block_(pages_per_block) {
  per_chip_.resize(chips);
  for (ChipState& chip : per_chip_) {
    chip.blocks.resize(blocks_per_chip);
    for (std::uint32_t b = 0; b < blocks_per_chip; ++b) chip.free.push_back(b);
  }
}

Result<std::uint32_t> BlockManager::allocate(std::uint32_t chip, BlockUse use,
                                             std::uint32_t reserve) {
  assert(use != BlockUse::kFree);
  assert(chip < per_chip_.size());
  ChipState& state = per_chip_[chip];
  if (state.free.size() <= reserve) return ErrorCode::kNoFreeBlock;
  const std::uint32_t block = state.free.front();
  state.free.pop_front();
  BlockInfo& bi = state.blocks[block];
  assert(bi.use == BlockUse::kFree);
  bi.use = use;
  bi.valid_pages = 0;
  bi.written_pages = 0;
  bi.gc_cursor = 0;  // fresh life: any stale scan position is void
  return block;
}

void BlockManager::set_use(nand::BlockAddress addr, BlockUse use) {
  assert(use != BlockUse::kFree);  // use release() to free a block
  ChipState& chip = per_chip_[addr.chip];
  BlockInfo& bi = chip.blocks[addr.block];
  const BlockUse old = bi.use;
  bi.use = use;
  if (use == BlockUse::kFull) {
    note_full_gain(chip, bi);  // new GC candidate may raise the max
  } else if (old == BlockUse::kFull) {
    chip.gain_dirty = true;  // candidate left the set; max may shrink
  }
}

BlockUse BlockManager::use(nand::BlockAddress addr) const { return info(addr).use; }

void BlockManager::release(nand::BlockAddress addr) {
  ChipState& chip = per_chip_[addr.chip];
  BlockInfo& bi = chip.blocks[addr.block];
  assert(bi.use != BlockUse::kFree);
  assert(bi.valid_pages == 0);
  if (bi.use == BlockUse::kFull) chip.gain_dirty = true;
  bi.use = BlockUse::kFree;
  bi.valid_pages = 0;
  bi.written_pages = 0;
  bi.gc_cursor = 0;
  chip.free.push_back(addr.block);
}

void BlockManager::retire(nand::BlockAddress addr) {
  ChipState& chip = per_chip_[addr.chip];
  BlockInfo& bi = chip.blocks[addr.block];
  assert(bi.use != BlockUse::kRetired);
  assert(bi.valid_pages == 0);
  if (bi.use == BlockUse::kFree) {
    const std::size_t at = chip.free.find(addr.block);
    assert(at < chip.free.size());
    chip.free.erase_at(at);
  }
  if (bi.use == BlockUse::kFull) chip.gain_dirty = true;
  bi.use = BlockUse::kRetired;
  bi.valid_pages = 0;
  bi.written_pages = 0;
  bi.gc_cursor = 0;
}

std::uint32_t BlockManager::retired_blocks(std::uint32_t chip) const {
  std::uint32_t retired = 0;
  for (const BlockInfo& bi : per_chip_.at(chip).blocks) {
    if (bi.use == BlockUse::kRetired) ++retired;
  }
  return retired;
}

void BlockManager::reclaim(nand::BlockAddress addr, BlockUse use) {
  assert(use != BlockUse::kFree);
  ChipState& chip = per_chip_[addr.chip];
  BlockInfo& bi = chip.blocks[addr.block];
  if (bi.use != BlockUse::kFree) return;
  const std::size_t at = chip.free.find(addr.block);
  assert(at < chip.free.size());
  chip.free.erase_at(at);
  bi.use = use;
  // Every page of the block was written before its (voided) erase was
  // issued; valid counts are restored by the caller's mapping fixups.
  bi.written_pages = pages_per_block_;
  bi.valid_pages = 0;
  bi.gc_cursor = 0;
  if (use == BlockUse::kFull) note_full_gain(chip, bi);
}

void BlockManager::remove_valid(nand::BlockAddress addr) {
  ChipState& chip = per_chip_[addr.chip];
  BlockInfo& bi = chip.blocks[addr.block];
  assert(bi.valid_pages > 0);
  --bi.valid_pages;
  --chip.valid_pages;
  // Invalidation raises a full block's reclaim gain; keep the cache exact.
  if (bi.use == BlockUse::kFull) note_full_gain(chip, bi);
}

std::uint64_t BlockManager::total_free_blocks() const {
  std::uint64_t total = 0;
  for (const ChipState& chip : per_chip_) total += chip.free.size();
  return total;
}

std::optional<std::uint32_t> BlockManager::pick_victim(std::uint32_t chip) const {
  // The cached maximum makes this a first-hit scan: the earliest kFull
  // block attaining it is exactly the block the greedy max scan returned
  // (strict-greater kept the first of equal maxima).
  const std::uint32_t best_invalid = best_victim_gain(chip);
  if (best_invalid == 0) return std::nullopt;
  const ChipState& state = per_chip_[chip];
  for (std::uint32_t b = 0; b < state.blocks.size(); ++b) {
    const BlockInfo& bi = state.blocks[b];
    if (bi.use != BlockUse::kFull) continue;
    if (bi.written_pages - bi.valid_pages == best_invalid) return b;
  }
  assert(false && "gain cache out of sync with block set");
  return std::nullopt;
}

std::uint32_t BlockManager::best_victim_gain(std::uint32_t chip) const {
  assert(chip < per_chip_.size());
  const ChipState& state = per_chip_[chip];
  if (state.gain_dirty) {
    std::uint32_t best_invalid = 0;
    for (const BlockInfo& bi : state.blocks) {
      if (bi.use != BlockUse::kFull) continue;
      best_invalid = std::max(best_invalid, bi.written_pages - bi.valid_pages);
    }
    state.best_gain = best_invalid;
    state.gain_dirty = false;
  }
  return state.best_gain;
}

void BlockManager::save(ser::Writer& w) const {
  w.u64(per_chip_.size());
  for (const ChipState& chip : per_chip_) {
    w.u64(chip.blocks.size());
    for (const BlockInfo& bi : chip.blocks) {
      w.u8(static_cast<std::uint8_t>(bi.use));
      w.u32(bi.valid_pages);
      w.u32(bi.written_pages);
    }
    w.u64(chip.free.size());
    for (std::size_t i = 0; i < chip.free.size(); ++i) w.u32(chip.free[i]);
    w.u64(chip.valid_pages);
  }
}

void BlockManager::load(ser::Reader& r) {
  if (r.u64() != per_chip_.size()) {
    r.fail();
    return;
  }
  std::vector<bool> listed;  // per chip: the block is on the free list
  for (ChipState& chip : per_chip_) {
    if (r.u64() != chip.blocks.size()) {
      r.fail();
      return;
    }
    // Counts above a block's page count and free-list entries past the
    // chip's block count would index out of bounds in the next
    // allocation or GC pass: reject them. The pools must also agree with
    // the blocks, since allocate() hands out the front of the free list
    // unchecked and GC trusts the counts: no block has more valid than
    // written pages, kFree and kRetired blocks hold none, the free list
    // names every kFree block exactly once, and the chip's valid total
    // is the sum of its blocks'.
    std::uint64_t valid = 0;
    std::uint64_t free_blocks = 0;
    for (BlockInfo& bi : chip.blocks) {
      const std::uint8_t raw = r.u8();
      bi.valid_pages = r.u32();
      bi.written_pages = r.u32();
      bi.use = static_cast<BlockUse>(raw);
      const bool empty = bi.use == BlockUse::kFree || bi.use == BlockUse::kRetired;
      if (raw > static_cast<std::uint8_t>(BlockUse::kRetired) ||
          bi.written_pages > pages_per_block_ || bi.valid_pages > bi.written_pages ||
          (empty && bi.written_pages != 0)) {
        r.fail();
        return;
      }
      bi.gc_cursor = 0;  // conservative: restored blocks rescan from 0
      valid += bi.valid_pages;
      free_blocks += bi.use == BlockUse::kFree;
    }
    chip.free.clear();
    const std::uint64_t free = r.u64();
    if (free != free_blocks || free > r.remaining()) {
      r.fail();
      return;
    }
    listed.assign(chip.blocks.size(), false);
    for (std::uint64_t i = 0; i < free; ++i) {
      const std::uint32_t block = r.u32();
      if (block >= blocks_per_chip_ || chip.blocks[block].use != BlockUse::kFree ||
          listed[block]) {
        r.fail();
        return;
      }
      listed[block] = true;
      chip.free.push_back(block);
    }
    chip.valid_pages = r.u64();
    if (chip.valid_pages != valid) {
      r.fail();
      return;
    }
    chip.gain_dirty = true;
  }
}

}  // namespace rps::ftl
