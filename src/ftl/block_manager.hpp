// Per-chip block bookkeeping shared by all FTLs: free lists, block roles,
// valid-page counts and greedy victim selection.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/nand/address.hpp"
#include "src/util/result.hpp"
#include "src/util/ring_buffer.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::ftl {

/// How a block is currently used by the FTL.
enum class BlockUse : std::uint8_t {
  kFree = 0,
  kActive,   // host/GC data being appended (fast or slow phase)
  kFull,     // completely written, GC candidate
  kBackup,   // holds parity / paired-page backup pages
  kRetired,  // went bad with no spare left; permanently out of service
};

class BlockManager {
 public:
  BlockManager(std::uint32_t chips, std::uint32_t blocks_per_chip,
               std::uint32_t pages_per_block);

  [[nodiscard]] std::uint32_t chips() const { return static_cast<std::uint32_t>(per_chip_.size()); }
  [[nodiscard]] std::uint32_t blocks_per_chip() const { return blocks_per_chip_; }
  [[nodiscard]] std::uint32_t pages_per_block() const { return pages_per_block_; }

  /// Allocate a free block on `chip`. Host allocations respect `reserve`
  /// (they fail when at most `reserve` free blocks remain, leaving room for
  /// GC); pass reserve = 0 for GC's own allocations.
  Result<std::uint32_t> allocate(std::uint32_t chip, BlockUse use, std::uint32_t reserve);

  /// Move a block between roles (e.g. kActive -> kFull when it fills).
  void set_use(nand::BlockAddress addr, BlockUse use);
  [[nodiscard]] BlockUse use(nand::BlockAddress addr) const;

  /// Return an erased block to the free pool.
  void release(nand::BlockAddress addr);

  /// Permanently remove a block from service: it went bad and the device
  /// had no spare left to remap it onto. Works from any role (a free
  /// block is pulled out of the free pool; an in-use block must already
  /// hold no valid pages). The chip's usable capacity shrinks by one
  /// block — effective overprovisioning attrition, never undone.
  void retire(nand::BlockAddress addr);

  /// Retired blocks on `chip` (capacity-attrition observability).
  [[nodiscard]] std::uint32_t retired_blocks(std::uint32_t chip) const;

  /// Pull a specific block back out of the free pool: crash recovery
  /// found live data in it (its erase was voided by a power loss that
  /// landed before the erase began). The block re-enters as `use` with
  /// every page accounted written; valid-page counts are re-added by the
  /// caller's mapping fixups. No-op unless the block is free.
  void reclaim(nand::BlockAddress addr, BlockUse use);

  /// Valid-page accounting (driven by mapping updates).
  void add_valid(nand::BlockAddress addr) {
    ChipState& chip = per_chip_[addr.chip];
    BlockInfo& bi = chip.blocks[addr.block];
    ++bi.valid_pages;
    ++chip.valid_pages;
    // A full block gaining a valid page loses reclaim gain; the cached
    // per-chip maximum may shrink, so it must be recomputed on demand.
    if (bi.use == BlockUse::kFull) chip.gain_dirty = true;
  }
  void remove_valid(nand::BlockAddress addr);
  [[nodiscard]] std::uint32_t valid_pages(nand::BlockAddress addr) const {
    return info(addr).valid_pages;
  }
  /// Total valid pages on a chip. The chip's write headroom —
  /// physical pages minus this — is what host-write placement balances.
  [[nodiscard]] std::uint64_t chip_valid_pages(std::uint32_t chip) const {
    assert(chip < per_chip_.size());
    return per_chip_[chip].valid_pages;
  }

  /// Written-page accounting (monotonic until erase).
  void add_written(nand::BlockAddress addr) {
    ChipState& chip = per_chip_[addr.chip];
    BlockInfo& bi = chip.blocks[addr.block];
    ++bi.written_pages;
    if (bi.use == BlockUse::kFull) note_full_gain(chip, bi);
  }
  [[nodiscard]] std::uint32_t written_pages(nand::BlockAddress addr) const {
    return info(addr).written_pages;
  }

  [[nodiscard]] std::uint32_t free_blocks(std::uint32_t chip) const {
    assert(chip < per_chip_.size());
    return static_cast<std::uint32_t>(per_chip_[chip].free.size());
  }
  [[nodiscard]] std::uint64_t total_free_blocks() const;
  [[nodiscard]] double free_fraction(std::uint32_t chip) const {
    return static_cast<double>(free_blocks(chip)) / blocks_per_chip_;
  }

  /// Greedy victim selection among kFull blocks of `chip`: the block with
  /// the most invalid pages. Blocks with no invalid page are not victims
  /// (relocating them reclaims nothing).
  [[nodiscard]] std::optional<std::uint32_t> pick_victim(std::uint32_t chip) const;

  /// Invalid pages of a chip's best victim (0 if none).
  [[nodiscard]] std::uint32_t best_victim_gain(std::uint32_t chip) const;

  /// GC scan-resume cursor: the first wordline of `addr` that might still
  /// hold a valid page. Pages below it were seen invalid (or relocated) by
  /// an earlier scan of this block life — on a kFull block neither can
  /// come back, so resuming there skips exactly the pages a fresh scan
  /// would skip one by one. Purely an accelerator: never serialized
  /// (snapshots restore it to 0, a conservative full rescan) and reset
  /// whenever the block changes life (allocate/release/retire/reclaim).
  /// A reboot that revives a relocated page (flexFTL's roll-back, the
  /// mapping rebuild) rewinds it to that page's word line.
  [[nodiscard]] std::uint32_t gc_cursor(nand::BlockAddress addr) const {
    return info(addr).gc_cursor;
  }
  void set_gc_cursor(nand::BlockAddress addr, std::uint32_t wl) {
    info(addr).gc_cursor = wl;
  }

  /// Snapshot support. Free lists are FIFO rings whose ORDER is behavior
  /// (allocation round-trips through them FIFO), so they serialize
  /// front-to-back verbatim.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  struct BlockInfo {
    BlockUse use = BlockUse::kFree;
    std::uint32_t valid_pages = 0;
    std::uint32_t written_pages = 0;
    std::uint32_t gc_cursor = 0;  // see gc_cursor(); not serialized
  };
  struct ChipState {
    std::vector<BlockInfo> blocks;
    RingBuffer<std::uint32_t> free;
    std::uint64_t valid_pages = 0;
    // Cached best_victim_gain(): max invalid pages over kFull blocks. The
    // cache is exact while clean; events that can only *raise* a block's
    // gain update it in place (note_full_gain), events that may lower the
    // maximum (a full block leaving the set or gaining a valid page) mark
    // it dirty for a lazy O(blocks) rescan. Queried once per host write by
    // the incremental-GC pacing check, so it must not rescan every call.
    mutable std::uint32_t best_gain = 0;
    mutable bool gain_dirty = true;
  };

  [[nodiscard]] const BlockInfo& info(nand::BlockAddress addr) const {
    assert(addr.chip < per_chip_.size());
    assert(addr.block < per_chip_[addr.chip].blocks.size());
    return per_chip_[addr.chip].blocks[addr.block];
  }
  [[nodiscard]] BlockInfo& info(nand::BlockAddress addr) {
    assert(addr.chip < per_chip_.size());
    assert(addr.block < per_chip_[addr.chip].blocks.size());
    return per_chip_[addr.chip].blocks[addr.block];
  }

  /// A kFull block's gain grew (valid dropped or written rose): fold it
  /// into the clean cache; a dirty cache will rescan anyway.
  static void note_full_gain(const ChipState& chip, const BlockInfo& bi) {
    if (!chip.gain_dirty) {
      chip.best_gain = std::max(chip.best_gain, bi.written_pages - bi.valid_pages);
    }
  }

  std::uint32_t blocks_per_chip_;
  std::uint32_t pages_per_block_;
  std::vector<ChipState> per_chip_;
};

}  // namespace rps::ftl
