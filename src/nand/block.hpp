// One NAND block: word-line program state, stored page contents, wear.
//
// The block enforces the active program-sequence policy on every program;
// an FTL physically cannot violate the device's constraint set. Page
// contents are stored as fixed 32-byte records (page.hpp) in 40-byte
// page slots, so large simulations stay small in memory; optional payload
// bytes live in the owning device's PayloadTable, which the block keeps
// referenced as pages come and go.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/nand/address.hpp"
#include "src/nand/page.hpp"
#include "src/nand/program_order.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

class Block {
 public:
  /// A block of `wordlines` word lines of `bits`-bit cells. `payloads`
  /// is the owning device's payload table (null for a standalone block,
  /// which then carries no payload bytes).
  Block(std::uint32_t wordlines, SequenceKind kind, std::uint32_t bits = 2,
        PayloadTable* payloads = nullptr);

  [[nodiscard]] std::uint32_t wordlines() const { return program_state_.wordlines(); }
  [[nodiscard]] std::uint32_t bits() const { return program_state_.bits(); }
  [[nodiscard]] std::uint32_t num_pages() const { return wordlines() * bits(); }
  [[nodiscard]] SequenceKind sequence_kind() const { return kind_; }
  /// True iff `pos` names a page of this block.
  [[nodiscard]] bool contains(PagePos pos) const { return program_state_.contains(pos); }

  /// Legality of programming `pos` next, without performing it.
  [[nodiscard]] Status can_program(PagePos pos) const {
    if (slc_mode_) {
      if (pos.type != PageType::kLsb) return Status{ErrorCode::kSequenceViolation};
      // LSB pages only, ascending (constraint 1); no cross-type constraints.
      return check_program_legality(program_state_, pos, SequenceKind::kRps);
    }
    return check_program_legality(program_state_, pos, kind_);
  }

  /// Program a page; fails (and changes nothing) if the order is illegal.
  Status program(PagePos pos, const PageData& data) {
    const Status legal = can_program(pos);
    if (!legal.is_ok()) return legal;
    store_programmed(pos, data);
    return Status::ok();
  }

  /// Program a page whose legality the caller has already established via
  /// can_program() on this exact block state (the device's resolve step).
  /// Skips the redundant re-validation; asserts the physical invariant.
  void program_prechecked(PagePos pos, const PageData& data) {
    assert(!program_state_.is_programmed(pos));
    store_programmed(pos, data);
  }

  /// Sense a page without copying its record: ok for an intact page,
  /// kNotProgrammed for an erased one, kEccUncorrectable for one a power
  /// loss destroyed. The outcome comes from the word-line program state;
  /// the page slot is loaded only while the block holds a corrupted page.
  /// Counts toward reads_since_erase, like every sensing pass.
  [[nodiscard]] Status sense(PagePos pos) const {
    if (!contains(pos)) return Status{ErrorCode::kOutOfRange};
    ++reads_since_erase_;
    if (!program_state_.is_programmed(pos)) return Status{ErrorCode::kNotProgrammed};
    if (corrupted_pages_ != 0 && slot(pos).state == PageState::kCorrupted) {
      return Status{ErrorCode::kEccUncorrectable};
    }
    return Status::ok();
  }

  /// Read a page: sense() plus a copy of the stored record.
  [[nodiscard]] Result<PageData> read(PagePos pos) const {
    const Status sensed = sense(pos);
    if (!sensed.is_ok()) return sensed.code();
    return record(pos);
  }

  /// The record of a page sense() just found intact. Senses nothing and
  /// counts no read: the copy half of a read whose sensing the caller
  /// has already charged.
  [[nodiscard]] const PageData& record(PagePos pos) const {
    assert(slot(pos).state == PageState::kValid);
    return slot(pos).record;
  }

  /// Zero-copy read: the stored record in place, or nullptr unless the
  /// page is kValid. Counts toward reads_since_erase exactly like read()
  /// — it models the same sensing pass, so scrub thresholds see it — and
  /// the pointer is invalidated by the next program/erase/corrupt of this
  /// block. For hot paths (GC validity tests, mapping rebuild, oracle
  /// audits) that only inspect the record.
  [[nodiscard]] const PageData* peek(PagePos pos) const {
    if (!contains(pos)) return nullptr;
    ++reads_since_erase_;
    const PageSlot& s = slot(pos);
    return s.state == PageState::kValid ? &s.record : nullptr;
  }

  /// The LPN field of flat page slot `index` in any page state
  /// (kInvalidLpn once erased): a prefetch hint. Unlike peek(), it senses
  /// nothing, so it leaves reads_since_erase alone.
  [[nodiscard]] Lpn lpn_hint(std::uint32_t index) const {
    assert(index < slots_.size());
    return slots_[index].record.lpn;
  }

  /// Raw page state (for FTL bookkeeping and tests).
  [[nodiscard]] PageState page_state(PagePos pos) const { return slot(pos).state; }
  [[nodiscard]] bool is_programmed(PagePos pos) const {
    return program_state_.is_programmed(pos);
  }

  /// Erase the whole block, incrementing wear. Clears SLC mode.
  void erase();

  /// Put the (erased) block into SLC mode: only its LSB pages are used, in
  /// ascending word-line order, each at LSB program speed; later passes are
  /// rejected. Real MLC parts expose this per-block mode, and FPS-based
  /// FTLs use it for backup blocks, where MLC ordering constraints would
  /// otherwise forbid consecutive fast writes. Returns kNotErased if the
  /// block already holds data.
  Status set_slc_mode();
  [[nodiscard]] bool slc_mode() const { return slc_mode_; }

  /// Destroy a programmed page's contents (power-loss injection). The page
  /// still counts as programmed for ordering purposes.
  void corrupt(PagePos pos);

  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  /// Read operations since the last erase — the read-disturb exposure that
  /// scrubbing policies act on (every sensing pass stresses the block).
  [[nodiscard]] std::uint64_t reads_since_erase() const { return reads_since_erase_; }
  [[nodiscard]] std::uint32_t programmed_pages() const { return programmed_pages_; }
  /// Pages of type `type` programmed so far (its pass's frontier).
  [[nodiscard]] std::uint32_t programmed_in_pass(PageType type) const {
    return pass_counts_[pass_of(type, bits())];
  }
  [[nodiscard]] bool is_fully_programmed() const {
    return programmed_pages_ == num_pages();
  }
  [[nodiscard]] bool is_erased() const { return programmed_pages_ == 0; }

  /// Next LSB page in ascending word-line order, if any. C1 forces
  /// ascending LSB order, so the frontier is the count of LSB-programmed
  /// word lines (under FPS it may still wait on C4).
  [[nodiscard]] std::optional<PagePos> next_lsb() const {
    if (pass_counts_[0] >= wordlines()) return std::nullopt;
    return PagePos{pass_counts_[0], PageType::kLsb};
  }
  /// Next legal page of type `type` in ascending word-line order, if any.
  /// Under RPS these are the per-pass frontiers flexFTL consumes.
  [[nodiscard]] std::optional<PagePos> next_in_pass(PageType type) const;

  /// Snapshot support: serialize / restore the full mutable state (page
  /// slots, program state, wear, read-disturb exposure, SLC mode) — the
  /// page slots in one pass (save_pages / load_pages). The target block
  /// must have the same shape (wordlines, bits, sequence kind).
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  [[nodiscard]] const PageSlot& slot(PagePos pos) const {
    return slots_[pos.flat_index(bits())];
  }
  [[nodiscard]] PageSlot& slot(PagePos pos) { return slots_[pos.flat_index(bits())]; }

  void store_programmed(PagePos pos, const PageData& data) {
    program_state_.mark_programmed(pos);
    slot(pos) = PageSlot{data, PageState::kValid};
    if (payloads_ != nullptr) payloads_->retain_existing(data.signature);
    ++programmed_pages_;
    ++pass_counts_[pass_of(pos.type, bits())];
  }

  SequenceKind kind_;
  BlockProgramState program_state_;
  std::vector<PageSlot> slots_;  // per page, flat-indexed
  PayloadTable* payloads_;       // borrowed from the device; may be null
  std::uint64_t erase_count_ = 0;
  mutable std::uint64_t reads_since_erase_ = 0;
  std::uint32_t programmed_pages_ = 0;   // valid + corrupted
  std::uint32_t corrupted_pages_ = 0;
  std::array<std::uint32_t, 3> pass_counts_{};  // programmed pages per pass
  bool slc_mode_ = false;
};

}  // namespace rps::nand
