#include "src/nand/block.hpp"

#include <algorithm>

#include "src/util/serialize.hpp"

namespace rps::nand {

Block::Block(std::uint32_t wordlines, SequenceKind kind, std::uint32_t bits,
             PayloadTable* payloads)
    : kind_(kind),
      program_state_(wordlines, bits),
      slots_(wordlines * bits),
      payloads_(payloads) {}

void Block::erase() {
  if (payloads_ != nullptr) payloads_->release_valid(slots_);
  std::fill(slots_.begin(), slots_.end(), PageSlot{});
  program_state_.reset();
  programmed_pages_ = 0;
  corrupted_pages_ = 0;
  pass_counts_ = {};
  reads_since_erase_ = 0;
  slc_mode_ = false;
  ++erase_count_;
}

Status Block::set_slc_mode() {
  if (!is_erased()) return Status{ErrorCode::kNotErased};
  slc_mode_ = true;
  return Status::ok();
}

void Block::corrupt(PagePos pos) {
  PageSlot& s = slot(pos);
  if (s.state == PageState::kValid) {
    if (payloads_ != nullptr) payloads_->release(s.record.signature);
    s = PageSlot{PageData{}, PageState::kCorrupted};
    ++corrupted_pages_;
  }
}

void Block::save(ser::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.u64(erase_count_);
  w.u64(reads_since_erase_);
  w.boolean(slc_mode_);
  w.u64(slots_.size());
  save_pages(w, slots_, programmed_pages_ - corrupted_pages_, payloads_);
}

void Block::load(ser::Reader& r) {
  if (r.u8() != static_cast<std::uint8_t>(kind_)) {
    r.fail();
    return;
  }
  erase_count_ = r.u64();
  reads_since_erase_ = r.u64();
  slc_mode_ = r.boolean();
  if (r.u64() != slots_.size()) {
    r.fail();
    return;
  }
  load_pages(r, slots_, payloads_);
  // Word-line program state and the programmed counters are derived from
  // the slot states: a non-erased slot is programmed for ordering
  // purposes, corrupted or not.
  program_state_.reset();
  programmed_pages_ = 0;
  corrupted_pages_ = 0;
  pass_counts_ = {};
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == PageState::kErased) continue;
    const PagePos pos = PagePos::from_flat(i, bits());
    if (pos.type != PageType::kLsb && slots_[i - 1].state == PageState::kErased) {
      // A later pass over an erased earlier one: not a state a device
      // can reach, and mark_programmed asserts on it.
      r.fail();
      return;
    }
    program_state_.mark_programmed(pos);
    ++programmed_pages_;
    if (slots_[i].state == PageState::kCorrupted) ++corrupted_pages_;
    ++pass_counts_[pass_of(pos.type, bits())];
  }
}

std::optional<PagePos> Block::next_in_pass(PageType type) const {
  const std::uint32_t frontier = programmed_in_pass(type);
  if (frontier >= wordlines()) return std::nullopt;
  const PagePos candidate{frontier, type};
  if (!can_program(candidate).is_ok()) return std::nullopt;
  return candidate;
}

}  // namespace rps::nand
