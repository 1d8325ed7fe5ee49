#include "src/nand/chip.hpp"

#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::nand {

Chip::Chip(std::uint32_t blocks, std::uint32_t wordlines, SequenceKind kind,
           const TimingSpec& timing, std::uint32_t bits, PayloadTable* payloads)
    : timing_(timing) {
  blocks_.reserve(blocks);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    blocks_.emplace_back(wordlines, kind, bits, payloads);
  }
  wear_.resize(blocks);  // preallocated up front: the ledger never grows
}

void Chip::settle_erases_slow(Microseconds now) {
  // An erase that started by the present can never be voided (a power
  // loss is always injected at or after the current wall clock), so its
  // cell reset is safe to apply. One charged to start in the future must
  // stay pending: a cut landing before its start voids it. Compact
  // in-place — this runs on the program/read hot path and must not
  // allocate.
  std::size_t kept = 0;
  for (PendingErase& pending : pending_erases_) {
    if (pending.start <= now) {
      blocks_[pending.block].erase();
    } else {
      pending_erases_[kept++] = pending;
    }
  }
  pending_erases_.resize(kept);
}

void Chip::materialize_erase_slow(std::uint32_t b) const {
  // Logically const: ops serialize on the chip timeline, so an op touching
  // block `b` is charged after any pending erase of `b` completed.
  Chip& self = const_cast<Chip&>(*this);
  std::size_t kept = 0;
  for (PendingErase& pending : self.pending_erases_) {
    if (pending.block == b) {
      self.blocks_[b].erase();
    } else {
      self.pending_erases_[kept++] = pending;
    }
  }
  self.pending_erases_.resize(kept);
}

Result<OpTiming> Chip::program(std::uint32_t b, PagePos pos, PageData data, Microseconds now) {
  if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
  settle_erases(now);
  materialize_erase(b);
  // Validate before touching the timeline so a rejected program is free.
  const Status legal = blocks_[b].can_program(pos);
  if (!legal.is_ok()) return legal.code();
  return commit_program(b, pos, data, now);
}

Result<OpTiming> Chip::erase(std::uint32_t b, Microseconds now) {
  if (b >= blocks_.size()) return ErrorCode::kOutOfRange;
  settle_erases(now);
  materialize_erase(b);
  const Microseconds start = occupy(now, timing_.erase_us);
  // Lazy destruction (see header): charge the timeline (and the counter)
  // now, reset the cells only once the erase provably started — so a
  // power cut landing before `start` voids it and the data survives.
  ++counters_.erases;
  const WriteCause cause = attr_ != nullptr ? attr_->cause : WriteCause::kHost;
  if (attr_ != nullptr) attr_->note_erase();
  // Ledger charge mirrors the counter; the pending record keeps what a
  // voiding power loss must restore (cause bucket, previous last-erase).
  pending_erases_.push_back({b, start, cause, wear_[b].last_erase_us});
  ++wear_[b].erases;
  wear_[b].last_erase_us = start;
  return OpTiming{start, busy_until_};
}

std::uint64_t Chip::total_erase_count() const {
  // Pending erases are committed on the timeline; count them without
  // forcing their (still voidable) cell resets.
  std::uint64_t total = pending_erases_.size();
  for (const Block& b : blocks_) total += b.erase_count();
  return total;
}

std::optional<Chip::InFlightProgram> Chip::program_in_flight_at(Microseconds t) const {
  if (last_program_ && last_program_->start <= t && t < last_program_->complete) {
    return last_program_;
  }
  return std::nullopt;
}

std::optional<Chip::InFlightProgram> Chip::apply_power_loss(Microseconds t) {
  // Settle charged erases against the cut. One that started by `t` really
  // destroyed the block (an interrupted erase leaves garbage, and every
  // valid page was relocated — durably, by per-chip serialization —
  // before the erase was issued). One charged to start after `t` never
  // began: void it, so the block's data survives the cut — it may hold
  // the only copy of a page whose relocation was interrupted.
  {
    std::vector<PendingErase> pending;
    pending.swap(pending_erases_);
    for (const PendingErase& erase : pending) {
      if (erase.start <= t) {
        blocks_[erase.block].erase();
      } else {
        // Charged at issue; the erase never happened. Roll back the
        // counter, the attribution bucket it was charged under (the FTL's
        // cause scope may have moved on since), and the ledger — at most
        // one pending erase per block exists, so the saved previous
        // last-erase time is exact.
        --counters_.erases;
        if (attr_ != nullptr) attr_->void_erase(erase.cause);
        --wear_[erase.block].erases;
        wear_[erase.block].last_erase_us = erase.prev_last_erase;
      }
    }
  }
  // Power is gone: the chip stops dead at t. The timeline cannot extend
  // past the cut — whatever was charged beyond it never executed.
  busy_until_ = std::min(busy_until_, t);
  if (!last_program_ || last_program_->complete <= t) {
    last_program_.reset();
    return std::nullopt;
  }
  // Any program not complete by t is destroyed: the one mid-flight, or one
  // charged to start after t inside a synchronous GC/backup sequence (its
  // cells were never touched, but the model wrote eagerly — report it as a
  // victim so the FTL can roll the phantom write back).
  const InFlightProgram in_flight = *last_program_;
  last_program_.reset();
  Block& block = blocks_[in_flight.block];
  // The interrupted program itself never completed.
  block.corrupt(in_flight.pos);
  // Destructive multi-pass programming: the lower pages' Vth states were
  // mid-rearrangement, so their previously valid data is lost (Section 1).
  const std::uint32_t bits = block.bits();
  for (std::uint32_t p = 0; p < pass_of(in_flight.pos.type, bits); ++p) {
    block.corrupt({in_flight.pos.wordline, type_of_pass(p, bits)});
  }
  return in_flight;
}

void Chip::save(ser::Writer& w) const {
  // Serialize blocks_ directly, NOT through block(): the accessor
  // materializes pending erases, and the lazy/settled distinction is
  // observable (a power loss before a pending erase's start voids it).
  w.u64(blocks_.size());
  for (const Block& b : blocks_) b.save(w);
  w.i64(busy_until_);
  w.i64(busy_total_);
  w.u64(counters_.reads);
  w.u64(counters_.lsb_programs);
  w.u64(counters_.msb_programs);
  w.u64(counters_.erases);
  w.boolean(last_program_.has_value());
  if (last_program_) {
    w.u32(last_program_->block);
    w.u32(last_program_->pos.wordline);
    w.u8(static_cast<std::uint8_t>(last_program_->pos.type));
    w.i64(last_program_->start);
    w.i64(last_program_->complete);
  }
  w.u64(pending_erases_.size());
  for (const PendingErase& pe : pending_erases_) {
    w.u32(pe.block);
    w.i64(pe.start);
    w.u8(static_cast<std::uint8_t>(pe.cause));
    w.i64(pe.prev_last_erase);
  }
  for (const BlockWear& wear : wear_) rps::nand::save(w, wear);
}

void Chip::load(ser::Reader& r) {
  if (r.u64() != blocks_.size()) {
    r.fail();
    return;
  }
  for (Block& b : blocks_) b.load(r);
  busy_until_ = r.i64();
  busy_total_ = r.i64();
  counters_.reads = r.u64();
  counters_.lsb_programs = r.u64();
  counters_.msb_programs = r.u64();
  counters_.erases = r.u64();
  // Block indices and enum bytes index arrays later (power loss, lazy
  // erase settling, attribution): reject out-of-range values here even
  // when the stream's checksum holds.
  last_program_.reset();
  if (r.boolean()) {
    InFlightProgram p;
    p.block = r.u32();
    p.pos.wordline = r.u32();
    const std::uint8_t type = r.u8();
    p.start = r.i64();
    p.complete = r.i64();
    p.pos.type = static_cast<PageType>(type);
    if (p.block >= blocks_.size() || type > static_cast<std::uint8_t>(PageType::kCsb) ||
        !blocks_[p.block].contains(p.pos)) {
      r.fail();
      return;
    }
    last_program_ = p;
  }
  pending_erases_.clear();
  const std::uint64_t pending = r.u64();
  if (pending > r.remaining()) {
    r.fail();
    return;
  }
  pending_erases_.reserve(static_cast<std::size_t>(pending));
  for (std::uint64_t i = 0; i < pending; ++i) {
    PendingErase pe;
    pe.block = r.u32();
    pe.start = r.i64();
    const std::uint8_t cause = r.u8();
    pe.prev_last_erase = r.i64();
    if (pe.block >= blocks_.size() || cause >= kNumWriteCauses) {
      r.fail();
      return;
    }
    pe.cause = static_cast<WriteCause>(cause);
    pending_erases_.push_back(pe);
  }
  for (BlockWear& wear : wear_) rps::nand::load(r, wear);
}

}  // namespace rps::nand
