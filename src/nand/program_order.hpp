// The paper's program-order constraint engine (Section 2), for cells of
// any bit count.
//
// The fixed program sequence (FPS) of 2-bit MLC NAND is formalized as four
// constraints over word lines k and page types:
//
//   C1: before LSB(k), LSB(k-1) must be written          (k >= 1)
//   C2: before MSB(k), MSB(k-1) must be written          (k >= 1)
//   C3: before MSB(k), LSB(k+1) must be written          (k+1 < wordlines)
//   C4: before LSB(k), MSB(k-2) must be written          (k >= 2)
//
// The paper's contribution at the device level is that C4 is an
// over-specification: a sequence satisfying only C1-C3 (a *relaxed* program
// sequence, RPS) accumulates no more cell-to-cell interference than FPS.
//
// The paper (Section 1) notes the idea applies to TLC devices with a
// similar program scheme. A TLC word line holds three pages — LSB, CSB,
// MSB — programmed progressively; its conventional "shadow" sequence is
//
//   T1/T2/T3: LSB, CSB and MSB pages each ascend word lines;
//   T4:       before CSB(k), LSB(k+1) must be written  (k+1 < wordlines);
//   T5:       before MSB(k), CSB(k+1) must be written  (k+1 < wordlines);
//   T6:       before LSB(k), MSB(k-3) must be written  (k >= 3).
//
// Both are one rule over n passes per word line (n = bits per cell):
// pass p of WL(k) requires pass p of WL(k-1) (C1/C2, T1-T3); for p >= 1,
// pass p-1 of WL(k+1) (C3, T4/T5); and, under FPS only, for p = 0 the
// final pass of WL(k-n) (C4, T6). T6 is an over-specification for the
// same reason C4 is: programs to WL(k-3) cannot disturb WL(k). This
// module provides:
//   - per-program legality checking against a block's word-line state,
//   - canonical whole-block order generators (FPS, RPSfull, RPShalf,
//     random RPS, unconstrained random),
//   - order analysis (aggressor counting) used by the reliability study.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/nand/address.hpp"
#include "src/util/random.hpp"
#include "src/util/result.hpp"

namespace rps::nand {

/// Which constraint set a device enforces.
enum class SequenceKind : std::uint8_t {
  kFps,            // C1-C4 / T1-T6 (conventional devices)
  kRps,            // C1-C3 / T1-T5 (the paper's relaxed sequence)
  kUnconstrained,  // physical constraints only (reliability study strawman)
};

constexpr const char* to_string(SequenceKind kind) {
  switch (kind) {
    case SequenceKind::kFps: return "FPS";
    case SequenceKind::kRps: return "RPS";
    case SequenceKind::kUnconstrained: return "Unconstrained";
  }
  return "?";
}

/// Word-line program state of a whole block, independent of data storage:
/// the number of passes each word line has received (0 = erased, `bits`
/// = fully programmed). Passes land strictly in order — a later pass
/// refines the charge states the earlier ones placed. Kept as a separate
/// value type so order generators and the reliability simulator can
/// explore sequences without instantiating device blocks.
class BlockProgramState {
 public:
  explicit BlockProgramState(std::uint32_t wordlines, std::uint32_t bits = 2)
      : passes_(wordlines, 0), bits_(bits) {
    assert(bits >= 2 && bits <= 3);
  }

  [[nodiscard]] std::uint32_t wordlines() const { return static_cast<std::uint32_t>(passes_.size()); }
  [[nodiscard]] std::uint32_t bits() const { return bits_; }
  /// Passes programmed on word line `wl` so far.
  [[nodiscard]] std::uint32_t passes(std::uint32_t wl) const {
    assert(wl < passes_.size());
    return passes_[wl];
  }
  /// True iff `pos` names a page of this block.
  [[nodiscard]] bool contains(PagePos pos) const {
    return pos.wordline < passes_.size() && pass_of(pos.type, bits_) < bits_;
  }

  [[nodiscard]] bool is_programmed(PagePos pos) const {
    return passes(pos.wordline) > pass_of(pos.type, bits_);
  }

  /// Records a program without legality checking (callers check first).
  void mark_programmed(PagePos pos) {
    assert(contains(pos) && passes_[pos.wordline] == pass_of(pos.type, bits_));
    ++passes_[pos.wordline];
  }

  void reset() { std::fill(passes_.begin(), passes_.end(), 0); }

 private:
  std::vector<std::uint8_t> passes_;
  std::uint32_t bits_;
};

/// Validates one page program against `kind`'s constraint set.
///
/// Returns kOk, kAlreadyProgrammed, kNotErased (a pass before the word
/// line's previous one, physically impossible), kOutOfRange, or
/// kSequenceViolation.
///
/// Inline: this is the per-program legality gate on the simulator hot path
/// (multiple invocations per page program before deduplication).
inline Status check_program_legality(const BlockProgramState& block, PagePos pos,
                                     SequenceKind kind) {
  if (!block.contains(pos)) return Status{ErrorCode::kOutOfRange};
  const std::uint32_t n = block.wordlines();
  const std::uint32_t bits = block.bits();
  const std::uint32_t k = pos.wordline;
  const std::uint32_t p = pass_of(pos.type, bits);

  // Physical constraints first: no reprogram, and a pass refines the
  // charge the word line's previous pass placed, so that pass must exist.
  const std::uint32_t done = block.passes(k);
  if (done > p) return Status{ErrorCode::kAlreadyProgrammed};
  if (done < p) return Status{ErrorCode::kNotErased};

  if (kind == SequenceKind::kUnconstrained) return Status::ok();

  // C1/C2, T1-T3: each pass ascends word lines.
  if (k >= 1 && block.passes(k - 1) <= p) return Status{ErrorCode::kSequenceViolation};
  // C3, T4/T5: before pass p of WL(k), pass p-1 of WL(k+1) (when it exists).
  if (p >= 1 && k + 1 < n && block.passes(k + 1) < p) {
    return Status{ErrorCode::kSequenceViolation};
  }
  // C4, T6 (FPS only): before LSB(k), the final pass of WL(k-bits).
  if (kind == SequenceKind::kFps && p == 0 && k >= bits && block.passes(k - bits) < bits) {
    return Status{ErrorCode::kSequenceViolation};
  }
  return Status::ok();
}

/// All pages currently legal to program under `kind`, word line by word
/// line, each word line's pages in pass order. At most a handful for FPS;
/// potentially one page per pass frontier for RPS.
std::vector<PagePos> legal_programs(const BlockProgramState& block, SequenceKind kind);

/// A whole-block program order: a permutation of all bits*wordlines pages.
using ProgramOrder = std::vector<PagePos>;

/// The representative FPS order, one diagonal of the word-line x pass grid
/// at a time (pass 0 of WL(d), pass 1 of WL(d-1), ...). For MLC this is
/// Fig. 2(b): LSB(0), LSB(1), MSB(0), LSB(2), MSB(1), ..., LSB(n-1),
/// MSB(n-2), MSB(n-1); for TLC the shadow order L0 L1 C0, then
/// (L(k+2) C(k+1) M(k)) triples, then C(n-1) M(n-2) M(n-1).
ProgramOrder fps_order(std::uint32_t wordlines, std::uint32_t bits = 2);

/// RPSfull (Fig. 3a): all LSB pages in word-line order, then each later
/// pass in turn. This is the 2PO order flexFTL uses (3PO on TLC).
ProgramOrder rps_full_order(std::uint32_t wordlines, std::uint32_t bits = 2);

/// RPShalf (Fig. 3b, MLC): the first half of the LSB pages are written up
/// front; the remainder interleaves MSB programs with the remaining LSB
/// pages.
ProgramOrder rps_half_order(std::uint32_t wordlines);

/// A uniformly random order that satisfies the RPS constraints: at each
/// step, pick uniformly among the currently legal pages.
ProgramOrder random_rps_order(std::uint32_t wordlines, Rng& rng, std::uint32_t bits = 2);

/// A random order with only the physical pass progression per word line.
/// Used as the reliability study's worst case (Fig. 2a scenario).
ProgramOrder random_unconstrained_order(std::uint32_t wordlines, Rng& rng,
                                        std::uint32_t bits = 2);

/// True iff `order` is a permutation of all pages and every step is legal
/// under `kind`.
bool order_satisfies(const ProgramOrder& order, std::uint32_t wordlines, SequenceKind kind,
                     std::uint32_t bits = 2);

/// Interference exposure of each word line under a given program order.
///
/// The paper's metric (Section 2.1): the cell-to-cell interference seen by
/// WL(k)'s final data is proportional to the number of *aggressor*
/// programs — programs to WL(k-1) or WL(k+1) performed after MSB(k), the
/// final pass. FPS and every RPS order expose each word line to at most
/// one aggressor; unconstrained orders expose up to 2*bits.
struct WordlineExposure {
  std::uint32_t aggressors_after_msb = 0;  // disturbs the final state
  std::uint32_t aggressors_on_lsb = 0;     // neighbor programs between LSB(k) and MSB(k)
};

std::vector<WordlineExposure> analyze_exposure(const ProgramOrder& order,
                                               std::uint32_t wordlines,
                                               std::uint32_t bits = 2);

}  // namespace rps::nand
