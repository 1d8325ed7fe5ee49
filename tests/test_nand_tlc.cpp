// The TLC (3-pass) case of the program-order engine: constraint T6 is an
// over-specification exactly like MLC constraint 4 — every relaxed-TLC
// order exposes a word line to at most one aggressor program after its
// final pass, the same bound the conventional shadow sequence achieves.
#include "src/nand/program_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace rps::nand {
namespace {

constexpr std::uint32_t kBits = 3;

bool is_permutation_of_all_pages(const ProgramOrder& order, std::uint32_t wordlines) {
  std::set<std::uint32_t> seen;
  for (const PagePos pos : order) seen.insert(pos.flat_index(kBits));
  return order.size() == static_cast<std::size_t>(wordlines) * 3 &&
         seen.size() == order.size();
}

TEST(TlcBlockState, PassProgression) {
  BlockProgramState s(4, kBits);
  EXPECT_FALSE(s.is_programmed({0, PageType::kLsb}));
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_TRUE(s.is_programmed({0, PageType::kLsb}));
  EXPECT_FALSE(s.is_programmed({0, PageType::kCsb}));
  s.mark_programmed({0, PageType::kCsb});
  s.mark_programmed({0, PageType::kMsb});
  EXPECT_TRUE(s.is_programmed({0, PageType::kMsb}));
  EXPECT_EQ(s.passes(0), 3u);
  s.reset();
  EXPECT_EQ(s.passes(0), 0u);
}

TEST(TlcLegality, PhysicalProgressionEnforced) {
  BlockProgramState s(4, kBits);
  // CSB before LSB of the same word line is physically impossible.
  EXPECT_EQ(check_program_legality(s, {0, PageType::kCsb}, SequenceKind::kUnconstrained).code(),
            ErrorCode::kNotErased);
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_EQ(check_program_legality(s, {0, PageType::kLsb}, SequenceKind::kUnconstrained).code(),
            ErrorCode::kAlreadyProgrammed);
}

TEST(TlcLegality, T4RequiresNextLsbBeforeCsb) {
  BlockProgramState s(4, kBits);
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_EQ(check_program_legality(s, {0, PageType::kCsb}, SequenceKind::kRps).code(),
            ErrorCode::kSequenceViolation);
  s.mark_programmed({1, PageType::kLsb});
  EXPECT_TRUE(check_program_legality(s, {0, PageType::kCsb}, SequenceKind::kRps).is_ok());
}

TEST(TlcLegality, T5RequiresNextCsbBeforeMsb) {
  BlockProgramState s(4, kBits);
  for (std::uint32_t k = 0; k < 3; ++k) s.mark_programmed({k, PageType::kLsb});
  s.mark_programmed({0, PageType::kCsb});
  EXPECT_EQ(check_program_legality(s, {0, PageType::kMsb}, SequenceKind::kRps).code(),
            ErrorCode::kSequenceViolation);
  s.mark_programmed({1, PageType::kCsb});
  EXPECT_TRUE(check_program_legality(s, {0, PageType::kMsb}, SequenceKind::kRps).is_ok());
}

TEST(TlcLegality, T6OnlyUnderFps) {
  // The over-specified constraint: LSB(3) before MSB(0) exists.
  BlockProgramState s(6, kBits);
  for (std::uint32_t k = 0; k < 3; ++k) s.mark_programmed({k, PageType::kLsb});
  EXPECT_EQ(check_program_legality(s, {3, PageType::kLsb}, SequenceKind::kFps).code(),
            ErrorCode::kSequenceViolation);
  EXPECT_TRUE(check_program_legality(s, {3, PageType::kLsb}, SequenceKind::kRps).is_ok());
}

TEST(TlcCanonicalOrders, FpsIsNearlyForced) {
  // Unlike MLC FPS (a total order), the TLC constraint set leaves one page
  // of slack: T6's distance is three word lines, so at most two pages are
  // ever simultaneously legal, and the canonical shadow order is always
  // among them.
  const std::uint32_t wordlines = 8;
  BlockProgramState s(wordlines, kBits);
  for (const PagePos pos : fps_order(wordlines, kBits)) {
    const std::vector<PagePos> legal = legal_programs(s, SequenceKind::kFps);
    ASSERT_GE(legal.size(), 1u);
    ASSERT_LE(legal.size(), 2u) << "at " << to_string(pos.type) << "(" << pos.wordline << ")";
    EXPECT_NE(std::find(legal.begin(), legal.end(), pos), legal.end());
    s.mark_programmed(pos);
  }
  // The shadow order itself: L0 L1 C0, (L(k+2) C(k+1) M(k)) triples,
  // then C(n-1) M(n-2) M(n-1).
  const PageType L = PageType::kLsb, C = PageType::kCsb, M = PageType::kMsb;
  EXPECT_EQ(fps_order(4, kBits),
            (ProgramOrder{{0, L}, {1, L}, {0, C}, {2, L}, {1, C}, {0, M},
                          {3, L}, {2, C}, {1, M}, {3, C}, {2, M}, {3, M}}));
}

class TlcOrderValidity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlcOrderValidity, FpsSatisfiesAllSix) {
  const std::uint32_t wl = GetParam();
  const ProgramOrder order = fps_order(wl, kBits);
  EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kFps, kBits));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps, kBits));
}

TEST_P(TlcOrderValidity, RpsFullSatisfiesRpsButNotFps) {
  const std::uint32_t wl = GetParam();
  const ProgramOrder order = rps_full_order(wl, kBits);
  EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps, kBits));
  if (wl >= 4) {
    EXPECT_FALSE(order_satisfies(order, wl, SequenceKind::kFps, kBits));
  }
}

TEST_P(TlcOrderValidity, RandomRpsOrdersValid) {
  const std::uint32_t wl = GetParam();
  Rng rng(wl * 131 + 1);
  for (int trial = 0; trial < 15; ++trial) {
    const ProgramOrder order = random_rps_order(wl, rng, kBits);
    EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
    EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps, kBits));
  }
}

INSTANTIATE_TEST_SUITE_P(Wordlines, TlcOrderValidity,
                         ::testing::Values(2u, 3u, 4u, 8u, 32u, 96u));

class TlcExposure : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlcExposure, FpsExposesAtMostOne) {
  const std::uint32_t wl = GetParam();
  for (const WordlineExposure& e : analyze_exposure(fps_order(wl, kBits), wl, kBits)) {
    EXPECT_LE(e.aggressors_after_msb, 1u);
  }
}

TEST_P(TlcExposure, EveryRpsOrderExposesAtMostOne) {
  // The generalized theorem: T1-T5 already force LSB(k+1)/CSB(k+1) and all
  // of WL(k-1) before MSB(k); only MSB(k+1) can follow.
  const std::uint32_t wl = GetParam();
  Rng rng(wl * 37 + 5);
  for (int trial = 0; trial < 25; ++trial) {
    const ProgramOrder order = random_rps_order(wl, rng, kBits);
    for (const WordlineExposure& e : analyze_exposure(order, wl, kBits)) {
      EXPECT_LE(e.aggressors_after_msb, 1u);
    }
  }
}

TEST_P(TlcExposure, UnconstrainedCanExceedOne) {
  const std::uint32_t wl = GetParam();
  if (wl < 4) return;
  Rng rng(wl * 41 + 9);
  std::uint32_t worst = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ProgramOrder order = random_unconstrained_order(wl, rng, kBits);
    for (const WordlineExposure& e : analyze_exposure(order, wl, kBits)) {
      worst = std::max(worst, e.aggressors_after_msb);
    }
  }
  EXPECT_GT(worst, 1u);
  EXPECT_LE(worst, 6u);  // 3 pages on each of 2 neighbors
}

INSTANTIATE_TEST_SUITE_P(Wordlines, TlcExposure, ::testing::Values(2u, 4u, 8u, 32u));

TEST(TlcRpsCapability, AllLsbPagesBeforeAnyOtherPass) {
  // The payoff the paper projects onto TLC: under T1-T5, a block's entire
  // LSB capacity is writable consecutively (the fast phase triples).
  const std::uint32_t wl = 16;
  BlockProgramState s(wl, kBits);
  for (std::uint32_t k = 0; k < wl; ++k) {
    ASSERT_TRUE(check_program_legality(s, {k, PageType::kLsb}, SequenceKind::kRps).is_ok())
        << k;
    s.mark_programmed({k, PageType::kLsb});
  }
  // Under TLC-FPS the same run is cut off at the fourth LSB page.
  BlockProgramState f(wl, kBits);
  f.mark_programmed({0, PageType::kLsb});
  f.mark_programmed({1, PageType::kLsb});
  f.mark_programmed({2, PageType::kLsb});
  EXPECT_EQ(check_program_legality(f, {3, PageType::kLsb}, SequenceKind::kFps).code(),
            ErrorCode::kSequenceViolation);
}

}  // namespace
}  // namespace rps::nand
