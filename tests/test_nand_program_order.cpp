// Tests for the paper's core device-level claim: the FPS scheme is
// constraints 1-4, RPS drops only constraint 4, and every RPS order keeps
// the post-MSB aggressor count per word line at the FPS level (<= 1).
#include "src/nand/program_order.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/util/random.hpp"

namespace rps::nand {
namespace {

bool is_permutation_of_all_pages(const ProgramOrder& order, std::uint32_t wordlines) {
  std::set<std::uint32_t> seen;
  for (const PagePos pos : order) seen.insert(pos.flat_index());
  return order.size() == static_cast<std::size_t>(wordlines) * 2 &&
         seen.size() == order.size();
}

TEST(BlockProgramState, TracksWordlineStates) {
  BlockProgramState s(4);
  EXPECT_EQ(s.passes(0), 0u);
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_EQ(s.passes(0), 1u);
  EXPECT_TRUE(s.is_programmed({0, PageType::kLsb}));
  EXPECT_FALSE(s.is_programmed({0, PageType::kMsb}));
  s.mark_programmed({0, PageType::kMsb});
  EXPECT_EQ(s.passes(0), 2u);
  EXPECT_TRUE(s.is_programmed({0, PageType::kMsb}));
  s.reset();
  EXPECT_EQ(s.passes(0), 0u);
  // An MLC block has no CSB page.
  EXPECT_FALSE(s.contains({0, PageType::kCsb}));
  EXPECT_EQ(check_program_legality(s, {0, PageType::kCsb}, SequenceKind::kUnconstrained).code(),
            ErrorCode::kOutOfRange);
}

TEST(CheckLegality, FirstProgramMustBeLsb0UnderFpsAndRps) {
  for (const SequenceKind kind : {SequenceKind::kFps, SequenceKind::kRps}) {
    BlockProgramState s(4);
    EXPECT_TRUE(check_program_legality(s, {0, PageType::kLsb}, kind).is_ok());
    EXPECT_EQ(check_program_legality(s, {1, PageType::kLsb}, kind).code(),
              ErrorCode::kSequenceViolation);
    // MSB(0) before LSB(0) is physically impossible under any scheme.
    EXPECT_EQ(check_program_legality(s, {0, PageType::kMsb}, kind).code(),
              ErrorCode::kNotErased);
  }
}

TEST(CheckLegality, ReprogramRejected) {
  BlockProgramState s(4);
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_EQ(check_program_legality(s, {0, PageType::kLsb}, SequenceKind::kRps).code(),
            ErrorCode::kAlreadyProgrammed);
}

TEST(CheckLegality, OutOfRangeWordline) {
  BlockProgramState s(4);
  EXPECT_EQ(check_program_legality(s, {4, PageType::kLsb}, SequenceKind::kRps).code(),
            ErrorCode::kOutOfRange);
}

TEST(CheckLegality, Constraint3RequiresNextLsbBeforeMsb) {
  // Program LSB(0), LSB(1): MSB(0) needs LSB(1) -> now legal under both.
  BlockProgramState s(4);
  s.mark_programmed({0, PageType::kLsb});
  EXPECT_EQ(check_program_legality(s, {0, PageType::kMsb}, SequenceKind::kRps).code(),
            ErrorCode::kSequenceViolation);
  s.mark_programmed({1, PageType::kLsb});
  EXPECT_TRUE(check_program_legality(s, {0, PageType::kMsb}, SequenceKind::kRps).is_ok());
  EXPECT_TRUE(check_program_legality(s, {0, PageType::kMsb}, SequenceKind::kFps).is_ok());
}

TEST(CheckLegality, Constraint3RelaxedOnLastWordline) {
  // On the last word line there is no LSB(k+1); MSB(last) becomes legal
  // once all prior constraints hold.
  BlockProgramState s(2);
  s.mark_programmed({0, PageType::kLsb});
  s.mark_programmed({1, PageType::kLsb});
  s.mark_programmed({0, PageType::kMsb});
  EXPECT_TRUE(check_program_legality(s, {1, PageType::kMsb}, SequenceKind::kRps).is_ok());
}

TEST(CheckLegality, Constraint4OnlyUnderFps) {
  // The paper's key relaxation: LSB(k) no longer needs MSB(k-2) first.
  BlockProgramState s(4);
  s.mark_programmed({0, PageType::kLsb});
  s.mark_programmed({1, PageType::kLsb});
  // LSB(2) with MSB(0) unwritten: C4 violation under FPS, fine under RPS.
  EXPECT_EQ(check_program_legality(s, {2, PageType::kLsb}, SequenceKind::kFps).code(),
            ErrorCode::kSequenceViolation);
  EXPECT_TRUE(check_program_legality(s, {2, PageType::kLsb}, SequenceKind::kRps).is_ok());
}

TEST(CheckLegality, UnconstrainedOnlyPhysical) {
  BlockProgramState s(4);
  // Any LSB page first is fine without ordering constraints.
  EXPECT_TRUE(
      check_program_legality(s, {3, PageType::kLsb}, SequenceKind::kUnconstrained).is_ok());
  // But MSB before its paired LSB never is.
  EXPECT_EQ(
      check_program_legality(s, {3, PageType::kMsb}, SequenceKind::kUnconstrained).code(),
      ErrorCode::kNotErased);
}

TEST(LegalPrograms, FpsHasSingleLegalPageAlongItsOrder) {
  // The canonical FPS order should be *forced*: at every step exactly one
  // page is legal under FPS.
  const std::uint32_t wordlines = 8;
  BlockProgramState s(wordlines);
  for (const PagePos pos : fps_order(wordlines)) {
    const std::vector<PagePos> legal = legal_programs(s, SequenceKind::kFps);
    ASSERT_EQ(legal.size(), 1u);
    EXPECT_EQ(legal.front(), pos);
    s.mark_programmed(pos);
  }
}

TEST(LegalPrograms, RpsHasAtMostTwoFrontiers) {
  // Under RPS the legal set is the LSB frontier plus (possibly) the MSB
  // frontier — never more.
  Rng rng(77);
  const std::uint32_t wordlines = 16;
  BlockProgramState s(wordlines);
  for (std::uint32_t step = 0; step < wordlines * 2; ++step) {
    const std::vector<PagePos> legal = legal_programs(s, SequenceKind::kRps);
    ASSERT_GE(legal.size(), 1u);
    ASSERT_LE(legal.size(), 2u);
    s.mark_programmed(legal[rng.next_below(legal.size())]);
  }
}

TEST(CanonicalOrders, FpsOrderMatchesFig2b) {
  // Fig. 2(b): 0=LSB(0), 1=LSB(1), 2=MSB(0), 3=LSB(2), 4=MSB(1), ...
  const ProgramOrder order = fps_order(6);
  const ProgramOrder expected = {
      {0, PageType::kLsb}, {1, PageType::kLsb}, {0, PageType::kMsb},
      {2, PageType::kLsb}, {1, PageType::kMsb}, {3, PageType::kLsb},
      {2, PageType::kMsb}, {4, PageType::kLsb}, {3, PageType::kMsb},
      {5, PageType::kLsb}, {4, PageType::kMsb}, {5, PageType::kMsb}};
  EXPECT_EQ(order, expected);
}

TEST(CanonicalOrders, RpsFullIsAllLsbThenAllMsb) {
  const ProgramOrder order = rps_full_order(4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(order[i].type, PageType::kLsb);
    EXPECT_EQ(order[i].wordline, i);
    EXPECT_EQ(order[i + 4].type, PageType::kMsb);
    EXPECT_EQ(order[i + 4].wordline, i);
  }
}

class OrderValidity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OrderValidity, FpsSatisfiesAllFourConstraints) {
  const std::uint32_t wl = GetParam();
  const ProgramOrder order = fps_order(wl);
  EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kFps));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps));  // FPS ⊂ RPS
}

TEST_P(OrderValidity, RpsFullSatisfiesRpsButNotFps) {
  const std::uint32_t wl = GetParam();
  const ProgramOrder order = rps_full_order(wl);
  EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps));
  if (wl >= 3) {
    // Writing LSB(2) before MSB(0) violates constraint 4.
    EXPECT_FALSE(order_satisfies(order, wl, SequenceKind::kFps));
  }
}

TEST_P(OrderValidity, RpsHalfSatisfiesRps) {
  const std::uint32_t wl = GetParam();
  const ProgramOrder order = rps_half_order(wl);
  EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
  EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps));
}

TEST_P(OrderValidity, RandomRpsOrdersAreValid) {
  const std::uint32_t wl = GetParam();
  Rng rng(wl * 1000 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const ProgramOrder order = random_rps_order(wl, rng);
    EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
    EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kRps));
  }
}

TEST_P(OrderValidity, RandomUnconstrainedOrdersArePermutations) {
  const std::uint32_t wl = GetParam();
  Rng rng(wl * 1000 + 2);
  for (int trial = 0; trial < 20; ++trial) {
    const ProgramOrder order = random_unconstrained_order(wl, rng);
    EXPECT_TRUE(is_permutation_of_all_pages(order, wl));
    EXPECT_TRUE(order_satisfies(order, wl, SequenceKind::kUnconstrained));
  }
}

INSTANTIATE_TEST_SUITE_P(Wordlines, OrderValidity,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u, 16u, 64u, 128u));

class ExposureProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExposureProperty, FpsExposesAtMostOneAggressor) {
  const std::uint32_t wl = GetParam();
  for (const WordlineExposure& e : analyze_exposure(fps_order(wl), wl)) {
    EXPECT_LE(e.aggressors_after_msb, 1u);
  }
}

TEST_P(ExposureProperty, EveryRpsOrderExposesAtMostOneAggressor) {
  // Section 2.2's argument: constraints 1-3 alone already force LSB(k-1),
  // LSB(k), LSB(k+1) and MSB(k-1) before MSB(k); only MSB(k+1) can follow.
  const std::uint32_t wl = GetParam();
  Rng rng(wl * 31 + 7);
  for (int trial = 0; trial < 30; ++trial) {
    const ProgramOrder order = random_rps_order(wl, rng);
    for (const WordlineExposure& e : analyze_exposure(order, wl)) {
      EXPECT_LE(e.aggressors_after_msb, 1u);
    }
  }
}

TEST_P(ExposureProperty, RpsFullAndHalfMatchFpsExposure) {
  const std::uint32_t wl = GetParam();
  const auto fps = analyze_exposure(fps_order(wl), wl);
  for (const ProgramOrder& order : {rps_full_order(wl), rps_half_order(wl)}) {
    const auto rps = analyze_exposure(order, wl);
    for (std::uint32_t k = 0; k < wl; ++k) {
      EXPECT_LE(rps[k].aggressors_after_msb, std::max(1u, fps[k].aggressors_after_msb));
    }
  }
}

TEST_P(ExposureProperty, UnconstrainedOrdersCanExceedOneAggressor) {
  // Fig. 2(a)'s motivation: without ordering constraints some word line
  // sees multiple post-MSB aggressors (up to 4).
  const std::uint32_t wl = GetParam();
  if (wl < 4) return;
  Rng rng(wl * 97 + 3);
  std::uint32_t worst = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const ProgramOrder order = random_unconstrained_order(wl, rng);
    for (const WordlineExposure& e : analyze_exposure(order, wl)) {
      worst = std::max(worst, e.aggressors_after_msb);
    }
  }
  EXPECT_GT(worst, 1u);
  EXPECT_LE(worst, 4u);
}

INSTANTIATE_TEST_SUITE_P(Wordlines, ExposureProperty,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u));

TEST(Exposure, WorstCaseHandConstructed) {
  // Program WL1 fully first, then all its neighbors: WL1 sees 4 aggressors.
  const ProgramOrder order = {
      {0, PageType::kLsb}, {1, PageType::kLsb}, {2, PageType::kLsb},
      {1, PageType::kMsb},  // WL1 complete; everything below aggresses it
      {0, PageType::kMsb}, {2, PageType::kMsb}, {3, PageType::kLsb},
      {3, PageType::kMsb}};
  ASSERT_TRUE(order_satisfies(order, 4, SequenceKind::kUnconstrained));
  const auto exposure = analyze_exposure(order, 4);
  // Aggressors on WL1 after MSB(1): MSB(0), MSB(2), and nothing else
  // adjacent (LSB(0), LSB(2) came before).
  EXPECT_EQ(exposure[1].aggressors_after_msb, 2u);
  EXPECT_EQ(exposure[3].aggressors_after_msb, 0u);
}

TEST(PagePos, FlatIndexRoundTrip) {
  for (std::uint32_t wl = 0; wl < 10; ++wl) {
    for (const PageType t : {PageType::kLsb, PageType::kMsb}) {
      const PagePos pos{wl, t};
      EXPECT_EQ(PagePos::from_flat(pos.flat_index()), pos);
    }
  }
}

TEST(PagePos, ToString) {
  EXPECT_EQ((PagePos{3, PageType::kLsb}).to_string(), "LSB(3)");
  EXPECT_EQ((PagePos{0, PageType::kMsb}).to_string(), "MSB(0)");
}

TEST(SequenceKindNames, Distinct) {
  EXPECT_STREQ(to_string(SequenceKind::kFps), "FPS");
  EXPECT_STREQ(to_string(SequenceKind::kRps), "RPS");
  EXPECT_STREQ(to_string(SequenceKind::kUnconstrained), "Unconstrained");
}

}  // namespace
}  // namespace rps::nand
