// The adaptive page-allocation decision rule of Section 3.2, verbatim at
// two passes per word line (MLC), and its rotation over three (TLC).
#include "src/core/policy.hpp"

#include <gtest/gtest.h>

namespace rps::core {
namespace {

// Pass indices on MLC, and the `open` mask with the MSB pass open.
constexpr std::uint32_t kLsb = 0;
constexpr std::uint32_t kMsb = 1;
constexpr std::uint32_t kSlowOpen = 1u << kMsb;

PolicyManager make_policy(std::int64_t quota = 10) {
  PolicyManager::Params p;
  p.u_high = 0.8;
  p.u_low = 0.1;
  p.initial_quota = quota;
  p.chips = 2;
  return PolicyManager(p);
}

TEST(PolicyManager, HighUtilizationWithQuotaPicksLsb) {
  PolicyManager policy = make_policy();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(policy.choose(0, 0.9, kSlowOpen), kLsb);
  }
}

TEST(PolicyManager, HighUtilizationWithoutQuotaAlternates) {
  PolicyManager policy = make_policy(0);
  const std::uint32_t first = policy.choose(0, 0.9, kSlowOpen);
  const std::uint32_t second = policy.choose(0, 0.9, kSlowOpen);
  EXPECT_NE(first, second);
  EXPECT_NE(policy.choose(0, 0.9, kSlowOpen), second);
}

TEST(PolicyManager, LowUtilizationPicksMsb) {
  PolicyManager policy = make_policy();
  EXPECT_EQ(policy.choose(0, 0.05, kSlowOpen), kMsb);
}

TEST(PolicyManager, LowUtilizationWithoutSlowBlockFallsBackToLsb) {
  // Footnote 1: if there is no slow block, an LSB page is selected.
  PolicyManager policy = make_policy();
  EXPECT_EQ(policy.choose(0, 0.05, 0), kLsb);
}

TEST(PolicyManager, MidUtilizationAlternates) {
  PolicyManager policy = make_policy();
  int lsb = 0;
  for (int i = 0; i < 10; ++i) {
    if (policy.choose(0, 0.5, kSlowOpen) == kLsb) ++lsb;
  }
  EXPECT_EQ(lsb, 5);
}

TEST(PolicyManager, AlternationIsPerChip) {
  // Chip-interleaved striping must not see a globally flapping toggle:
  // consecutive decisions for the *same* chip alternate.
  PolicyManager policy = make_policy(0);
  const std::uint32_t c0_first = policy.choose(0, 0.5, kSlowOpen);
  const std::uint32_t c1_first = policy.choose(1, 0.5, kSlowOpen);
  const std::uint32_t c0_second = policy.choose(0, 0.5, kSlowOpen);
  const std::uint32_t c1_second = policy.choose(1, 0.5, kSlowOpen);
  EXPECT_NE(c0_first, c0_second);
  EXPECT_NE(c1_first, c1_second);
}

TEST(PolicyManager, QuotaBookkeeping) {
  PolicyManager policy = make_policy(2);
  EXPECT_EQ(policy.quota(), 2);
  policy.note_lsb_write();
  policy.note_lsb_write();
  policy.note_lsb_write();
  EXPECT_EQ(policy.quota(), -1);
  policy.note_msb_write();
  EXPECT_EQ(policy.quota(), 0);
}

TEST(PolicyManager, QuotaCappedAtInitialValue) {
  PolicyManager policy = make_policy(3);
  for (int i = 0; i < 10; ++i) policy.note_msb_write();
  EXPECT_EQ(policy.quota(), 3);
  EXPECT_EQ(policy.initial_quota(), 3);
}

TEST(PolicyManager, QuotaExhaustionSwitchesRegime) {
  // The paper's performance-fluctuation guard: with u high, LSB is used
  // until q runs out, then the policy degrades to alternation.
  PolicyManager policy = make_policy(2);
  EXPECT_EQ(policy.choose(0, 0.95, kSlowOpen), kLsb);
  policy.note_lsb_write();
  EXPECT_EQ(policy.choose(0, 0.95, kSlowOpen), kLsb);
  policy.note_lsb_write();
  // q == 0 now: alternate.
  const std::uint32_t a = policy.choose(0, 0.95, kSlowOpen);
  const std::uint32_t b = policy.choose(0, 0.95, kSlowOpen);
  EXPECT_NE(a, b);
}

TEST(PolicyManager, ThresholdBoundariesExclusive) {
  PolicyManager policy = make_policy();
  // u == u_high is NOT "higher than u_high" -> alternate zone.
  const std::uint32_t a = policy.choose(0, 0.8, kSlowOpen);
  const std::uint32_t b = policy.choose(0, 0.8, kSlowOpen);
  EXPECT_NE(a, b);
  // u == u_low is NOT "lower than u_low" -> alternate zone too.
  const std::uint32_t c = policy.choose(1, 0.1, kSlowOpen);
  const std::uint32_t d = policy.choose(1, 0.1, kSlowOpen);
  EXPECT_NE(c, d);
}

TEST(PolicyManager, TlcRotationSkipsPassesWithNoOpenBlock) {
  PolicyManager::Params p;
  p.initial_quota = 10;
  p.passes = 3;
  PolicyManager policy(p);
  constexpr std::uint32_t kCsbOpen = 1u << 1;
  constexpr std::uint32_t kMsbOpen = 1u << 2;
  // Only pass 0 open: LSB, and the rotation state stays put.
  EXPECT_EQ(policy.choose(0, 0.5, 0), 0u);
  EXPECT_EQ(policy.choose(0, 0.5, 0), 0u);
  // L -> C -> M -> L with every pass open.
  EXPECT_EQ(policy.choose(0, 0.5, kCsbOpen | kMsbOpen), 0u);
  EXPECT_EQ(policy.choose(0, 0.5, kCsbOpen | kMsbOpen), 1u);
  EXPECT_EQ(policy.choose(0, 0.5, kCsbOpen | kMsbOpen), 2u);
  EXPECT_EQ(policy.choose(0, 0.5, kCsbOpen | kMsbOpen), 0u);
  // CSB closed: the turn passes on to MSB, then wraps to LSB.
  EXPECT_EQ(policy.choose(0, 0.5, kMsbOpen), 2u);
  EXPECT_EQ(policy.choose(0, 0.5, kMsbOpen), 0u);
  // Low utilization takes the highest open pass.
  EXPECT_EQ(policy.choose(0, 0.05, kCsbOpen), 1u);
  EXPECT_EQ(policy.choose(0, 0.05, kCsbOpen | kMsbOpen), 2u);
}

}  // namespace
}  // namespace rps::core
