// The reliability study on 3-bit cells: relaxed-TLC orders accumulate no
// more interference than the conventional shadow sequence; unconstrained
// orders degrade — the Fig. 4 relation carried to TLC on the shared Vth
// model. The model checks run on both cell types.
#include "src/reliability/study.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace rps::reliability {
namespace {

constexpr std::uint32_t kCells = 384;

/// A fresh-stress TLC study (the TLC model has no calibrated stress).
StudyResult run_tlc(Scheme scheme, std::uint32_t blocks, std::uint32_t wordlines,
                    std::uint64_t seed) {
  StudyConfig config;
  config.blocks = blocks;
  config.wordlines = wordlines;
  config.cells_per_wordline = kCells;
  config.model = VthModel::tlc();
  config.stress = StressCondition::fresh();
  config.seed = seed;
  return run_study(scheme, config);
}

TEST(TlcGray, AdjacentStatesDifferInOneBit) {
  for (const VthModel& m : {VthModel::mlc(), VthModel::tlc()}) {
    for (std::size_t s = 0; s + 1 < m.states(); ++s) {
      EXPECT_EQ(std::popcount(static_cast<unsigned>(m.gray[s] ^ m.gray[s + 1])), 1)
          << m.bits << "-bit states " << s << "," << s + 1;
    }
  }
}

TEST(TlcGray, AllCodesDistinct) {
  for (const VthModel& m : {VthModel::mlc(), VthModel::tlc()}) {
    for (std::size_t a = 0; a < m.states(); ++a) {
      EXPECT_LT(m.gray[a], m.states()) << m.bits << "-bit state " << a;
      for (std::size_t b = a + 1; b < m.states(); ++b) {
        EXPECT_NE(m.gray[a], m.gray[b]) << m.bits << "-bit states " << a << "," << b;
      }
    }
  }
}

TEST(TlcBer, CorrectReadIsErrorFree) {
  const VthModel m = VthModel::tlc();
  for (std::size_t s = 0; s < m.states(); ++s) {
    EXPECT_EQ(bit_errors_for_cell(s, m.state_mean[s], m), 0u) << s;
  }
}

TEST(TlcBer, AdjacentMisreadCostsOneBit) {
  const VthModel m = VthModel::tlc();
  // State 2 read just above read_ref[2] resolves as state 3.
  EXPECT_EQ(bit_errors_for_cell(2, m.read_ref[2] + 0.01, m), 1u);
}

TEST(VthModel, ReadReferencesSeparateAdjacentStates) {
  for (const VthModel& m : {VthModel::mlc(), VthModel::tlc()}) {
    for (std::size_t s = 0; s + 1 < m.states(); ++s) {
      EXPECT_LT(m.state_mean[s], m.read_ref[s]) << m.bits << "-bit ref " << s;
      EXPECT_LT(m.read_ref[s], m.state_mean[s + 1]) << m.bits << "-bit ref " << s;
    }
  }
}

TEST(TlcSimulate, ShapesAndAggressorBound) {
  Rng rng(1);
  const std::uint32_t wl = 8;
  const VthModel m = VthModel::tlc();
  const auto results = simulate_block(nand::rps_full_order(wl, 3), m, kCells, rng);
  ASSERT_EQ(results.size(), wl);
  for (const WordlineResult& r : results) {
    EXPECT_LE(r.aggressors_after_msb, 1u);
    EXPECT_GT(r.wpi_sum, 0.0);
    EXPECT_GE(page_ber(r, StressCondition::fresh(), m, rng), 0.0);
  }
}

// Independent Monte-Carlo streams per scheme, seeded as
// bench_tlc_extension seeds its table rows (42 ^ (row << 40)).
TEST(TlcStudy, RpsNoWorseThanFps) {
  const StudyResult fps = run_tlc(Scheme::kFps, 32, 24, 42);
  const StudyResult rps = run_tlc(Scheme::kRpsFull, 32, 24, 42 ^ (1ull << 40));
  const StudyResult rnd = run_tlc(Scheme::kRpsRandom, 32, 24, 42 ^ (2ull << 40));
  // Allow 2% sampling noise.
  const double tolerance = 0.02 * fps.wpi_per_page.median();
  EXPECT_LE(rps.wpi_per_page.median(), fps.wpi_per_page.median() + tolerance);
  EXPECT_LE(rnd.wpi_per_page.median(), fps.wpi_per_page.median() + tolerance);
  EXPECT_LE(rps.aggressors.max(), 1.0);
  EXPECT_LE(rnd.aggressors.max(), 1.0);
}

TEST(TlcStudy, UnconstrainedDegrades) {
  const StudyResult fps = run_tlc(Scheme::kFps, 16, 16, 42);
  const StudyResult wild = run_tlc(Scheme::kUnconstrained, 16, 16, 42 ^ (3ull << 40));
  EXPECT_GT(wild.aggressors.max(), 1.0);
  EXPECT_GT(wild.wpi_per_page.percentile(90), fps.wpi_per_page.percentile(90));
  // TLC's tight state pitch makes the extra interference cost bit errors
  // even at fresh conditions.
  EXPECT_GT(wild.ber_per_page.mean(), fps.ber_per_page.mean());
}

TEST(TlcStudy, Deterministic) {
  const StudyResult a = run_tlc(Scheme::kRpsRandom, 4, 8, 7);
  const StudyResult b = run_tlc(Scheme::kRpsRandom, 4, 8, 7);
  EXPECT_EQ(a.wpi_per_page.median(), b.wpi_per_page.median());
  EXPECT_EQ(a.ber_per_page.mean(), b.ber_per_page.mean());
}

}  // namespace
}  // namespace rps::reliability
