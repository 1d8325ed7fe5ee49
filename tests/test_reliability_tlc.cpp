// The TLC reliability study: relaxed-TLC orders accumulate no more
// interference than the conventional shadow sequence; unconstrained
// orders degrade — the Fig. 4 relation carried to 3-bit cells.
#include "src/reliability/tlc_study.hpp"

#include <gtest/gtest.h>

namespace rps::reliability {
namespace {

TlcStudyConfig small_config() {
  TlcStudyConfig c;
  c.cells_per_wordline = 384;
  return c;
}

TEST(TlcGray, AdjacentStatesDifferInOneBit) {
  for (std::size_t s = 0; s + 1 < kTlcStates; ++s) {
    const std::uint8_t diff = tlc_gray(s) ^ tlc_gray(s + 1);
    EXPECT_EQ(__builtin_popcount(diff), 1) << "states " << s << "," << s + 1;
  }
}

TEST(TlcGray, AllCodesDistinct) {
  for (std::size_t a = 0; a < kTlcStates; ++a) {
    for (std::size_t b = a + 1; b < kTlcStates; ++b) {
      EXPECT_NE(tlc_gray(a), tlc_gray(b));
    }
  }
}

TEST(TlcBer, CorrectReadIsErrorFree) {
  const TlcVthModel m = TlcVthModel::nominal();
  for (std::size_t s = 0; s < kTlcStates; ++s) {
    EXPECT_EQ(tlc_bit_errors_for_cell(s, m.state_mean[s], m), 0u) << s;
  }
}

TEST(TlcBer, AdjacentMisreadCostsOneBit) {
  const TlcVthModel m = TlcVthModel::nominal();
  // State 2 read just above read_ref[2] resolves as state 3.
  EXPECT_EQ(tlc_bit_errors_for_cell(2, m.read_ref[2] + 0.01, m), 1u);
}

TEST(TlcSimulate, ShapesAndAggressorBound) {
  Rng rng(1);
  const std::uint32_t wl = 8;
  const auto results =
      simulate_tlc_block(nand::rps_full_order(wl, 3), wl, small_config(), rng);
  ASSERT_EQ(results.size(), wl);
  for (const TlcWordlineResult& r : results) {
    EXPECT_LE(r.aggressors_after_final, 1u);
    EXPECT_GT(r.wpi_sum, 0.0);
    EXPECT_GE(r.ber, 0.0);
  }
}

TEST(TlcStudy, RpsNoWorseThanFps) {
  const TlcStudyConfig config = small_config();
  const TlcStudyResult fps = run_tlc_study(TlcScheme::kFps, 32, 24, config, 42);
  const TlcStudyResult rps = run_tlc_study(TlcScheme::kRpsFull, 32, 24, config, 42);
  const TlcStudyResult rnd = run_tlc_study(TlcScheme::kRpsRandom, 32, 24, config, 42);
  // Independent Monte-Carlo streams per scheme: allow 2% sampling noise.
  const double tolerance = 0.02 * fps.wpi_per_page.median();
  EXPECT_LE(rps.wpi_per_page.median(), fps.wpi_per_page.median() + tolerance);
  EXPECT_LE(rnd.wpi_per_page.median(), fps.wpi_per_page.median() + tolerance);
  EXPECT_LE(rps.aggressors.max(), 1.0);
  EXPECT_LE(rnd.aggressors.max(), 1.0);
}

TEST(TlcStudy, UnconstrainedDegrades) {
  const TlcStudyConfig config = small_config();
  const TlcStudyResult fps = run_tlc_study(TlcScheme::kFps, 16, 16, config, 42);
  const TlcStudyResult wild =
      run_tlc_study(TlcScheme::kUnconstrained, 16, 16, config, 42);
  EXPECT_GT(wild.aggressors.max(), 1.0);
  EXPECT_GT(wild.wpi_per_page.percentile(90), fps.wpi_per_page.percentile(90));
  // TLC's tight state pitch makes the extra interference cost bit errors
  // even at fresh conditions.
  EXPECT_GT(wild.ber_per_page.mean(), fps.ber_per_page.mean());
}

TEST(TlcStudy, Deterministic) {
  const TlcStudyConfig config = small_config();
  const TlcStudyResult a = run_tlc_study(TlcScheme::kRpsRandom, 4, 8, config, 7);
  const TlcStudyResult b = run_tlc_study(TlcScheme::kRpsRandom, 4, 8, config, 7);
  EXPECT_EQ(a.wpi_per_page.median(), b.wpi_per_page.median());
  EXPECT_EQ(a.ber_per_page.mean(), b.ber_per_page.mean());
}

}  // namespace
}  // namespace rps::reliability
