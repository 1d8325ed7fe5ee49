// Tests of the Fig. 4 substitute model: the *relative* reliability claims
// are combinatorial properties of program orders, which must hold exactly;
// the Monte-Carlo layer must respond to aggressors, P/E stress and
// retention in the physically expected directions.
//
// SmallStudiesMatchPinned pins the model's random draw order: an FNV-1a of
// every per-page sample of tiny MLC and TLC studies
// (tests/data/reliability_digests.txt).
#include "src/reliability/study.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "src/util/serialize.hpp"

namespace rps::reliability {
namespace {

constexpr std::uint32_t kCells = 512;

StudyConfig small_config() {
  StudyConfig c;
  c.blocks = 24;
  c.wordlines = 16;
  c.cells_per_wordline = kCells;
  return c;
}

TEST(Interference, DistributionWidthOfTightData) {
  std::vector<double> vth;
  for (int i = 0; i < 1000; ++i) vth.push_back(1.0 + 0.001 * (i % 10));
  EXPECT_LT(distribution_width(vth), 0.01);
  EXPECT_EQ(distribution_width({1.0}), 0.0);
}

TEST(Interference, SimulateBlockShapes) {
  Rng rng(1);
  const std::uint32_t wl = 8;
  const auto results = simulate_block(nand::fps_order(wl), VthModel::mlc(), kCells, rng);
  ASSERT_EQ(results.size(), wl);
  for (const WordlineResult& r : results) {
    std::size_t cells = 0;
    for (const std::vector<double>& v : r.vth_by_state) cells += v.size();
    EXPECT_EQ(cells, kCells);
    EXPECT_GT(r.wpi_sum, 0.0);
    EXPECT_LE(r.aggressors_after_msb, 1u);
  }
}

TEST(Interference, AggressorsWidenDistributions) {
  // A word line with one post-MSB aggressor has a wider (or equal) summed
  // Vth width than the last word line (zero aggressors), averaged over
  // many blocks.
  Rng rng(2);
  const std::uint32_t wl = 8;
  double with_aggressor = 0.0;
  double without = 0.0;
  const int blocks = 40;
  for (int b = 0; b < blocks; ++b) {
    const auto results = simulate_block(nand::fps_order(wl), VthModel::mlc(), kCells, rng);
    with_aggressor += results[2].wpi_sum;   // interior: 1 aggressor
    without += results[wl - 1].wpi_sum;     // last WL: 0 aggressors
    EXPECT_EQ(results[2].aggressors_after_msb, 1u);
    EXPECT_EQ(results[wl - 1].aggressors_after_msb, 0u);
  }
  EXPECT_GT(with_aggressor / blocks, without / blocks);
}

TEST(Ber, GrayCodingAdjacentMisreadCostsOneBit) {
  const VthModel m = VthModel::mlc();
  // State 1 ('01') read as state 2 ('00'): one bit flip.
  EXPECT_EQ(bit_errors_for_cell(1, m.read_ref[1] + 0.01, m), 1u);
  // Correct read: zero errors.
  EXPECT_EQ(bit_errors_for_cell(1, m.state_mean[1], m), 0u);
  // State 0 ('11') read as state 3 ('10'): one bit differs in Gray code.
  EXPECT_EQ(bit_errors_for_cell(0, m.state_mean[3], m), 1u);
  // State 1 ('01') read as state 3 ('10'): two bits.
  EXPECT_EQ(bit_errors_for_cell(1, m.state_mean[3], m), 2u);
}

TEST(Ber, StressIncreasesErrors) {
  Rng rng(3);
  const std::uint32_t wl = 8;
  const VthModel m = VthModel::mlc();
  const auto results = simulate_block(nand::rps_full_order(wl), m, kCells, rng);
  double fresh = 0.0;
  double stressed = 0.0;
  for (const WordlineResult& r : results) {
    fresh += page_ber(r, StressCondition::fresh(), m, rng);
    stressed += page_ber(r, StressCondition::worst_case(), m, rng);
  }
  EXPECT_LT(fresh, stressed);
  EXPECT_LT(stressed / wl, 0.05);  // worst case still ECC-meaningful, not noise
}

TEST(Ber, RetentionAffectsHighStatesMore) {
  Rng rng(4);
  const VthModel m = VthModel::mlc();
  const StressCondition retention{0.0, 365.0};
  // The erased state holds no charge: retention must not move it.
  EXPECT_DOUBLE_EQ(apply_stress(m.state_mean[0], 0, retention, m, rng), m.state_mean[0]);
  // The top state loses the most charge.
  double top_shift = 0.0;
  double mid_shift = 0.0;
  for (int i = 0; i < 2000; ++i) {
    top_shift += m.state_mean[3] - apply_stress(m.state_mean[3], 3, retention, m, rng);
    mid_shift += m.state_mean[1] - apply_stress(m.state_mean[1], 1, retention, m, rng);
  }
  EXPECT_GT(top_shift, mid_shift);
  EXPECT_GT(top_shift, 0.0);
}

TEST(Study, MakeOrderMatchesSchemes) {
  Rng rng(5);
  EXPECT_EQ(make_order(Scheme::kFps, 8, 2, rng), nand::fps_order(8));
  EXPECT_EQ(make_order(Scheme::kRpsFull, 8, 2, rng), nand::rps_full_order(8));
  EXPECT_EQ(make_order(Scheme::kRpsHalf, 8, 2, rng), nand::rps_half_order(8));
  EXPECT_TRUE(nand::order_satisfies(make_order(Scheme::kRpsRandom, 8, 2, rng), 8,
                                    nand::SequenceKind::kRps));
}

TEST(Study, Fig4aRelation_RpsNoWorseThanFps) {
  // The paper's Fig. 4(a) claim: WPi under RPSfull / RPShalf is not
  // higher than under FPS. Compare medians with a small tolerance for
  // Monte-Carlo noise.
  const auto r = run_studies({Scheme::kFps, Scheme::kRpsFull, Scheme::kRpsHalf},
                             small_config());
  const double tolerance = 0.02 * r[0].wpi_per_page.median();
  EXPECT_LE(r[1].wpi_per_page.median(), r[0].wpi_per_page.median() + tolerance);
  EXPECT_LE(r[2].wpi_per_page.median(), r[0].wpi_per_page.median() + tolerance);
}

TEST(Study, Fig4bRelation_UnconstrainedIsWorse) {
  // The motivation for ordering constraints: a fully unconstrained order
  // accumulates visibly more interference and a higher worst-case BER.
  const auto r = run_studies({Scheme::kFps, Scheme::kUnconstrained}, small_config());
  const StudyResult& fps = r[0];
  const StudyResult& wild = r[1];
  EXPECT_GT(wild.wpi_per_page.percentile(90), fps.wpi_per_page.percentile(90));
  EXPECT_GT(wild.ber_per_page.mean(), fps.ber_per_page.mean());
  EXPECT_GT(wild.aggressors.max(), 1.0);
}

TEST(Study, AggressorSamplesMatchTheory) {
  StudyConfig config = small_config();
  config.blocks = 4;
  for (const StudyResult& r : run_studies({Scheme::kFps, Scheme::kRpsFull,
                                           Scheme::kRpsHalf, Scheme::kRpsRandom},
                                          config)) {
    EXPECT_LE(r.aggressors.max(), 1.0) << to_string(r.scheme);
  }
}

TEST(Study, RunStudiesCoversAllSchemes) {
  StudyConfig config = small_config();
  config.blocks = 2;
  config.wordlines = 8;
  const auto results = run_studies(
      {Scheme::kFps, Scheme::kRpsFull, Scheme::kRpsHalf}, config);
  ASSERT_EQ(results.size(), 3u);
  for (const StudyResult& r : results) {
    EXPECT_EQ(r.wpi_per_page.size(), 2u * 8u);
    EXPECT_EQ(r.ber_per_page.size(), 2u * 8u);
  }
}

TEST(Study, DeterministicForSeed) {
  StudyConfig config = small_config();
  config.blocks = 2;
  config.wordlines = 8;
  const StudyResult a = run_study(Scheme::kRpsRandom, config);
  const StudyResult b = run_study(Scheme::kRpsRandom, config);
  EXPECT_EQ(a.wpi_per_page.median(), b.wpi_per_page.median());
  EXPECT_EQ(a.ber_per_page.mean(), b.ber_per_page.mean());
}

/// Folds one sample's raw bits into an FNV-1a digest.
std::uint64_t fold(std::uint64_t h, double sample) {
  std::uint8_t bytes[8];
  ser::store_le(bytes, std::bit_cast<std::uint64_t>(sample));
  return ser::fnv1a(bytes, sizeof bytes, h);
}

/// Digest of a 4-block x 8-word-line x 128-cell study from seed 42: every
/// word line's ΣWPi, BER and aggressor count, in the order run_study
/// draws them.
std::string study_digest(Scheme scheme, const VthModel& model,
                         const StressCondition& stress) {
  constexpr std::uint32_t kWordlines = 8;
  Rng rng(42);
  std::uint64_t h = ser::kFnvBasis;
  for (int b = 0; b < 4; ++b) {
    const nand::ProgramOrder order = make_order(scheme, kWordlines, model.bits, rng);
    for (const WordlineResult& wl : simulate_block(order, model, 128, rng)) {
      h = fold(h, wl.wpi_sum);
      h = fold(h, page_ber(wl, stress, model, rng));
      h = fold(h, static_cast<double>(wl.aggressors_after_msb));
    }
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

// Any change to the model's constants or to the order of its random draws
// moves these digests. FPS, RPSfull and RPShalf share theirs: with a shared
// seed, each word line meets the same aggressor passes under all three.
// Regenerate only for an intended model change, from the "actual" values
// of the failure output.
TEST(ReliabilityGolden, SmallStudiesMatchPinned) {
  std::map<std::string, std::string> pinned;
  std::ifstream in(std::string(RPS_TESTS_DATA_DIR) + "/reliability_digests.txt");
  std::string name, digest;
  while (in >> name >> digest) pinned[name] = digest;

  std::map<std::string, std::string> actual;
  for (const Scheme scheme : {Scheme::kFps, Scheme::kRpsFull, Scheme::kRpsHalf,
                              Scheme::kRpsRandom, Scheme::kUnconstrained}) {
    const std::string mlc = std::string("MLC-") + to_string(scheme);
    actual[mlc + "-fresh"] =
        study_digest(scheme, VthModel::mlc(), StressCondition::fresh());
    actual[mlc + "-worst"] =
        study_digest(scheme, VthModel::mlc(), StressCondition::worst_case());
  }
  for (const Scheme scheme : {Scheme::kFps, Scheme::kRpsFull, Scheme::kRpsRandom,
                              Scheme::kUnconstrained}) {
    actual[std::string("TLC-") + to_string(scheme) + "-fresh"] =
        study_digest(scheme, VthModel::tlc(), StressCondition::fresh());
  }
  EXPECT_EQ(pinned.size(), actual.size()) << "tests/data/reliability_digests.txt";
  for (const auto& [study, value] : actual) {
    EXPECT_EQ(pinned[study], value) << study << ": actual " << value;
  }
}

}  // namespace
}  // namespace rps::reliability
