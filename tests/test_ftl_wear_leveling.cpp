// Static wear leveling: cold blocks are pulled back into circulation when
// their wear trails the chip's hottest block by the configured threshold.
#include <gtest/gtest.h>

#include "src/ftl/page_ftl.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/random.hpp"

namespace rps::ftl {
namespace {

/// Fill the device, then hammer a small hot range so that blocks holding
/// the cold majority stop cycling entirely.
template <typename Ftl>
void skewed_workload(Ftl& ftl, int rounds, bool idle_between) {
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(21);
  const Lpn hot_span = n / 8;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(hot_span), 0).is_ok());
    if (idle_between && i % 200 == 199) {
      const Microseconds t = ftl.device().all_idle_at();
      ftl.on_idle(t, t + 30'000'000);
    }
  }
}

TEST(WearLeveling, DisabledByDefaultLetsWearDiverge) {
  PageFtl ftl(FtlConfig::tiny());
  skewed_workload(ftl, 8000, /*idle_between=*/true);
  const obs::WearSummary wear = obs::collect_wear(ftl.device());
  // Cold blocks never cycle: the spread grows with the hot traffic.
  EXPECT_GT(wear.max_erases - wear.min_erases, 8u);
}

TEST(WearLeveling, ThresholdBoundsTheSpread) {
  FtlConfig config = FtlConfig::tiny();
  config.wear_level_threshold = 4;
  PageFtl ftl(config);
  skewed_workload(ftl, 8000, /*idle_between=*/true);
  const obs::WearSummary wear = obs::collect_wear(ftl.device());
  // Leveling runs once per idle window; between windows the hot blocks
  // gain roughly writes_per_gap / pages_per_block / chips erases, so the
  // spread is bounded by threshold + that growth + slack.
  const std::uint64_t growth_per_gap =
      200 / ftl.config().geometry.pages_per_block() /
      ftl.config().geometry.num_chips() * 4;  // GC amplification headroom
  EXPECT_LE(wear.max_erases - wear.min_erases, 4u + growth_per_gap + 4u);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(WearLeveling, NeedsIdleTimeToAct) {
  FtlConfig config = FtlConfig::tiny();
  config.wear_level_threshold = 4;
  PageFtl ftl(config);
  skewed_workload(ftl, 8000, /*idle_between=*/false);  // never idle
  const obs::WearSummary wear = obs::collect_wear(ftl.device());
  EXPECT_GT(wear.max_erases - wear.min_erases, 4u + 3u);
}

TEST(WearLeveling, DataSurvivesMigration) {
  FtlConfig config = FtlConfig::tiny();
  config.wear_level_threshold = 3;
  PageFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  // Cold data with known payloads in the upper half.
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    ASSERT_TRUE(ftl.write_data(lpn, {static_cast<std::uint8_t>(lpn), 0x5a}, 0).is_ok());
  }
  Rng rng(5);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n / 8), 0).is_ok());
    if (i % 200 == 199) {
      const Microseconds t = ftl.device().all_idle_at();
      ftl.on_idle(t, t + 30'000'000);
    }
  }
  for (Lpn lpn = n / 2; lpn < n; ++lpn) {
    const Result<nand::PageImage> data = ftl.read_data(lpn, 0);
    ASSERT_TRUE(data.is_ok()) << lpn;
    EXPECT_EQ(data.value().bytes,
              (std::vector<std::uint8_t>{static_cast<std::uint8_t>(lpn), 0x5a}))
        << lpn;
  }
  EXPECT_TRUE(ftl.check_consistency());
}

}  // namespace
}  // namespace rps::ftl
