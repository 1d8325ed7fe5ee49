// flexFTL hot/cold stream separation: GC relocation copies live in their
// own fast/slow stream, so cold data ages in homogeneous blocks and the
// write amplification of skewed workloads drops.
#include <gtest/gtest.h>

#include "src/core/flex_ftl.hpp"
#include "src/util/random.hpp"

namespace rps::core {
namespace {

/// Skewed steady-state churn; returns final write amplification.
double run_churn(bool separate, std::uint64_t* erases = nullptr) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.blocks_per_chip = 32;
  config.separate_gc_stream = separate;
  FlexFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const auto op = ftl.write(lpn, 0, 0.5);
    EXPECT_TRUE(op.is_ok());
  }
  Rng rng(13);
  const std::uint64_t host_before = ftl.stats().host_write_pages;
  const std::uint64_t programs_before = ftl.device().total_counters().programs();
  const std::uint64_t erases_before = ftl.device().total_erase_count();
  const Lpn hot = n / 8;
  for (int i = 0; i < 12'000; ++i) {
    // 90% of writes hit the hot eighth of the space.
    const Lpn lpn = rng.chance(0.9) ? rng.next_below(hot)
                                    : hot + rng.next_below(n - hot);
    const auto op = ftl.write(lpn, 0, 0.5);
    EXPECT_TRUE(op.is_ok());
    if (i % 1000 == 999) {
      const Microseconds t = ftl.device().all_idle_at();
      ftl.on_idle(t, t + 20'000'000);
    }
  }
  EXPECT_TRUE(ftl.check_consistency());
  if (erases != nullptr) *erases = ftl.device().total_erase_count() - erases_before;
  return static_cast<double>(ftl.device().total_counters().programs() -
                             programs_before) /
         static_cast<double>(ftl.stats().host_write_pages - host_before);
}

TEST(HotColdSeparation, ReducesWriteAmplificationUnderSkew) {
  std::uint64_t erases_mixed = 0;
  std::uint64_t erases_separated = 0;
  const double mixed = run_churn(false, &erases_mixed);
  const double separated = run_churn(true, &erases_separated);
  EXPECT_LT(separated, mixed * 0.97);  // measurably better
  EXPECT_LE(erases_separated, erases_mixed);
}

TEST(HotColdSeparation, ColdStreamActuallyUsed) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.separate_gc_stream = true;
  FlexFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0, 0.5).is_ok());
  Rng rng(5);
  bool saw_cold = false;
  for (int i = 0; i < 4000 && !saw_cold; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n / 4), 0, 0.95).is_ok());
    for (std::uint32_t c = 0; c < ftl.config().geometry.num_chips(); ++c) {
      saw_cold |= ftl.cold_sbqueue_depth(c) > 0;
    }
  }
  EXPECT_TRUE(saw_cold);
}

TEST(HotColdSeparation, OffByDefaultKeepsColdQueueEmpty) {
  FlexFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0, 0.5).is_ok());
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n), 0, 0.5).is_ok());
  }
  for (std::uint32_t c = 0; c < ftl.config().geometry.num_chips(); ++c) {
    EXPECT_EQ(ftl.cold_sbqueue_depth(c), 0u);
  }
}

TEST(HotColdSeparation, DataIntegrityPreserved) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.separate_gc_stream = true;
  FlexFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  std::vector<std::uint8_t> tag(n);
  Rng rng(31);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    tag[lpn] = static_cast<std::uint8_t>(lpn);
    ASSERT_TRUE(ftl.write_data(lpn, {tag[lpn]}, 0, 0.5).is_ok());
  }
  for (int i = 0; i < 4000; ++i) {
    const Lpn lpn = rng.next_below(n);
    tag[lpn] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(ftl.write_data(lpn, {tag[lpn]}, 0, rng.next_double()).is_ok());
  }
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const Result<nand::PageImage> data = ftl.read_data(lpn, 0);
    ASSERT_TRUE(data.is_ok()) << lpn;
    EXPECT_EQ(data.value().bytes, std::vector<std::uint8_t>{tag[lpn]}) << lpn;
  }
}

}  // namespace
}  // namespace rps::core
