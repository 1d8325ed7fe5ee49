#include "src/ftl/page_ftl.hpp"

#include <gtest/gtest.h>

#include "src/util/random.hpp"

namespace rps::ftl {
namespace {

FtlConfig tiny_config() { return FtlConfig::tiny(); }

TEST(PageFtl, WriteReadRoundTrip) {
  PageFtl ftl(tiny_config());
  const Result<HostOp> write = ftl.write(5, 0);
  ASSERT_TRUE(write.is_ok());
  EXPECT_GT(write.value().complete, 0);
  const Result<HostOp> read = ftl.read(5, write.value().complete);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(ftl.stats().host_write_pages, 1u);
  EXPECT_EQ(ftl.stats().host_read_pages, 1u);
}

TEST(PageFtl, WriteDataPayloadRoundTrip) {
  PageFtl ftl(tiny_config());
  ASSERT_TRUE(ftl.write_data(3, {1, 2, 3, 4}, 0).is_ok());
  const Result<nand::PageImage> data = ftl.read_data(3, 10'000);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(data.value().record.lpn, 3u);
}

TEST(PageFtl, OutOfRangeLpn) {
  PageFtl ftl(tiny_config());
  EXPECT_EQ(ftl.write(ftl.exported_pages(), 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ftl.read(ftl.exported_pages(), 0).code(), ErrorCode::kOutOfRange);
}

TEST(PageFtl, UnwrittenReadIsZeroFill) {
  PageFtl ftl(tiny_config());
  const Result<HostOp> read = ftl.read(9, 1234);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().complete, 1234);  // no device access
  EXPECT_EQ(ftl.stats().unmapped_reads, 1u);
}

TEST(PageFtl, FollowsFpsOrderExactly) {
  PageFtl ftl(tiny_config());
  // First writes land on chip-local active blocks following Fig. 2(b):
  // LSB, LSB, MSB alternation — verify via host page-type counters.
  const std::uint32_t chips = ftl.config().geometry.num_chips();
  for (std::uint32_t i = 0; i < chips * 2; ++i) {
    ASSERT_TRUE(ftl.write(i, 0).is_ok());
  }
  // Each chip served 2 writes: LSB(0), LSB(1) — all LSB so far.
  EXPECT_EQ(ftl.stats().host_lsb_writes, chips * 2);
  for (std::uint32_t i = 0; i < chips; ++i) {
    ASSERT_TRUE(ftl.write(100 + i, 0).is_ok());
  }
  // Third write per chip is MSB(0).
  EXPECT_EQ(ftl.stats().host_msb_writes, chips);
}

TEST(PageFtl, OverwriteInvalidatesOldPage) {
  PageFtl ftl(tiny_config());
  ASSERT_TRUE(ftl.write(1, 0).is_ok());
  const nand::PageAddress first = ftl.mapping().lookup(1).value();
  ASSERT_TRUE(ftl.write(1, 0).is_ok());
  const nand::PageAddress second = ftl.mapping().lookup(1).value();
  EXPECT_NE(first, second);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(PageFtl, SteadyStateOverwriteStress) {
  // Fill the whole logical space, then overwrite far beyond physical
  // capacity: GC must keep the device serviceable indefinitely.
  PageFtl ftl(tiny_config());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n), 0).is_ok()) << "write " << i;
  }
  EXPECT_TRUE(ftl.check_consistency());
  EXPECT_GT(ftl.device().total_erase_count(), 0u);
  EXPECT_GT(ftl.stats().gc_copy_pages, 0u);
  // Every logical page is still readable.
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    EXPECT_TRUE(ftl.read(lpn, 0).is_ok()) << lpn;
  }
}

TEST(PageFtl, WafIsReasonableUnderSkewedOverwrites) {
  PageFtl ftl(tiny_config());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(1);
  ZipfGenerator zipf(n, 0.9);
  const std::uint64_t host_before = ftl.stats().host_write_pages;
  const std::uint64_t programs_before = ftl.device().total_counters().programs();
  for (int i = 0; i < 6000; ++i) ASSERT_TRUE(ftl.write(zipf.sample(rng), 0).is_ok());
  const double waf = static_cast<double>(ftl.device().total_counters().programs() -
                                         programs_before) /
                     static_cast<double>(ftl.stats().host_write_pages - host_before);
  EXPECT_GE(waf, 1.0);
  EXPECT_LT(waf, 6.0);
}

TEST(PageFtl, BackgroundGcReclaimsInIdle) {
  FtlConfig config = tiny_config();
  config.bgc_free_threshold = 1.0;  // always eligible
  PageFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(ftl.write(rng.next_below(n), 0).is_ok());
  const std::uint64_t bg_before = ftl.stats().background_gc_blocks;
  const Microseconds start = ftl.device().all_idle_at();
  ftl.on_idle(start, start + 10'000'000);
  EXPECT_GT(ftl.stats().background_gc_blocks, bg_before);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(PageFtl, BackgroundGcHonorsDeadline) {
  FtlConfig config = tiny_config();
  config.bgc_free_threshold = 1.0;
  PageFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(ftl.write(rng.next_below(n), 0).is_ok());
  const Microseconds start = ftl.device().all_idle_at();
  // Window shorter than the spill guard: no background work at all.
  ftl.on_idle(start, start + 100);
  EXPECT_EQ(ftl.device().all_idle_at(), start);
}

TEST(PageFtl, ConsistencyAfterMixedTraffic) {
  PageFtl ftl(tiny_config());
  Rng rng(9);
  const Lpn n = ftl.exported_pages();
  for (int i = 0; i < 3000; ++i) {
    const Lpn lpn = rng.next_below(n);
    if (rng.chance(0.3)) {
      ASSERT_TRUE(ftl.read(lpn, 0).is_ok());
    } else {
      ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
    }
  }
  EXPECT_TRUE(ftl.check_consistency());
}

}  // namespace
}  // namespace rps::ftl
