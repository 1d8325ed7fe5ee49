// Device/FTL features layered beyond the paper's baseline model:
// read-disturb scrubbing.
#include <gtest/gtest.h>

#include "src/ftl/page_ftl.hpp"

namespace rps {
namespace {

TEST(ReadDisturb, CounterTracksReadsAndResetsOnErase) {
  nand::Block block(4, nand::SequenceKind::kRps);
  ASSERT_TRUE(block.program({0, nand::PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(block.reads_since_erase(), 0u);
  for (int i = 0; i < 5; ++i) (void)block.read({0, nand::PageType::kLsb});
  EXPECT_EQ(block.reads_since_erase(), 5u);
  block.erase();
  EXPECT_EQ(block.reads_since_erase(), 0u);
}

TEST(ReadDisturb, ScrubRefreshesHotReadBlocks) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.read_scrub_threshold = 500;
  ftl::PageFtl ftl(config);
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  // Hammer reads on one LPN: its block's read counter climbs past the
  // threshold.
  const nand::PageAddress addr = ftl.mapping().lookup(5).value();
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(ftl.read(5, 0).is_ok());
  ASSERT_GE(ftl.device().block({addr.chip, addr.block}).reads_since_erase(), 500u);

  const Microseconds t = ftl.device().all_idle_at();
  ftl.on_idle(t, t + 60'000'000);
  EXPECT_GE(ftl.stats().scrubbed_blocks, 1u);
  // The hammered block was refreshed: the LPN lives elsewhere now and the
  // data is still readable.
  const nand::PageAddress after = ftl.mapping().lookup(5).value();
  EXPECT_FALSE(after == addr);
  EXPECT_TRUE(ftl.read(5, 0).is_ok());
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(ReadDisturb, ScrubOffByDefault) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  for (int i = 0; i < 600; ++i) ASSERT_TRUE(ftl.read(5, 0).is_ok());
  const Microseconds t = ftl.device().all_idle_at();
  ftl.on_idle(t, t + 60'000'000);
  EXPECT_EQ(ftl.stats().scrubbed_blocks, 0u);
}

}  // namespace
}  // namespace rps
