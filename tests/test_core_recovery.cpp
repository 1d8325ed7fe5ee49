// Power-loss recovery (Section 3.3, Fig. 7): a sudden power-off during an
// MSB program destroys the paired LSB page's acknowledged data; flexFTL
// reconstructs it from the per-block parity page, end to end, with real
// payload bytes.
#include <gtest/gtest.h>

#include "src/core/flex_ftl.hpp"

namespace rps::core {
namespace {

ftl::FtlConfig one_chip_config() {
  ftl::FtlConfig c = ftl::FtlConfig::tiny();
  c.geometry.channels = 1;
  c.geometry.chips_per_channel = 1;
  c.geometry.wordlines_per_block = 8;
  c.geometry.blocks_per_chip = 16;
  return c;
}

std::vector<std::uint8_t> payload_for(Lpn lpn) {
  std::vector<std::uint8_t> bytes(16);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(lpn * 31 + i);
  }
  return bytes;
}

/// Drive a FlexFtl into the dangerous state: a slow block mid-MSB-phase,
/// then cut power during an MSB program. Returns the victims.
std::vector<nand::PowerLossVictim> cut_power_during_msb(FlexFtl& ftl) {
  const std::uint32_t wordlines = ftl.config().geometry.wordlines_per_block;
  // Fast phase: fill a block's LSB pages with real payloads.
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < wordlines; ++lpn) {
    auto op = ftl.write_data(lpn, payload_for(lpn), t, /*buffer_utilization=*/0.95);
    EXPECT_TRUE(op.is_ok());
    t = op.value().complete;
  }
  EXPECT_EQ(ftl.sbqueue_depth(0), 1u);
  // Slow phase: start the first MSB program and cut power mid-flight.
  auto msb = ftl.write_data(150, payload_for(150), t, 0.01);
  EXPECT_TRUE(msb.is_ok());
  const Microseconds mid = msb.value().complete - 100;
  return ftl.device().inject_power_loss(mid);
}

TEST(Recovery, PowerLossDestroysPairedLsbWithoutRecovery) {
  FlexFtl ftl(one_chip_config());
  const auto victims = cut_power_during_msb(ftl);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pos.type, nand::PageType::kMsb);
  // The paired LSB page's data (lpn 0, acknowledged long ago) is gone.
  EXPECT_EQ(ftl.read_data(0, ftl.device().all_idle_at()).code(),
            ErrorCode::kEccUncorrectable);
}

TEST(Recovery, ParityRebuildsTheLostPage) {
  FlexFtl ftl(one_chip_config());
  const auto victims = cut_power_during_msb(ftl);
  ASSERT_FALSE(victims.empty());

  const RecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 1u);
  EXPECT_EQ(report.pages_lost, 0u);
  EXPECT_GE(report.interrupted_writes_discarded, 1u);
  EXPECT_GT(report.lsb_pages_read, 0u);
  EXPECT_EQ(report.parity_pages_read, 1u);

  // The recovered page carries the original payload at a new location.
  const Result<nand::PageImage> data = ftl.read_data(0, ftl.device().all_idle_at());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, payload_for(0));
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(Recovery, AllOtherPagesSurviveUntouched) {
  FlexFtl ftl(one_chip_config());
  const std::uint32_t wordlines = ftl.config().geometry.wordlines_per_block;
  const auto victims = cut_power_during_msb(ftl);
  ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  for (Lpn lpn = 1; lpn < wordlines; ++lpn) {
    const Result<nand::PageImage> data = ftl.read_data(lpn, ftl.device().all_idle_at());
    ASSERT_TRUE(data.is_ok()) << lpn;
    EXPECT_EQ(data.value().bytes, payload_for(lpn)) << lpn;
  }
}

TEST(Recovery, InterruptedWriteIsDiscardedNotServedCorrupt) {
  FlexFtl ftl(one_chip_config());
  const auto victims = cut_power_during_msb(ftl);
  ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  // lpn 150 was in flight and never acknowledged: after recovery it must
  // read as never-written (zero-fill), not as corrupt data.
  EXPECT_EQ(ftl.read_data(150, ftl.device().all_idle_at()).code(),
            ErrorCode::kNotFound);
}

TEST(Recovery, StaleDestroyedDataNeedsNoRestore) {
  FlexFtl ftl(one_chip_config());
  const std::uint32_t wordlines = ftl.config().geometry.wordlines_per_block;
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < wordlines; ++lpn) {
    auto op = ftl.write_data(lpn, payload_for(lpn), t, 0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value().complete;
  }
  // Overwrite lpn 0: its old copy in the slow block is now stale.
  auto rewrite = ftl.write_data(0, payload_for(77), t, 0.95);
  ASSERT_TRUE(rewrite.is_ok());
  t = rewrite.value().complete;
  // Cut power during the slow block's first MSB program.
  auto msb = ftl.write_data(150, payload_for(150), t, 0.01);
  ASSERT_TRUE(msb.is_ok());
  const auto victims = ftl.device().inject_power_loss(msb.value().complete - 100);

  const RecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 0u);  // destroyed page held stale data
  EXPECT_EQ(report.pages_lost, 0u);
  const Result<nand::PageImage> data = ftl.read_data(0, ftl.device().all_idle_at());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, payload_for(77));
}

TEST(Recovery, FastBlockParityBufferRecomputed) {
  FlexFtl ftl(one_chip_config());
  const std::uint32_t wordlines = ftl.config().geometry.wordlines_per_block;
  // Half-fill a fast block, then power-cycle (no MSB in flight).
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < wordlines / 2; ++lpn) {
    auto op = ftl.write_data(lpn, payload_for(lpn), t, 0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value().complete;
  }
  const auto victims = ftl.device().inject_power_loss(t + 10);  // idle: nothing in flight
  EXPECT_TRUE(victims.empty());
  const RecoveryReport report = ftl.recover_from_power_loss(victims, t + 10);
  EXPECT_EQ(report.fast_blocks_checked, 1u);
  EXPECT_EQ(report.pages_lost, 0u);
  // The rebuilt accumulator must produce a correct parity page: finish the
  // block, cut power in the MSB phase, and recover.
  Microseconds t2 = ftl.device().all_idle_at();
  for (Lpn lpn = wordlines / 2; lpn < wordlines; ++lpn) {
    auto op = ftl.write_data(lpn, payload_for(lpn), t2, 0.95);
    ASSERT_TRUE(op.is_ok());
    t2 = op.value().complete;
  }
  auto msb = ftl.write_data(150, payload_for(150), t2, 0.01);
  ASSERT_TRUE(msb.is_ok());
  const auto victims2 = ftl.device().inject_power_loss(msb.value().complete - 50);
  const RecoveryReport report2 =
      ftl.recover_from_power_loss(victims2, ftl.device().all_idle_at());
  EXPECT_EQ(report2.pages_recovered, 1u);
  const Result<nand::PageImage> data = ftl.read_data(0, ftl.device().all_idle_at());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, payload_for(0));
}

TEST(Recovery, ReportedTimeMatchesPaperEstimateShape) {
  // Section 3.3 estimates the reboot read cost as
  //   chips x slow/fast blocks x LSB pages x 40 us.
  // Verify the measured recovery time is in that ballpark for our config.
  FlexFtl ftl(one_chip_config());
  const std::uint32_t wordlines = ftl.config().geometry.wordlines_per_block;
  const auto victims = cut_power_during_msb(ftl);
  const Microseconds start = ftl.device().all_idle_at();
  const RecoveryReport report = ftl.recover_from_power_loss(victims, start);
  // One slow block of 8 LSB pages + 1 parity read + the rewrite program.
  const Microseconds reads_us =
      static_cast<Microseconds>(report.lsb_pages_read + report.parity_pages_read) *
      (ftl.config().timing.read_us + ftl.config().timing.transfer_us);
  EXPECT_GE(report.recovery_time_us, reads_us);
  EXPECT_LT(report.recovery_time_us,
            reads_us + 3 * ftl.config().timing.program_msb_us +
                static_cast<Microseconds>(wordlines) * 100);
}

TEST(Recovery, NoSlowBlocksMeansTrivialRecovery) {
  FlexFtl ftl(one_chip_config());
  const RecoveryReport report = ftl.recover_from_power_loss({}, 0);
  EXPECT_EQ(report.slow_blocks_checked, 0u);
  EXPECT_EQ(report.lsb_pages_read, 0u);
  EXPECT_EQ(report.pages_recovered, 0u);
}

}  // namespace
}  // namespace rps::core
