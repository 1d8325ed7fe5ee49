// flexFTL-TLC: three-phase ordering, dual parity protection, and the TLC
// power-loss matrix (an interrupted CSB pass destroys the word line's LSB
// page; an interrupted MSB pass destroys LSB and CSB).
#include "src/core/flex_tlc_ftl.hpp"

#include <gtest/gtest.h>

#include "src/util/random.hpp"

namespace rps::core {
namespace {

TlcFtlConfig one_chip() {
  TlcFtlConfig c = TlcFtlConfig::tiny();
  c.geometry.chips_per_channel = 1;
  return c;
}

std::vector<std::uint8_t> payload_for(Lpn lpn) {
  return {static_cast<std::uint8_t>(lpn * 3 + 1), static_cast<std::uint8_t>(lpn >> 3)};
}

/// Eight bytes of `v`: a payload unique to one write.
std::vector<std::uint8_t> stamp(std::uint64_t v) {
  std::vector<std::uint8_t> bytes(8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes;
}

TEST(FlexTlcFtl, BurstsAreServedEntirelyByLsbPass) {
  FlexTlcFtl ftl(TlcFtlConfig::tiny());
  for (Lpn lpn = 0; lpn < 40; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, /*buffer_utilization=*/0.95).is_ok());
  }
  EXPECT_EQ(ftl.stats().host_writes_by_pass[0], 40u);
  EXPECT_EQ(ftl.stats().host_writes_by_pass[1], 0u);
  EXPECT_EQ(ftl.stats().host_writes_by_pass[2], 0u);
}

TEST(FlexTlcFtl, ThreePhaseBlockLifecycle) {
  FlexTlcFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  // Fast phase fills a block's LSB pages; one LSB parity page flushes.
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, 0.95).is_ok());
  }
  EXPECT_EQ(ftl.csb_queue_depth(0), 1u);
  EXPECT_EQ(ftl.stats().backup_pages, 1u);
  // Low utilization consumes the CSB pass next (no MSB capacity yet).
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(100 + lpn, 0, 0.01).is_ok());
  }
  EXPECT_EQ(ftl.csb_queue_depth(0), 0u);
  EXPECT_EQ(ftl.msb_queue_depth(0), 1u);
  EXPECT_EQ(ftl.stats().backup_pages, 2u);  // + the CSB parity page
  EXPECT_EQ(ftl.stats().host_writes_by_pass[1], wl);
  // Then the MSB pass completes the block.
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(200 + lpn, 0, 0.01).is_ok());
  }
  EXPECT_EQ(ftl.msb_queue_depth(0), 0u);
  EXPECT_EQ(ftl.stats().host_writes_by_pass[2], wl);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(FlexTlcFtl, QuotaDrainsOnLsbRecoversOnMsb) {
  FlexTlcFtl ftl(one_chip());
  const std::int64_t q0 = ftl.quota();
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  for (Lpn lpn = 0; lpn < wl; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0, 0.95).is_ok());
  EXPECT_EQ(ftl.quota(), q0 - wl);
  for (Lpn lpn = 0; lpn < wl; ++lpn) ASSERT_TRUE(ftl.write(50 + lpn, 0, 0.01).is_ok());
  EXPECT_EQ(ftl.quota(), q0 - wl);  // CSB pass is quota-neutral
  for (Lpn lpn = 0; lpn < wl; ++lpn) ASSERT_TRUE(ftl.write(90 + lpn, 0, 0.01).is_ok());
  EXPECT_EQ(ftl.quota(), q0);  // MSB pass repays
}

TEST(FlexTlcFtl, SteadyStateStressStaysConsistent) {
  FlexTlcFtl ftl(TlcFtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, 0.5).is_ok()) << lpn;
  }
  Rng rng(9);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n), 0, rng.next_double()).is_ok()) << i;
    if (i % 500 == 499) {
      const Microseconds t = ftl.device().all_idle_at();
      ftl.on_idle(t, t + 30'000'000);
    }
  }
  EXPECT_TRUE(ftl.check_consistency());
  EXPECT_GT(ftl.device().total_erase_count(), 0u);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    EXPECT_TRUE(ftl.read_data(lpn, 0).is_ok()) << lpn;
  }
}

TEST(FlexTlcFtl, CsbPassPowerLossRecoversLsbFromParity) {
  FlexTlcFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    const auto op = ftl.write_data(lpn, payload_for(lpn), t, 0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value();
  }
  // First CSB program; cut power mid-flight.
  const auto csb = ftl.write_data(100, payload_for(100), t, 0.01);
  ASSERT_TRUE(csb.is_ok());
  const auto victims = ftl.device().inject_power_loss(csb.value() - 100);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pos.type, nand::PageType::kCsb);
  // The paired LSB page (lpn 0) is destroyed...
  EXPECT_EQ(ftl.read_data(0, ftl.device().all_idle_at()).code(),
            ErrorCode::kEccUncorrectable);
  // ...and parity recovery brings it back.
  const TlcRecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 1u);
  EXPECT_EQ(report.pages_lost, 0u);
  const auto data = ftl.read_data(0, ftl.device().all_idle_at());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, payload_for(0));
}

TEST(FlexTlcFtl, MsbPassPowerLossRecoversBothLowerPages) {
  FlexTlcFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  Microseconds t = 0;
  // Fill LSB pass (lpns 0..wl-1) and CSB pass (lpns 100..100+wl-1).
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    const auto op = ftl.write_data(lpn, payload_for(lpn), t, 0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value();
  }
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    const auto op = ftl.write_data(100 + lpn, payload_for(100 + lpn), t, 0.01);
    ASSERT_TRUE(op.is_ok());
    t = op.value();
  }
  // First MSB program; cut power mid-flight: LSB(0) and CSB(0) both die.
  const auto msb = ftl.write_data(200, payload_for(200), t, 0.01);
  ASSERT_TRUE(msb.is_ok());
  const auto victims = ftl.device().inject_power_loss(msb.value() - 200);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pos.type, nand::PageType::kMsb);
  EXPECT_EQ(ftl.read_data(0, t).code(), ErrorCode::kEccUncorrectable);
  EXPECT_EQ(ftl.read_data(100, t).code(), ErrorCode::kEccUncorrectable);

  const TlcRecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 2u);
  EXPECT_EQ(report.pages_lost, 0u);
  const Microseconds check = ftl.device().all_idle_at();
  const auto lsb_data = ftl.read_data(0, check);
  ASSERT_TRUE(lsb_data.is_ok());
  EXPECT_EQ(lsb_data.value().bytes, payload_for(0));
  const auto csb_data = ftl.read_data(100, check);
  ASSERT_TRUE(csb_data.is_ok());
  EXPECT_EQ(csb_data.value().bytes, payload_for(100));
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(FlexTlcFtl, CrashSweepAccountsForEveryAcknowledgedPage) {
  // Seeded random runs, each cut inside its last write. After recovery
  // every acknowledged LPN reads back its last bytes or is counted in
  // pages_lost; only the LPN being written at the cut is exempt. A cut in
  // the MSB program that completes a block destroys two pages of a block
  // that has already left the phase queues.
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    FlexTlcFtl ftl(TlcFtlConfig::tiny());
    const Lpn n = ftl.exported_pages();
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> acked(n);  // empty = never written
    Microseconds t = 0;
    const std::uint64_t writes = 400 + rng.next_below(800);
    for (std::uint64_t i = 0; i < writes; ++i) {
      const Lpn lpn = rng.next_below(n);
      const Result<Microseconds> done = ftl.write_data(lpn, stamp(i), t, rng.next_double());
      ASSERT_TRUE(done.is_ok()) << "seed " << seed << " write " << i;
      acked[lpn] = stamp(i);
      t = done.value();
    }
    const Lpn last = rng.next_below(n);
    const Result<Microseconds> done =
        ftl.write_data(last, stamp(writes), t, rng.next_double());
    ASSERT_TRUE(done.is_ok()) << "seed " << seed;
    const auto victims =
        ftl.device().inject_power_loss(t + rng.next_below(done.value() - t));
    const TlcRecoveryReport report =
        ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());

    std::uint64_t unreadable = 0;
    for (Lpn lpn = 0; lpn < n; ++lpn) {
      if (lpn == last || acked[lpn].empty()) continue;
      const Result<nand::PageImage> got = ftl.read_data(lpn, ftl.device().all_idle_at());
      if (!got.is_ok()) {
        ++unreadable;
      } else {
        EXPECT_EQ(got.value().bytes, acked[lpn]) << "seed " << seed << " lpn " << lpn;
      }
    }
    EXPECT_LE(unreadable, report.pages_lost) << "seed " << seed;
    EXPECT_TRUE(ftl.check_consistency()) << "seed " << seed;
  }
}

TEST(FlexTlcFtl, TimingAsymmetryVisibleInCompletionTimes) {
  FlexTlcFtl ftl(one_chip());
  const nand::TimingSpec timing = ftl.config().timing;
  const auto lsb = ftl.write(0, 0, 0.95);
  ASSERT_TRUE(lsb.is_ok());
  EXPECT_EQ(lsb.value(), timing.transfer_us + timing.program_lsb_us);
}

}  // namespace
}  // namespace rps::core
