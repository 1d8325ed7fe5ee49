// flexFTL on 3-bit NAND: three-phase ordering, per-pass parity protection,
// and the TLC power-loss matrix (an interrupted CSB pass destroys the word
// line's LSB page; an interrupted MSB pass destroys LSB and CSB). The
// crash sweep runs on MLC too: the same FTL serves both cell types.
#include <gtest/gtest.h>

#include "src/core/flex_ftl.hpp"
#include "src/util/random.hpp"

namespace rps::core {
namespace {

ftl::FtlConfig one_chip() {
  ftl::FtlConfig c = ftl::FtlConfig::tlc_tiny();
  c.geometry.chips_per_channel = 1;
  return c;
}

/// Host writes that landed in the middle (CSB) pass.
std::uint64_t host_csb_writes(const ftl::FtlStats& s) {
  return s.host_write_pages - s.host_lsb_writes - s.host_msb_writes;
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

/// Write `count` pages with payloads at `u`, back to back from `t`.
Microseconds write_run(FlexFtl& ftl, Lpn first, std::uint32_t count, double u,
                       Microseconds t) {
  for (Lpn lpn = first; lpn < first + count; ++lpn) {
    const Result<ftl::HostOp> op = ftl.write_data(lpn, payload_for(lpn), t, u);
    EXPECT_TRUE(op.is_ok()) << lpn;
    if (op.is_ok()) t = op.value().complete;
  }
  return t;
}

TEST(FlexTlcFtl, BurstsAreServedEntirelyByLsbPass) {
  FlexFtl ftl(ftl::FtlConfig::tlc_tiny());
  for (Lpn lpn = 0; lpn < 40; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, /*buffer_utilization=*/0.95).is_ok());
  }
  EXPECT_EQ(ftl.stats().host_lsb_writes, 40u);
  EXPECT_EQ(host_csb_writes(ftl.stats()), 0u);
  EXPECT_EQ(ftl.stats().host_msb_writes, 0u);
}

TEST(FlexTlcFtl, ThreePhaseBlockLifecycle) {
  FlexFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  // Fast phase fills a block's LSB pages; one LSB parity page flushes.
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, 0.95).is_ok());
  }
  EXPECT_EQ(ftl.queue_depth(0, 1), 1u);
  EXPECT_EQ(ftl.stats().backup_pages, 1u);
  // Low utilization consumes the CSB pass next (no MSB capacity yet).
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(100 + lpn, 0, 0.01).is_ok());
  }
  EXPECT_EQ(ftl.queue_depth(0, 1), 0u);
  EXPECT_EQ(ftl.queue_depth(0, 2), 1u);
  EXPECT_EQ(ftl.stats().backup_pages, 2u);  // + the CSB parity page
  EXPECT_EQ(host_csb_writes(ftl.stats()), wl);
  // Then the MSB pass completes the block.
  for (Lpn lpn = 0; lpn < wl; ++lpn) {
    ASSERT_TRUE(ftl.write(200 + lpn, 0, 0.01).is_ok());
  }
  EXPECT_EQ(ftl.queue_depth(0, 2), 0u);
  EXPECT_EQ(ftl.stats().host_msb_writes, wl);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(FlexTlcFtl, QuotaDrainsOnLsbRecoversOnMsb) {
  FlexFtl ftl(one_chip());
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
  FlexFtl ftl(ftl::FtlConfig::tlc_tiny());
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
  FlexFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  const Microseconds t = write_run(ftl, 0, wl, 0.95, 0);
  // First CSB program; cut power mid-flight.
  const auto csb = ftl.write_data(100, payload_for(100), t, 0.01);
  ASSERT_TRUE(csb.is_ok());
  const auto victims = ftl.device().inject_power_loss(csb.value().complete - 100);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pos.type, nand::PageType::kCsb);
  // The paired LSB page (lpn 0) is destroyed...
  EXPECT_EQ(ftl.read_data(0, ftl.device().all_idle_at()).code(),
            ErrorCode::kEccUncorrectable);
  // ...and parity recovery brings it back.
  const RecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 1u);
  EXPECT_EQ(report.pages_lost, 0u);
  const auto data = ftl.read_data(0, ftl.device().all_idle_at());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().bytes, payload_for(0));
}

TEST(FlexTlcFtl, MsbPassPowerLossRecoversBothLowerPages) {
  // A cut in MSB(k) destroys LSB(k) and CSB(k), for every word line k. At
  // k = wl - 2 the first rewritten page lands in MSB(wl - 1) and completes
  // the very block being checked, retiring its CSB parity page: recovery
  // must read every lower pass's parity before it rewrites anything.
  const std::uint32_t wl = one_chip().geometry.wordlines_per_block;
  for (std::uint32_t k = 0; k < wl; ++k) {
    FlexFtl ftl(one_chip());
    // Fill LSB pass (lpns 0..wl-1) and CSB pass (lpns 100..100+wl-1).
    Microseconds t = write_run(ftl, 0, wl, 0.95, 0);
    t = write_run(ftl, 100, wl, 0.01, t);
    t = write_run(ftl, 200, k, 0.01, t);
    // Cut power mid-flight in MSB(k): LSB(k) and CSB(k) both die.
    const auto msb = ftl.write_data(300, payload_for(300), t, 0.01);
    ASSERT_TRUE(msb.is_ok()) << k;
    const auto victims = ftl.device().inject_power_loss(
        msb.value().complete - ftl.config().timing.program_msb_us / 2);
    ASSERT_EQ(victims.size(), 1u) << k;
    EXPECT_EQ(victims[0].pos, (nand::PagePos{k, nand::PageType::kMsb})) << k;
    EXPECT_EQ(ftl.read_data(k, t).code(), ErrorCode::kEccUncorrectable) << k;
    EXPECT_EQ(ftl.read_data(100 + k, t).code(), ErrorCode::kEccUncorrectable) << k;

    const RecoveryReport report =
        ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
    EXPECT_EQ(report.pages_recovered, 2u) << k;
    EXPECT_EQ(report.pages_lost, 0u) << k;
    const Microseconds check = ftl.device().all_idle_at();
    for (const Lpn lpn : {Lpn{k}, Lpn{100 + k}}) {
      const auto data = ftl.read_data(lpn, check);
      ASSERT_TRUE(data.is_ok()) << "k " << k << " lpn " << lpn;
      EXPECT_EQ(data.value().bytes, payload_for(lpn)) << "k " << k << " lpn " << lpn;
    }
    EXPECT_TRUE(ftl.check_consistency()) << k;
  }
}

TEST(FlexTlcFtl, FinalPassCutRestoresLowerPages) {
  // The MSB program that completes a block retires the block's parity
  // pages the moment it is issued; a cut inside it destroys LSB(last) and
  // CSB(last), and the retirement log hands recovery both parity pages.
  FlexFtl ftl(one_chip());
  const std::uint32_t wl = ftl.config().geometry.wordlines_per_block;
  Microseconds t = write_run(ftl, 0, wl, 0.95, 0);
  t = write_run(ftl, 100, wl, 0.01, t);
  t = write_run(ftl, 200, wl - 1, 0.01, t);
  const auto last = ftl.write_data(300, payload_for(300), t, 0.01);
  ASSERT_TRUE(last.is_ok());
  EXPECT_EQ(ftl.queue_depth(0, 2), 0u);  // the block is already full
  const Microseconds program = ftl.config().timing.program_msb_us;
  const auto victims =
      ftl.device().inject_power_loss(last.value().complete - program / 2);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pos, (nand::PagePos{wl - 1, nand::PageType::kMsb}));

  const RecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  EXPECT_EQ(report.pages_recovered, 2u);
  EXPECT_EQ(report.pages_lost, 0u);
  const Microseconds check = ftl.device().all_idle_at();
  for (const Lpn lpn : {Lpn{wl - 1}, Lpn{100 + wl - 1}}) {
    const auto data = ftl.read_data(lpn, check);
    ASSERT_TRUE(data.is_ok()) << lpn;
    EXPECT_EQ(data.value().bytes, payload_for(lpn)) << lpn;
  }
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(FlexTlcFtl, CrashSweepAccountsForEveryAcknowledgedPage) {
  // Seeded random runs, each cut inside its last write, on MLC and TLC.
  // After recovery every acknowledged LPN reads back its last bytes or is
  // counted in pages_lost; only the LPN being written at the cut is
  // exempt.
  for (const ftl::FtlConfig& config : {ftl::FtlConfig::tiny(), ftl::FtlConfig::tlc_tiny()}) {
    const std::uint32_t bits = config.geometry.bits_per_cell;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
      FlexFtl ftl(config);
      const Lpn n = ftl.exported_pages();
      Rng rng(seed);
      std::vector<std::vector<std::uint8_t>> acked(n);  // empty = never written
      Microseconds t = 0;
      const std::uint64_t writes = 400 + rng.next_below(800);
      for (std::uint64_t i = 0; i < writes; ++i) {
        const Lpn lpn = rng.next_below(n);
        const Result<ftl::HostOp> done =
            ftl.write_data(lpn, stamp(i), t, rng.next_double());
        ASSERT_TRUE(done.is_ok()) << bits << " bits, seed " << seed << " write " << i;
        acked[lpn] = stamp(i);
        t = done.value().complete;
      }
      const Lpn last = rng.next_below(n);
      const Result<ftl::HostOp> done =
          ftl.write_data(last, stamp(writes), t, rng.next_double());
      ASSERT_TRUE(done.is_ok()) << bits << " bits, seed " << seed;
      const auto victims =
          ftl.device().inject_power_loss(t + rng.next_below(done.value().complete - t));
      const RecoveryReport report =
          ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());

      std::uint64_t unreadable = 0;
      for (Lpn lpn = 0; lpn < n; ++lpn) {
        if (lpn == last || acked[lpn].empty()) continue;
        const Result<nand::PageImage> got = ftl.read_data(lpn, ftl.device().all_idle_at());
        if (!got.is_ok()) {
          ++unreadable;
        } else {
          EXPECT_EQ(got.value().bytes, acked[lpn])
              << bits << " bits, seed " << seed << " lpn " << lpn;
        }
      }
      EXPECT_LE(unreadable, report.pages_lost) << bits << " bits, seed " << seed;
      EXPECT_TRUE(ftl.check_consistency()) << bits << " bits, seed " << seed;
    }
  }
}

TEST(FlexTlcFtl, TimingAsymmetryVisibleInCompletionTimes) {
  FlexFtl ftl(one_chip());
  const nand::TimingSpec timing = ftl.config().timing;
  const auto lsb = ftl.write(0, 0, 0.95);
  ASSERT_TRUE(lsb.is_ok());
  EXPECT_EQ(lsb.value().complete, timing.transfer_us + timing.program_lsb_us);
}

}  // namespace
}  // namespace rps::core
