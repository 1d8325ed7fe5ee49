// Cross-module integration: all four FTLs driven through the simulator on
// a shared workload, checking the comparative properties the paper's
// evaluation rests on — on a scaled-down device so the suite stays fast.
#include <gtest/gtest.h>

#include "src/core/flex_ftl.hpp"
#include "src/sim/runner.hpp"

namespace rps {
namespace {

sim::ExperimentSpec small_spec() {
  sim::ExperimentSpec spec;
  spec.ftl_config.geometry = nand::Geometry{.channels = 2,
                                            .chips_per_channel = 2,
                                            .blocks_per_chip = 24,
                                            .wordlines_per_block = 16,
                                            .page_size_bytes = 2048,
                                            .spare_bytes = 32};
  spec.ftl_config.overprovisioning = 0.2;
  spec.ftl_config.gc_reserve_blocks = 1;
  spec.ftl_config.write_buffer_pages = 16;
  spec.ftl_config.rtf_active_blocks = 2;
  spec.requests = 4000;
  spec.working_set_fraction = 0.8;
  spec.sim.queue_depth = 16;
  return spec;
}

class AllFtls : public ::testing::TestWithParam<sim::FtlKind> {};

TEST_P(AllFtls, CompletesAWorkloadAndStaysConsistent) {
  const sim::ExperimentSpec spec = small_spec();
  auto ftl = sim::make_ftl(GetParam(), spec.ftl_config);
  sim::Simulator simulator(*ftl, spec.sim);
  simulator.precondition();
  const workload::Trace trace = workload::generate(workload::preset_config(
      workload::Preset::kVarmail,
      static_cast<Lpn>(ftl->exported_pages() * spec.working_set_fraction),
      spec.requests, 3));
  const sim::SimResult r = simulator.run(trace);
  EXPECT_EQ(r.requests, spec.requests);
  EXPECT_EQ(r.read_errors, 0u);
  EXPECT_GT(r.iops_makespan(), 0.0);
  EXPECT_GE(r.waf(), 1.0);
  EXPECT_TRUE(ftl->check_consistency());
}

TEST_P(AllFtls, DataIntegrityUnderOverwrites) {
  // Write known signatures, overwrite some, verify every final value via
  // device reads (signature equality proves mapping correctness).
  const sim::ExperimentSpec spec = small_spec();
  auto ftl = sim::make_ftl(GetParam(), spec.ftl_config);
  const Lpn n = ftl->exported_pages();
  std::vector<std::vector<std::uint8_t>> expected(n);
  Rng rng(99);
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    expected[lpn] = {static_cast<std::uint8_t>(lpn), static_cast<std::uint8_t>(lpn >> 8)};
    ASSERT_TRUE(ftl->write_data(lpn, expected[lpn], t, 0.5).is_ok());
  }
  for (int i = 0; i < 2000; ++i) {
    const Lpn lpn = rng.next_below(n);
    expected[lpn] = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
                     static_cast<std::uint8_t>(lpn)};
    ASSERT_TRUE(ftl->write_data(lpn, expected[lpn], t, 0.5).is_ok());
  }
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const Result<nand::PageImage> data = ftl->read_data(lpn, t);
    ASSERT_TRUE(data.is_ok()) << "lpn " << lpn;
    EXPECT_EQ(data.value().bytes, expected[lpn]) << "lpn " << lpn;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllFtls,
                         ::testing::Values(sim::FtlKind::kPage, sim::FtlKind::kParity,
                                           sim::FtlKind::kRtf, sim::FtlKind::kFlex),
                         [](const auto& info) { return sim::to_string(info.param); });

TEST(Comparative, FlexAbsorbsBurstsAtLsbSpeed) {
  // Fig. 8(c)'s mechanism: under buffer pressure flexFTL serves a burst
  // with LSB-only programs (500 us) while pageFTL must alternate LSB/MSB
  // (1250 us average) — roughly 2x burst bandwidth on a fresh device.
  const sim::ExperimentSpec spec = small_spec();
  auto page = sim::make_ftl(sim::FtlKind::kPage, spec.ftl_config);
  auto flex = sim::make_ftl(sim::FtlKind::kFlex, spec.ftl_config);
  const Lpn burst = 256;
  for (Lpn lpn = 0; lpn < burst; ++lpn) {
    ASSERT_TRUE(page->write(lpn, 0, 0.95).is_ok());
    ASSERT_TRUE(flex->write(lpn, 0, 0.95).is_ok());
  }
  const Microseconds page_time = page->device().all_idle_at();
  const Microseconds flex_time = flex->device().all_idle_at();
  EXPECT_LT(flex_time * 2, page_time * 3);  // at least 1.5x faster
  EXPECT_GT(page_time, flex_time);
}

TEST(Comparative, BackupOverheadOrdering) {
  // Per host page: flexFTL ~1/wordlines backup pages, parityFTL ~0.25,
  // rtfFTL ~0.5 — the mechanism behind Fig. 8(b).
  const sim::ExperimentSpec spec = small_spec();
  const sim::SimResult parity =
      sim::run_experiment(sim::FtlKind::kParity, workload::Preset::kNtrx, spec);
  const sim::SimResult rtf =
      sim::run_experiment(sim::FtlKind::kRtf, workload::Preset::kNtrx, spec);
  const sim::SimResult flex =
      sim::run_experiment(sim::FtlKind::kFlex, workload::Preset::kNtrx, spec);
  EXPECT_LT(flex.ftl_stats.backup_pages * 2, parity.ftl_stats.backup_pages);
  // flexFTL pays ~1/wordlines backups per LSB page vs rtfFTL's ~1 per MSB
  // page; with this test's 16-word-line blocks that is a modest gap (it is
  // 128x on the paper's geometry).
  EXPECT_LT(flex.ftl_stats.backup_pages, rtf.ftl_stats.backup_pages);
}

TEST(Comparative, FlexEraseCountNoWorseThanBackupFtls) {
  const sim::ExperimentSpec spec = small_spec();
  const sim::SimResult parity =
      sim::run_experiment(sim::FtlKind::kParity, workload::Preset::kNtrx, spec);
  const sim::SimResult rtf =
      sim::run_experiment(sim::FtlKind::kRtf, workload::Preset::kNtrx, spec);
  const sim::SimResult flex =
      sim::run_experiment(sim::FtlKind::kFlex, workload::Preset::kNtrx, spec);
  EXPECT_LE(flex.erases, parity.erases);
  EXPECT_LE(flex.erases, rtf.erases);
}

TEST(Comparative, DeviceEnforcesSequenceAcrossFtls) {
  // Sanity at the device boundary: the FPS FTLs run on FPS devices, flex
  // on an RPS device — and none of them ever trips a sequence violation
  // (all asserts in the FTLs would fire otherwise; verify kinds here).
  const sim::ExperimentSpec spec = small_spec();
  EXPECT_EQ(sim::make_ftl(sim::FtlKind::kPage, spec.ftl_config)->device().sequence_kind(),
            nand::SequenceKind::kFps);
  EXPECT_EQ(sim::make_ftl(sim::FtlKind::kParity, spec.ftl_config)->device().sequence_kind(),
            nand::SequenceKind::kFps);
  EXPECT_EQ(sim::make_ftl(sim::FtlKind::kRtf, spec.ftl_config)->device().sequence_kind(),
            nand::SequenceKind::kFps);
  EXPECT_EQ(sim::make_ftl(sim::FtlKind::kFlex, spec.ftl_config)->device().sequence_kind(),
            nand::SequenceKind::kRps);
}

}  // namespace
}  // namespace rps
