#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include "src/ftl/page_ftl.hpp"
#include "src/sim/runner.hpp"
#include "src/workload/generator.hpp"

namespace rps::sim {
namespace {

SimConfig quick_sim() {
  SimConfig c;
  c.queue_depth = 8;
  return c;
}

workload::Trace steady_trace(Lpn span, std::size_t n, Microseconds gap) {
  workload::Trace t("steady");
  for (std::size_t i = 0; i < n; ++i) {
    t.add({static_cast<Microseconds>(i) * gap, workload::IoKind::kWrite,
           static_cast<Lpn>(i) % span, 1});
  }
  return t;
}

TEST(Simulator, PreconditionFillsMapping) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  sim.precondition();
  EXPECT_EQ(ftl.mapping().mapped_count(), ftl.exported_pages());
}

TEST(Simulator, RunCountsRequestsAndPages) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  workload::Trace t("mix");
  t.add({0, workload::IoKind::kWrite, 0, 3});
  t.add({100, workload::IoKind::kRead, 0, 2});
  t.add({200, workload::IoKind::kWrite, 10, 1});
  const SimResult r = sim.run(t);
  EXPECT_EQ(r.requests, 3u);
  EXPECT_EQ(r.write_requests, 2u);
  EXPECT_EQ(r.read_requests, 1u);
  EXPECT_EQ(r.pages_written, 4u);
  EXPECT_EQ(r.pages_read, 2u);
  EXPECT_EQ(r.latency_hist_us.count(), 3u);
  EXPECT_GT(r.makespan_us, 0);
}

TEST(Simulator, EmptyTrace) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  const SimResult r = sim.run(workload::Trace("empty"));
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.iops_makespan(), 0.0);
  EXPECT_EQ(r.iops_busy(), 0.0);
}

TEST(Simulator, BufferedWritesAckInstantlyWhenUnderloaded) {
  // Sparse writes never fill the buffer: every write's latency is zero
  // (acknowledged on buffer insert), regardless of program latency.
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  const SimResult r = sim.run(steady_trace(32, 50, /*gap=*/100'000));
  EXPECT_EQ(r.latency_hist_us.max(), 0u);
}

TEST(Simulator, SaturationMakesWritesWaitForBuffer) {
  // Back-to-back writes exceed the device rate: ACKs become flush-bound
  // and latencies grow.
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  const SimResult r = sim.run(steady_trace(32, 2000, /*gap=*/1));
  EXPECT_GT(r.latency_hist_us.percentile(90), 1000u);
  EXPECT_GT(r.makespan_us, 2000);
}

TEST(Simulator, IdleWindowsDetectedAndDelivered) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  workload::Trace t("gappy");
  for (int burst = 0; burst < 5; ++burst) {
    const Microseconds base = burst * 1'000'000;
    for (int i = 0; i < 10; ++i) {
      t.add({base + i * 10, workload::IoKind::kWrite,
             static_cast<Lpn>(burst * 10 + i), 1});
    }
  }
  const SimResult r = sim.run(t);
  EXPECT_GE(r.idle_windows, 4u);
  EXPECT_GT(r.idle_time_us, 3'000'000);
}

TEST(Simulator, DeterministicResults) {
  const workload::Trace t = workload::generate(
      workload::preset_config(workload::Preset::kVarmail, 128, 2000, 5));
  auto run_once = [&]() {
    ftl::PageFtl ftl(ftl::FtlConfig::tiny());
    Simulator sim(ftl, quick_sim());
    sim.precondition();
    return sim.run(t);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.ops.programs(), b.ops.programs());
}

TEST(Simulator, DeltaCountersExcludePrecondition) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  sim.precondition();
  const std::uint64_t programs_total = ftl.device().total_counters().programs();
  ASSERT_GT(programs_total, 0u);
  const SimResult r = sim.run(steady_trace(32, 10, 1000));
  EXPECT_EQ(r.ops.programs(), ftl.device().total_counters().programs() - programs_total);
  EXPECT_LE(r.ops.programs(), programs_total);
}

TEST(Simulator, BandwidthSamplesPresentForWriteWorkloads) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  SimConfig config = quick_sim();
  config.bw_window_us = 10'000;
  Simulator sim(ftl, config);
  const SimResult r = sim.run(steady_trace(32, 500, 100));
  EXPECT_FALSE(r.write_bw_kbps.empty());
  EXPECT_GT(r.write_bw_kbps.max(), 0u);
}

TEST(Simulator, WarmUpReachesGcSteadyState) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  Simulator sim(ftl, quick_sim());
  sim.precondition();
  const workload::Trace warm = workload::generate(
      workload::preset_config(workload::Preset::kNtrx, ftl.exported_pages(), 3000, 9));
  sim.warm_up(warm);
  EXPECT_GT(ftl.device().total_erase_count(), 0u);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(Runner, MakeFtlProducesAllFour) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  EXPECT_EQ(make_ftl(FtlKind::kPage, config)->name(), "pageFTL");
  EXPECT_EQ(make_ftl(FtlKind::kParity, config)->name(), "parityFTL");
  EXPECT_EQ(make_ftl(FtlKind::kRtf, config)->name(), "rtfFTL");
  EXPECT_EQ(make_ftl(FtlKind::kFlex, config)->name(), "flexFTL");
}

TEST(Runner, BenchGeometryShape) {
  const nand::Geometry g = bench_geometry();
  EXPECT_EQ(g.channels, 8u);          // the paper's channel organization
  EXPECT_EQ(g.chips_per_channel, 4u);
  EXPECT_EQ(g.pages_per_block(), 256u);
  EXPECT_TRUE(g.valid());
}

TEST(Runner, RunExperimentEndToEnd) {
  ExperimentSpec spec;
  spec.ftl_config = ftl::FtlConfig::tiny();
  spec.requests = 1500;
  spec.working_set_fraction = 0.8;
  const SimResult r = run_experiment(FtlKind::kFlex, workload::Preset::kVarmail, spec);
  EXPECT_EQ(r.ftl_name, "flexFTL");
  EXPECT_EQ(r.workload_name, "Varmail");
  EXPECT_EQ(r.requests, 1500u);
  EXPECT_GT(r.iops_makespan(), 0.0);
}

}  // namespace
}  // namespace rps::sim
