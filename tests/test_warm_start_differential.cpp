// Warm-start differential lockdown: a trial forked from a steady-state
// snapshot must be bit-identical to one that ran its own fill phase.
//
// Three layers, mirroring how snapshots are consumed:
//   - sim::run_experiment with a precondition snapshot vs a cold run:
//     identical SimResult counters and identical mergeable latency
//     histograms for every FTL kind;
//   - faultsim::run_trial forked from a WarmStart vs cold: identical
//     CrashReports, across a 16-seed sweep;
//   - faultsim::sweep_matrix digests: cold vs warm and --jobs 1/2/8 all
//     equal (the bench_simcore / CI snapshot-smoke invariant).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/snapshot.hpp"

namespace rps {
namespace {

using faultsim::FaultSimConfig;
using faultsim::WarmStart;

sim::ExperimentSpec quick_spec() {
  sim::ExperimentSpec spec;
  spec.ftl_config = ftl::FtlConfig::tiny();
  spec.requests = 600;
  spec.seed = 11;
  return spec;
}

void expect_results_equal(const sim::SimResult& cold, const sim::SimResult& warm,
                          const std::string& label) {
  EXPECT_EQ(cold.requests, warm.requests) << label;
  EXPECT_EQ(cold.pages_read, warm.pages_read) << label;
  EXPECT_EQ(cold.pages_written, warm.pages_written) << label;
  EXPECT_EQ(cold.read_errors, warm.read_errors) << label;
  EXPECT_EQ(cold.makespan_us, warm.makespan_us) << label;
  EXPECT_EQ(cold.busy_us, warm.busy_us) << label;
  EXPECT_EQ(cold.idle_windows, warm.idle_windows) << label;
  EXPECT_EQ(cold.idle_time_us, warm.idle_time_us) << label;
  EXPECT_EQ(cold.erases, warm.erases) << label;
  EXPECT_EQ(cold.latency_hist_us, warm.latency_hist_us) << label;
  EXPECT_EQ(cold.write_bw_kbps, warm.write_bw_kbps) << label;
}

// Satellite: run_experiment forked from make_precondition_snapshot is
// bit-identical to the cold path, for every FTL kind.
TEST(WarmStartDifferential, RunExperimentColdVsFork) {
  const sim::ExperimentSpec spec = quick_spec();
  for (const sim::FtlKind kind : sim::kAllFtls) {
    const sim::SimResult cold = run_experiment(kind, workload::Preset::kVarmail, spec);
    const sim::Snapshot warm = sim::make_precondition_snapshot(kind, spec);
    const sim::SimResult forked = run_experiment(
        kind, workload::Preset::kVarmail, spec, nullptr, nullptr, &warm);
    expect_results_equal(cold, forked, sim::to_string(kind));
  }
}

// One snapshot serves every preset: the fill phase never sees the
// workload, so forking the whole preset row from one capture matches
// per-cell cold preconditioning.
TEST(WarmStartDifferential, OneSnapshotServesAllPresets) {
  const sim::ExperimentSpec spec = quick_spec();
  const sim::Snapshot warm =
      sim::make_precondition_snapshot(sim::FtlKind::kFlex, spec);
  // OLTP and Varmail: both fit the tiny device (Fileserver's large
  // sequential writes outrun GC on 4 x 16-block chips even cold).
  for (const workload::Preset preset :
       {workload::Preset::kVarmail, workload::Preset::kOltp}) {
    const sim::SimResult cold = run_experiment(sim::FtlKind::kFlex, preset, spec);
    const sim::SimResult forked =
        run_experiment(sim::FtlKind::kFlex, preset, spec, nullptr, nullptr, &warm);
    expect_results_equal(cold, forked, workload::to_string(preset));
  }
}

// Satellite: faultsim trials forked from a WarmStart reproduce the cold
// CrashReport bit for bit, across 16 seeds (golden runs and crashed runs).
TEST(WarmStartDifferential, FaultsimTrialColdVsFork16Seeds) {
  FaultSimConfig base;
  const WarmStart warm = make_warm_start(base);
  ASSERT_FALSE(warm.empty());
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    FaultSimConfig config = base;
    config.seed = seed;
    const faultsim::TrialResult cold = run_trial(config);
    const faultsim::TrialResult forked = run_trial(config, nullptr, &warm);
    EXPECT_TRUE(cold.report == forked.report) << "seed " << seed;
    EXPECT_EQ(cold.boundaries, forked.boundaries) << "seed " << seed;

    // And the crashed variant: cut mid-flight at a golden boundary.
    if (cold.boundaries.size() > 4) {
      config.crash_time_us = cold.boundaries[cold.boundaries.size() / 2] - 1;
      const faultsim::TrialResult cold_crash = run_trial(config);
      const faultsim::TrialResult forked_crash = run_trial(config, nullptr, &warm);
      EXPECT_TRUE(cold_crash.report == forked_crash.report) << "seed " << seed;
    }
  }
}

/// Order-sensitive digest over every numeric field of a sweep matrix —
/// the same reduction bench_simcore pins.
std::uint64_t digest_matrix(const std::vector<faultsim::MatrixCell>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const faultsim::MatrixCell& cell : cells) {
    mix(cell.seed);
    mix(cell.points);
    mix(cell.result.golden_boundaries);
    mix(cell.result.crashes_injected);
    mix(cell.result.total_victims);
    mix(cell.result.total_pages_lost);
    mix(cell.result.total_parity_recovered);
    mix(cell.result.replay_mismatches);
    mix(cell.result.failures.size());
  }
  return h;
}

// Satellite: the sweep matrix digests bit-identically cold vs warm and at
// --jobs 1, 2, and 8 — preconditioning once and forking trials changes
// nothing observable, at any parallelism.
TEST(WarmStartDifferential, SweepMatrixDigestColdVsWarmAcrossJobs) {
  FaultSimConfig base;
  faultsim::MatrixOptions options;
  options.seeds = 4;
  options.densities = {6};
  options.sweep.minimize = false;

  options.sweep.warm_start = false;
  options.jobs = 1;
  const std::uint64_t cold = digest_matrix(sweep_matrix(base, options));

  options.sweep.warm_start = true;
  std::vector<std::uint64_t> warm_digests;
  for (const std::uint32_t jobs : {1u, 2u, 8u}) {
    options.jobs = jobs;
    warm_digests.push_back(digest_matrix(sweep_matrix(base, options)));
  }
  for (const std::uint64_t digest : warm_digests) EXPECT_EQ(digest, cold);
}

// The WarmStart file round-trip feeds back into trials unchanged
// (faultsim --snapshot / --from-snapshot). The file carries the sealed
// snapshot stream; the reload verifies it and holds what the capture
// held, so both digests survive the round trip.
TEST(WarmStartDifferential, WarmStartFileRoundTrip) {
  FaultSimConfig base;
  const WarmStart warm = make_warm_start(base);
  const std::string path = testing::TempDir() + "rps_warm_start.bin";
  ASSERT_TRUE(warm.save_file(path));

  const std::optional<WarmStart> loaded = WarmStart::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->digest(), warm.digest());
  EXPECT_EQ(loaded->ftl.digest(), warm.ftl.digest());
  EXPECT_TRUE(loaded->ftl.bytes() == warm.ftl.bytes());
  EXPECT_TRUE(loaded->oracle == warm.oracle);

  FaultSimConfig config = base;
  config.seed = 9;
  const faultsim::TrialResult cold = run_trial(config);
  const faultsim::TrialResult forked = run_trial(config, nullptr, &*loaded);
  EXPECT_TRUE(cold.report == forked.report);
  std::remove(path.c_str());
}

// A warm start made for one FTL must not silently feed a config for
// another: loaders reject the mismatch before any trial runs.
TEST(WarmStartDifferential, SnapshotKindMismatchIsRejected) {
  FaultSimConfig flex;  // kFlex default
  const WarmStart warm = make_warm_start(flex);
  std::unique_ptr<ftl::FtlBase> page =
      sim::make_ftl(sim::FtlKind::kPage, flex.ftl_config);
  EXPECT_FALSE(warm.ftl.restore(*page));
}

}  // namespace
}  // namespace rps
