// The deterministic parallel runner (src/util/parallel.hpp) and its
// adopters. The contract under test is the one every sweep and bench
// relies on: for ANY jobs value the merged output is bit-identical to
// the sequential run — parallelism may only change wall-clock time,
// never a single result byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/faultsim/sweep.hpp"
#include "src/sim/runner.hpp"
#include "src/util/parallel.hpp"

namespace rps {
namespace {

TEST(DeriveSeed, IsAPureFunctionOfBaseAndIndex) {
  EXPECT_EQ(util::derive_seed(1, 0), util::derive_seed(1, 0));
  EXPECT_EQ(util::derive_seed(42, 17), util::derive_seed(42, 17));
  EXPECT_NE(util::derive_seed(1, 0), util::derive_seed(1, 1));
  EXPECT_NE(util::derive_seed(1, 0), util::derive_seed(2, 0));
}

TEST(DeriveSeed, HasNoCollisionsOverATrialRange) {
  // A sweep derives one seed per trial index; a collision would silently
  // run the same trial twice and skip another.
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 4096; ++index) {
    seen.insert(util::derive_seed(7, index));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;  // not a multiple of any jobs value
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for_indexed(kN, 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, MergesSlotsIdenticallyForAnyJobCount) {
  constexpr std::size_t kN = 100;
  const auto compute = [](std::size_t i) {
    // Stand-in for a trial: value depends on the index and its derived
    // seed, never on thread identity or timing.
    return util::derive_seed(99, i) ^ (static_cast<std::uint64_t>(i) << 32);
  };
  std::vector<std::uint64_t> sequential(kN);
  for (std::size_t i = 0; i < kN; ++i) sequential[i] = compute(i);

  for (const std::uint32_t jobs : {1u, 2u, 3u, 8u}) {
    std::vector<std::uint64_t> parallel(kN, 0);
    util::parallel_for_indexed(kN, jobs,
                               [&](std::size_t i) { parallel[i] = compute(i); });
    EXPECT_EQ(parallel, sequential) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, JobsOneRunsInlineOnTheCallingThread) {
  // --jobs 1 must be exactly the pre-pool sequential path: same thread,
  // ascending order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  util::parallel_for_indexed(16, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> ascending(16);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(order, ascending);
}

TEST(ParallelFor, ZeroAndSingleElementRangesComplete) {
  int calls = 0;
  util::parallel_for_indexed(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for_indexed(1, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionIsRethrownAtTheBarrier) {
  std::atomic<int> completed{0};
  EXPECT_THROW(
      util::parallel_for_indexed(64, 4,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("trial 5");
                                   ++completed;
                                 }),
      std::runtime_error);
  // The barrier still held: no body is running after the throw, and the
  // non-throwing bodies that ran completed normally.
  EXPECT_GE(completed.load(), 0);
  EXPECT_LT(completed.load(), 64);
}

TEST(ParallelFor, PoolServesConsecutiveJobsAndSurvivesAnException) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::uint64_t> a(50, 0);
  pool.parallel_for_indexed(a.size(), [&](std::size_t i) { a[i] = i * i; });
  EXPECT_THROW(pool.parallel_for_indexed(
                   10, [&](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The pool is reusable after a failed job.
  std::vector<std::uint64_t> b(50, 0);
  pool.parallel_for_indexed(b.size(), [&](std::size_t i) { b[i] = a[i] + 1; });
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], i * i + 1);
}

// --- Adopters: parallel sweeps must be bit-identical to sequential. ---

void expect_same_sweep(const faultsim::SweepResult& seq,
                       const faultsim::SweepResult& par, const char* what) {
  EXPECT_EQ(seq.golden_boundaries, par.golden_boundaries) << what;
  EXPECT_EQ(seq.crashes_injected, par.crashes_injected) << what;
  EXPECT_EQ(seq.total_victims, par.total_victims) << what;
  EXPECT_EQ(seq.total_pages_lost, par.total_pages_lost) << what;
  EXPECT_EQ(seq.total_parity_recovered, par.total_parity_recovered) << what;
  EXPECT_EQ(seq.replay_mismatches, par.replay_mismatches) << what;
  ASSERT_EQ(seq.failures.size(), par.failures.size()) << what;
  for (std::size_t i = 0; i < seq.failures.size(); ++i) {
    EXPECT_EQ(seq.failures[i].line, par.failures[i].line) << what;
    EXPECT_EQ(seq.failures[i].report, par.failures[i].report) << what;
  }
}

TEST(ParallelSweep, JobsEightBitIdenticalToJobsOne) {
  faultsim::FaultSimConfig config;  // flexFTL / controller, tiny geometry
  config.seed = 5;
  faultsim::SweepOptions options;
  options.crash_points = 6;
  options.minimize = false;

  options.jobs = 1;
  const faultsim::SweepResult seq = faultsim::sweep(config, options);
  options.jobs = 8;
  const faultsim::SweepResult par = faultsim::sweep(config, options);
  EXPECT_GT(seq.crashes_injected, 0u);
  expect_same_sweep(seq, par, "sweep jobs=8");
}

TEST(ParallelSweep, MatrixBitIdenticalAcrossJobCounts) {
  faultsim::FaultSimConfig base;
  faultsim::MatrixOptions options;
  options.seeds = 2;
  options.densities = {4};
  options.sweep.minimize = false;

  options.jobs = 1;
  const std::vector<faultsim::MatrixCell> seq = faultsim::sweep_matrix(base, options);
  options.jobs = 4;
  const std::vector<faultsim::MatrixCell> par = faultsim::sweep_matrix(base, options);

  ASSERT_EQ(seq.size(), par.size());
  ASSERT_EQ(seq.size(), 2u);  // seeds x densities, cell-enumeration order
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].seed, par[i].seed);
    EXPECT_EQ(seq[i].points, par[i].points);
    expect_same_sweep(seq[i].result, par[i].result, "matrix cell");
  }
}

void expect_same_result(const sim::SimResult& seq, const sim::SimResult& par) {
  EXPECT_EQ(seq.ftl_name, par.ftl_name);
  EXPECT_EQ(seq.workload_name, par.workload_name);
  EXPECT_EQ(seq.requests, par.requests);
  EXPECT_EQ(seq.pages_read, par.pages_read);
  EXPECT_EQ(seq.pages_written, par.pages_written);
  EXPECT_EQ(seq.read_errors, par.read_errors);
  EXPECT_EQ(seq.makespan_us, par.makespan_us);
  EXPECT_EQ(seq.busy_us, par.busy_us);
  EXPECT_EQ(seq.erases, par.erases);
  EXPECT_EQ(seq.latency_hist_us, par.latency_hist_us);
  EXPECT_EQ(seq.write_bw_kbps, par.write_bw_kbps);
}

sim::ExperimentSpec tiny_spec() {
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
  spec.requests = 1200;
  spec.working_set_fraction = 0.8;
  spec.sim.queue_depth = 16;
  return spec;
}

TEST(ParallelRunner, PresetMatrixMatchesSequentialExperiments) {
  const sim::ExperimentSpec spec = tiny_spec();
  const std::vector<workload::Preset> presets = {workload::Preset::kNtrx,
                                                 workload::Preset::kVarmail};

  const std::vector<std::vector<sim::SimResult>> matrix =
      sim::run_preset_matrix(presets, spec, /*jobs=*/4);

  ASSERT_EQ(matrix.size(), presets.size());
  for (std::size_t p = 0; p < presets.size(); ++p) {
    // The sequential reference: run_all_ftls at jobs=1 is the plain loop.
    const std::vector<sim::SimResult> seq =
        sim::run_all_ftls(presets[p], spec, /*jobs=*/1);
    ASSERT_EQ(matrix[p].size(), seq.size());
    for (std::size_t f = 0; f < seq.size(); ++f) {
      expect_same_result(seq[f], matrix[p][f]);
    }
  }
}

TEST(ParallelRunner, ParseJobsFlagAcceptsBothSpellings) {
  const auto parse = [](std::vector<const char*> argv) {
    return sim::parse_jobs_flag(static_cast<int>(argv.size()),
                                const_cast<char**>(argv.data()));
  };
  EXPECT_EQ(parse({"bench"}).value(), 1u);
  EXPECT_EQ(parse({"bench", "--jobs=6"}).value(), 6u);
  EXPECT_EQ(parse({"bench", "--jobs", "3"}).value(), 3u);
  EXPECT_EQ(parse({"bench", "--jobs"}).value(), 1u);
  // Malformed values are errors, never a silent default.
  EXPECT_EQ(parse({"bench", "--jobs=garbage"}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(parse({"bench", "--jobs=0"}).code(), ErrorCode::kInvalidArgument);
}

TEST(ParallelRunner, ParseRequestsFlagRejectsMalformedCounts) {
  const auto parse = [](std::vector<const char*> argv) {
    return sim::parse_requests_flag(static_cast<int>(argv.size()),
                                    const_cast<char**>(argv.data()), 500);
  };
  EXPECT_EQ(parse({"bench"}).value(), 500u);
  EXPECT_EQ(parse({"bench", "--requests=20000"}).value(), 20000u);
  EXPECT_EQ(parse({"bench", "--requests", "7"}).value(), 7u);
  for (const char* bad : {"--requests=abc", "--requests=12x", "--requests=-5",
                          "--requests=0", "--requests=", "--requests=+3",
                          "--requests=99999999999999999999999"}) {
    EXPECT_EQ(parse({"bench", bad}).code(), ErrorCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(parse({"bench", "--requests", "-5"}).code(), ErrorCode::kInvalidArgument);
}

TEST(ParallelRunner, ParseCountValueHonorsItsBound) {
  EXPECT_EQ(sim::parse_count_value("--jobs", "4294967295", UINT32_MAX).value(), UINT32_MAX);
  EXPECT_EQ(sim::parse_count_value("--jobs", "4294967296", UINT32_MAX).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sim::parse_count_value("--victim-gap", "5000").value(), 5000u);
  for (const char* bad : {"abc", "0", "-1", "+1", " 1", "1 ", "1.0", ""}) {
    EXPECT_EQ(sim::parse_count_value("--quantum", bad).code(), ErrorCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

TEST(ParallelRunner, ParseUintValueAcceptsZero) {
  EXPECT_EQ(sim::parse_uint_value("--seed", "0").value(), 0u);
  EXPECT_EQ(sim::parse_uint_value("--seed", "18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(sim::parse_uint_value("--budget", "10", UINT32_MAX).value(), 10u);
  EXPECT_EQ(sim::parse_uint_value("--budget", "4294967296", UINT32_MAX).code(),
            ErrorCode::kInvalidArgument);
  for (const char* bad : {"x", "-1", "+0", "7x", "", "18446744073709551616"}) {
    EXPECT_EQ(sim::parse_uint_value("--seed", bad).code(), ErrorCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

TEST(ParallelRunner, ParseFractionValueStaysInTheUnitInterval) {
  EXPECT_EQ(sim::parse_fraction_value("--victim-rf", "0").value(), 0.0);
  EXPECT_EQ(sim::parse_fraction_value("--victim-rf", "0.25").value(), 0.25);
  EXPECT_EQ(sim::parse_fraction_value("--victim-rf", "1").value(), 1.0);
  for (const char* bad : {"zz", "1.5", "-0.1", "0.5x", "", "nan", "inf", "1e-1", "+0.5"}) {
    EXPECT_EQ(sim::parse_fraction_value("--victim-rf", bad).code(),
              ErrorCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

TEST(ParallelRunner, ParseSwitchValueTakesZeroOrOne) {
  EXPECT_FALSE(sim::parse_switch_value("--stripe", "0").value());
  EXPECT_TRUE(sim::parse_switch_value("--stripe", "1").value());
  for (const char* bad : {"x", "2", "01", "true", ""}) {
    EXPECT_EQ(sim::parse_switch_value("--stripe", bad).code(), ErrorCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace rps
