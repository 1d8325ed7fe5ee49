// Observability layer: mergeable histograms, the state sampler's cadence
// contract, and the determinism guarantees of the trace sink.
//
// The load-bearing claims under test:
//   - LatencyHistogram quantiles are within one sub-bucket (< 0.8%
//     relative) of the true sample and never below it; merging per-slot
//     histograms in slot order is bit-identical for any --jobs value,
//   - StateSampler emits at most one sample per period-grid slot, with
//     timestamps that are multiples of the period and strictly increasing
//     no matter how irregular the tick times are,
//   - a traced run serializes byte-identically across repeat runs of the
//     same config (traces are pure functions of config + seed),
//   - attaching a TraceSink / StateSampler does not perturb the
//     simulation: the A/B of a traced and untraced run is equal in every
//     result field.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/runner.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"

namespace rps::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_low(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_high(v), v);
    h.add(v);
  }
  EXPECT_EQ(h.count(), LatencyHistogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LatencyHistogram::kSubBuckets - 1);
  // Values below 2^kSubBucketBits occupy one bucket each, so quantiles of
  // small values are exact, not approximations.
  EXPECT_EQ(h.percentile(50.0), 63u);
  EXPECT_EQ(h.percentile(100.0), 127u);
}

TEST(LatencyHistogram, BucketBoundsContainTheirValues) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_below(40));
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_LE(LatencyHistogram::bucket_low(idx), v);
    EXPECT_GE(LatencyHistogram::bucket_high(idx), v);
    if (idx > 0) {
      EXPECT_EQ(LatencyHistogram::bucket_low(idx),
                LatencyHistogram::bucket_high(idx - 1) + 1);
    }
  }
}

TEST(LatencyHistogram, QuantileErrorWithinOneSubBucket) {
  // Sorted ground truth vs histogram report: the report is the bucket's
  // upper bound, so it is >= the true order statistic and within one
  // sub-bucket's width (2^-7 < 0.8% relative) of it.
  Rng rng(11);
  std::vector<std::uint64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t v = 1 + (rng.next_u64() % 3'000'000);
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(p / 100.0 * values.size())));
    const std::uint64_t truth = values[rank - 1];
    const std::uint64_t reported = h.percentile(p);
    EXPECT_GE(reported, truth);
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(truth) * (1.0 + 1.0 / 128.0) + 1.0);
  }
  EXPECT_EQ(h.percentile(100.0), values.back());
  EXPECT_EQ(h.max(), values.back());
  EXPECT_EQ(h.min(), values.front());
}

TEST(LatencyHistogram, CdfMatchesEmpirical) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_DOUBLE_EQ(h.cdf_at(50), 0.5);
  EXPECT_DOUBLE_EQ(h.cdf_at(100), 1.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(0), 0.0);
}

TEST(LatencyHistogram, MergeEqualsBulkAdd) {
  Rng rng(3);
  LatencyHistogram all, a, b;
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t v = rng.next_u64() % 1'000'000;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, all);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_EQ(merged.to_json(), all.to_json());
}

TEST(LatencyHistogram, ShardedMergeIsJobsInvariant) {
  // The sweep-engine pattern: samples shard across parallel_for_indexed
  // slots, each slot fills its own histogram, and the slots merge in slot
  // order. The result must be bit-identical for ANY jobs value.
  constexpr std::size_t kSlots = 16;
  constexpr std::size_t kPerSlot = 2'000;
  LatencyHistogram sequential;
  for (std::size_t s = 0; s < kSlots; ++s) {
    Rng rng(1000 + s);
    for (std::size_t i = 0; i < kPerSlot; ++i) sequential.add(rng.next_u64() % 500'000);
  }

  for (const std::uint32_t jobs : {1u, 2u, 4u, 8u}) {
    std::vector<LatencyHistogram> slots(kSlots);
    util::parallel_for_indexed(kSlots, jobs, [&](std::size_t s) {
      Rng rng(1000 + s);
      for (std::size_t i = 0; i < kPerSlot; ++i) slots[s].add(rng.next_u64() % 500'000);
    });
    LatencyHistogram merged;
    for (const LatencyHistogram& slot : slots) merged.merge(slot);
    EXPECT_EQ(merged, sequential) << "jobs=" << jobs;
    EXPECT_EQ(merged.to_json(), sequential.to_json()) << "jobs=" << jobs;
  }
}

// ------------------------------------------------------------------ sampler

TEST(StateSampler, EmitsOncePerGridSlot) {
  StateSampler sampler(250);
  for (const Microseconds t : {0, 10, 249, 250, 600, 601, 740, 1250}) {
    sampler.tick(t);
  }
  ASSERT_EQ(sampler.samples().size(), 4u);
  EXPECT_EQ(sampler.samples()[0].ts, 0);
  EXPECT_EQ(sampler.samples()[1].ts, 250);
  EXPECT_EQ(sampler.samples()[2].ts, 500);
  EXPECT_EQ(sampler.samples()[3].ts, 1250);
}

TEST(StateSampler, CadencePropertyUnderIrregularTicks) {
  // Property: for any nondecreasing tick sequence, sample timestamps are
  // multiples of the period, strictly increasing, and never more numerous
  // than the distinct grid slots touched.
  Rng rng(42);
  StateSampler sampler(1'000);
  Microseconds now = 0;
  std::size_t distinct_slots = 0;
  Microseconds last_slot = -1;
  for (int i = 0; i < 5'000; ++i) {
    now += static_cast<Microseconds>(rng.next_below(700));
    const Microseconds slot = now - now % 1'000;
    if (slot > last_slot) {
      ++distinct_slots;
      last_slot = slot;
    }
    sampler.tick(now);
  }
  EXPECT_EQ(sampler.samples().size(), distinct_slots);
  Microseconds prev = -1;
  for (const StateSample& s : sampler.samples()) {
    EXPECT_EQ(s.ts % 1'000, 0);
    EXPECT_GT(s.ts, prev);
    prev = s.ts;
  }
}

TEST(StateSampler, CollectorPopulatesSamples) {
  StateSampler sampler(100);
  sampler.set_collector([](StateSample& s) {
    s.q = 7;
    s.sbqueue = 3;
    s.chip_queue = {1, 2};
  });
  sampler.set_utilization(0.5);
  sampler.tick(100);
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_EQ(sampler.samples()[0].q, 7);
  EXPECT_EQ(sampler.samples()[0].sbqueue, 3u);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].u, 0.5);
  const std::string csv = sampler.to_csv();
  EXPECT_NE(csv.find("ts_us,u,q,sbqueue,free_frac,write_q,chip0,chip1"),
            std::string::npos);
  EXPECT_NE(csv.find("100,0.500000,7,3,"), std::string::npos);
}

// -------------------------------------------------------------------- trace

faultsim::FaultSimConfig traced_config() {
  faultsim::FaultSimConfig config;
  config.kind = sim::FtlKind::kFlex;
  config.seed = 3;
  config.requests = 200;
  return config;
}

TEST(TraceSink, SameSeedSerializesByteIdentically) {
  TraceSink a, b;
  (void)faultsim::run_trial(traced_config(), &a);
  (void)faultsim::run_trial(traced_config(), &b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.to_chrome_json(), b.to_chrome_json());
}

TEST(TraceSink, SweepTraceIsDeterministicAndScopedPerCrashPoint) {
  faultsim::SweepOptions options;
  options.crash_points = 3;
  options.verify_replay = false;
  options.minimize = false;
  TraceSink a, b;
  options.jobs = 1;
  (void)faultsim::sweep(traced_config(), options, &a);
  options.jobs = 4;  // tracing forces jobs=1; output must not change
  (void)faultsim::sweep(traced_config(), options, &b);
  EXPECT_EQ(a.to_chrome_json(), b.to_chrome_json());
  // Golden run under pid 0 plus one pid per crash point.
  bool saw_golden = false, saw_point = false;
  for (const TraceEvent& e : a.events()) {
    if (e.pid == 0) saw_golden = true;
    if (e.pid >= 1) saw_point = true;
  }
  EXPECT_TRUE(saw_golden);
  EXPECT_TRUE(saw_point);
  EXPECT_EQ(a.count(EventKind::kPowerLossCut), options.crash_points);
}

TEST(TraceSink, TracedRunCoversTheEventTaxonomy) {
  TraceSink sink;
  (void)faultsim::run_trial(traced_config(), &sink);
  EXPECT_GT(sink.count(EventKind::kNandWrite), 0u);
  EXPECT_GT(sink.count(EventKind::kBlockFastToSlow), 0u);
  EXPECT_GT(sink.count(EventKind::kParityFlush), 0u);
  const std::string json = sink.to_chrome_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  // Lane metadata: one process_name per pid, one thread_name per lane.
  // (The faultsim harness drives the FTL directly — host-lane events only
  // exist in Simulator-driven traces, so only chip lanes appear here.)
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"chip 0\""), std::string::npos);
}

// ------------------------------------------------------------- disabled A/B

TEST(Observability, TracingDoesNotPerturbTheTrial) {
  TraceSink sink;
  StateSampler sampler(1'000);
  const faultsim::TrialResult plain = faultsim::run_trial(traced_config());
  const faultsim::TrialResult traced =
      faultsim::run_trial(traced_config(), &sink);
  EXPECT_EQ(plain.report, traced.report);
  EXPECT_EQ(plain.boundaries, traced.boundaries);
}

TEST(Observability, TracingDoesNotPerturbTheExperiment) {
  sim::ExperimentSpec spec;
  spec.ftl_config = ftl::FtlConfig::tiny();
  spec.requests = 2'000;
  const sim::SimResult plain =
      run_experiment(sim::FtlKind::kFlex, workload::Preset::kVarmail, spec);

  TraceSink sink;
  StateSampler sampler(1'000);
  const sim::SimResult traced = run_experiment(
      sim::FtlKind::kFlex, workload::Preset::kVarmail, spec, &sink, &sampler);

  EXPECT_FALSE(sink.empty());
  EXPECT_FALSE(sampler.samples().empty());
  EXPECT_EQ(plain.requests, traced.requests);
  EXPECT_EQ(plain.pages_written, traced.pages_written);
  EXPECT_EQ(plain.pages_read, traced.pages_read);
  EXPECT_EQ(plain.makespan_us, traced.makespan_us);
  EXPECT_EQ(plain.erases, traced.erases);
  EXPECT_EQ(plain.latency_hist_us, traced.latency_hist_us);
  EXPECT_EQ(plain.write_bw_kbps, traced.write_bw_kbps);
}

}  // namespace
}  // namespace rps::obs
