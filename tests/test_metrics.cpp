// Attributed wear & WAF accounting (src/obs/metrics.hpp, ISSUE 10).
//
// The load-bearing claims under test:
//   - Conservation is EXACT: the cause-tagged attribution sums equal the
//     device's OpCounters field for field (lsb/msb programs, erases), and
//     meta + stream programs partition all programs — for every MLC FTL x
//     planes 1/2/4, for flexFTL on TLC (through the synchronous path and a
//     sim::Simulator run), and still after a power-loss crash
//     (pending-erase voiding must roll the attribution and ledger back).
//   - The per-block wear ledger is the same events viewed per block: its
//     column sums equal the device counters at every instant, and
//     summarize_wear's digest is consistent with the raw ledger.
//   - The MetricsReport built from a run matrix is byte-identical for any
//     --jobs value (the report serializes jobs-invariant SimResults).
//   - The ledger and attribution counters survive a Snapshot round-trip
//     bit-exactly, and survive crash_reboot without breaking conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/nand/attribution.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/random.hpp"
#include "src/workload/generator.hpp"

namespace rps::obs {
namespace {

constexpr sim::FtlKind kKinds[] = {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                   sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                   sim::FtlKind::kSlc};

ftl::FtlConfig planes_config(std::uint32_t planes) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.planes_per_chip = planes;
  return config;
}

/// Deterministic mixed fill: sequential cover, then enough random
/// overwrites to trigger GC, then idle windows so background GC / wear
/// leveling / scrubbing run too — every WriteCause path a tiny device can
/// exercise.
void fill(ftl::FtlBase& ftl, std::uint64_t seed) {
  const Lpn span = ftl.exported_pages() * 6 / 10;
  for (Lpn lpn = 0; lpn < span; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  Rng rng(seed);
  // Overwrite pressure scales with capacity so GC (and its erases) fire
  // even on the 4-plane variant of the tiny geometry.
  const std::uint64_t overwrites = std::max<std::uint64_t>(400, span * 3);
  for (std::uint64_t i = 0; i < overwrites; ++i) {
    const Lpn lpn = rng.next_below(span);
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
    if (i % 128 == 127) {
      const Microseconds t = ftl.device().all_idle_at();
      ftl.on_idle(t, t + 10'000'000);
    }
  }
}

/// The conservation invariants between a device's attribution, wear
/// ledger and its OpCounters — checked EXACTLY (these are the same
/// events charged at the same instants, not estimates).
template <typename DeviceT>
void expect_conserved(const DeviceT& device) {
  const nand::AttributionCounters& a = device.attribution();
  const nand::OpCounters total = device.total_counters();
  EXPECT_EQ(a.total_lsb_programs(), total.lsb_programs);
  EXPECT_EQ(a.total_msb_programs(), total.msb_programs);
  EXPECT_EQ(a.total_erases(), total.erases);
  EXPECT_EQ(a.meta_programs + a.total_stream_programs(), total.programs());

  const WearSummary wear = collect_wear(device);
  EXPECT_EQ(wear.total_programs, total.programs());
  EXPECT_EQ(wear.total_erases, total.erases);
}

// ------------------------------------------------------------ conservation

struct Case {
  sim::FtlKind kind;
  std::uint32_t planes;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(sim::to_string(info.param.kind)) + "_planes" +
         std::to_string(info.param.planes);
}

class AttributionConservation : public testing::TestWithParam<Case> {};

TEST_P(AttributionConservation, SumsMatchDeviceCountersExactly) {
  const Case param = GetParam();
  const ftl::FtlConfig config = planes_config(param.planes);
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(param.kind, config);
  fill(*ftl, /*seed=*/7);

  expect_conserved(ftl->device());
  const nand::AttributionCounters& a = ftl->device().attribution();
  // The fill is host-driven with GC pressure: both causes must show up.
  EXPECT_GT(a.programs(nand::WriteCause::kHost), 0u);
  EXPECT_GT(a.total_erases(), 0u);
}

TEST_P(AttributionConservation, HoldsAfterCrashAndReboot) {
  const Case param = GetParam();
  const ftl::FtlConfig config = planes_config(param.planes);
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(param.kind, config);
  fill(*ftl, /*seed=*/11);

  // Cut mid-flight: launch one more write and chop 1us before it lands.
  const Microseconds t = ftl->device().all_idle_at();
  const Result<ftl::HostOp> op = ftl->write(0, t, 0.5);
  ASSERT_TRUE(op.is_ok());
  const Microseconds cut = op.value().complete - 1;
  const std::vector<nand::PowerLossVictim> victims =
      ftl->device().inject_power_loss(cut);

  // Power loss voids lazily-pending erases; the attribution and ledger
  // must roll back with them — conservation holds at the cut...
  expect_conserved(ftl->device());

  // ...and after the reboot path (mapping rebuild / parity recovery).
  (void)sim::crash_reboot(param.kind, *ftl, victims, cut);
  expect_conserved(ftl->device());
  EXPECT_TRUE(ftl->check_consistency());
}

TEST_P(AttributionConservation, LedgerAndAttributionSurviveSnapshot) {
  const Case param = GetParam();
  const ftl::FtlConfig config = planes_config(param.planes);
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(param.kind, config);
  fill(*ftl, /*seed=*/13);

  const sim::Snapshot snapshot = sim::Snapshot::capture(*ftl);
  std::unique_ptr<ftl::FtlBase> restored = sim::make_ftl(param.kind, config);
  ASSERT_TRUE(snapshot.restore(*restored));

  EXPECT_EQ(restored->device().attribution(), ftl->device().attribution());
  const std::uint32_t chips = ftl->device().geometry().num_chips();
  for (std::uint32_t c = 0; c < chips; ++c) {
    EXPECT_EQ(restored->device().chip(c).wear_ledger(),
              ftl->device().chip(c).wear_ledger())
        << "chip " << c;
  }
  EXPECT_EQ(collect_wear(restored->device()), collect_wear(ftl->device()));
  expect_conserved(restored->device());
}

INSTANTIATE_TEST_SUITE_P(AllFtlsAllPlanes, AttributionConservation,
                         testing::ValuesIn([] {
                           std::vector<Case> cases;
                           for (const sim::FtlKind kind : kKinds) {
                             for (const std::uint32_t planes : {1u, 2u, 4u}) {
                               cases.push_back({kind, planes});
                             }
                           }
                           return cases;
                         }()),
                         case_name);

// --------------------------------------------------------------------- TLC

/// flexFTL on the TLC test device: a full fill and random overwrites
/// through the synchronous path, then a measured sim::Simulator run
/// (controller dispatch, striping, idle windows) over the same device.
void drive_tlc(core::FlexFtl& ftl, std::uint64_t seed) {
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, 0, 0.5).is_ok());
  }
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n), 0, rng.next_double()).is_ok());
  }
  sim::Simulator simulator(ftl, sim::SimConfig{});
  const sim::SimResult r = simulator.run(workload::generate(
      workload::preset_config(workload::Preset::kVarmail, n, 1500, seed)));
  EXPECT_GT(r.pages_written, 0u);
  EXPECT_EQ(r.read_errors, 0u);
}

TEST(AttributionConservationTlc, SteadyStateAndCrashRecovery) {
  core::FlexFtl ftl(ftl::FtlConfig::tlc_tiny());
  drive_tlc(ftl, /*seed=*/5);
  expect_conserved(ftl.device());
  const nand::AttributionCounters& a = ftl.device().attribution();
  EXPECT_GT(a.programs(nand::WriteCause::kHost), 0u);
  // The TLC parity lane always flushes under kParity.
  EXPECT_GT(a.programs(nand::WriteCause::kParity), 0u);

  // Crash mid-write, recover, re-check: erases the cut voids, recovery's
  // scrub erases and its parity rewrites (kMeta) must keep the books
  // balanced.
  const Microseconds t = ftl.device().all_idle_at();
  const Result<ftl::HostOp> op = ftl.write(0, t, 0.5);
  ASSERT_TRUE(op.is_ok());
  const auto victims = ftl.device().inject_power_loss(op.value().complete - 1);
  expect_conserved(ftl.device());
  (void)ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  expect_conserved(ftl.device());
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(AttributionConservationTlc, LedgerSurvivesSnapshot) {
  core::FlexFtl ftl(ftl::FtlConfig::tlc_tiny());
  drive_tlc(ftl, /*seed=*/9);

  const sim::Snapshot snapshot = sim::Snapshot::capture(ftl);
  core::FlexFtl restored(ftl::FtlConfig::tlc_tiny());
  ASSERT_TRUE(snapshot.restore(restored));

  EXPECT_EQ(restored.device().attribution(), ftl.device().attribution());
  const std::uint32_t chips = ftl.device().geometry().num_chips();
  for (std::uint32_t c = 0; c < chips; ++c) {
    EXPECT_EQ(restored.device().chip(c).wear_ledger(),
              ftl.device().chip(c).wear_ledger())
        << "chip " << c;
  }
  expect_conserved(restored.device());
}

// ------------------------------------------------------------ wear summary

TEST(WearSummary, DigestIsConsistentWithRawLedger) {
  std::unique_ptr<ftl::FtlBase> ftl =
      sim::make_ftl(sim::FtlKind::kFlex, planes_config(1));
  fill(*ftl, /*seed=*/21);

  const WearSummary wear = collect_wear(ftl->device());
  const std::uint32_t chips = ftl->device().geometry().num_chips();
  std::uint64_t blocks = 0, erases = 0, programs = 0;
  std::uint64_t min_e = ~0ull, max_e = 0;
  std::uint64_t hist_total = 0;
  for (std::uint32_t c = 0; c < chips; ++c) {
    for (const nand::BlockWear& b : ftl->device().chip(c).wear_ledger()) {
      ++blocks;
      erases += b.erases;
      programs += b.programs;
      min_e = std::min(min_e, b.erases);
      max_e = std::max(max_e, b.erases);
    }
  }
  EXPECT_EQ(wear.blocks, blocks);
  EXPECT_EQ(wear.total_erases, erases);
  EXPECT_EQ(wear.total_programs, programs);
  EXPECT_EQ(wear.min_erases, min_e);
  EXPECT_EQ(wear.max_erases, max_e);
  for (const std::uint64_t count : wear.pe_histogram) hist_total += count;
  EXPECT_EQ(hist_total, blocks);  // every block lands in exactly one bucket
  EXPECT_GE(wear.max_over_mean_erases, 1.0);
}

// ------------------------------------------------- report jobs-invariance

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

std::string matrix_report(const std::vector<workload::Preset>& presets,
                          const sim::ExperimentSpec& spec, std::uint32_t jobs) {
  const std::vector<std::vector<sim::SimResult>> matrix =
      sim::run_preset_matrix(presets, spec, jobs);
  MetricsReport report;
  for (std::size_t p = 0; p < presets.size(); ++p) {
    for (const sim::SimResult& result : matrix[p]) {
      report.begin(std::string(workload::to_string(presets[p])) + "/" +
                   result.ftl_name);
      sim::add_result_metrics(report, result);
      report.end();
    }
  }
  return report.str();
}

TEST(MetricsReport, ByteIdenticalAcrossJobs) {
  const sim::ExperimentSpec spec = tiny_spec();
  const std::vector<workload::Preset> presets = {workload::Preset::kNtrx,
                                                 workload::Preset::kVarmail};
  const std::string jobs1 = matrix_report(presets, spec, 1);
  const std::string jobs2 = matrix_report(presets, spec, 2);
  const std::string jobs8 = matrix_report(presets, spec, 8);
  EXPECT_EQ(jobs1, jobs2);
  EXPECT_EQ(jobs1, jobs8);
  // Sanity: the report is a real document, not an accidentally-empty one.
  EXPECT_NE(jobs1.find("\"metrics_version\":1"), std::string::npos);
  EXPECT_NE(jobs1.find("NTRX/pageFTL"), std::string::npos);
  EXPECT_NE(jobs1.find("\"waf\""), std::string::npos);
}

TEST(MetricsReport, WafDecomposesExactly) {
  // WAF accounting identity on a real run: total programs = sum over
  // causes, and waf_of sums to waf_total.
  const sim::ExperimentSpec spec = tiny_spec();
  const sim::SimResult result =
      sim::run_experiment(sim::FtlKind::kFlex, workload::Preset::kVarmail, spec);
  const nand::AttributionCounters& a = result.attribution;
  std::uint64_t by_cause = 0;
  double waf_sum = 0.0;
  for (std::size_t c = 0; c < nand::kNumWriteCauses; ++c) {
    const auto cause = static_cast<nand::WriteCause>(c);
    by_cause += a.programs(cause);
    waf_sum += waf_of(a, cause);
  }
  EXPECT_EQ(by_cause, a.total_programs());
  EXPECT_GT(a.programs(nand::WriteCause::kHost), 0u);
  EXPECT_NEAR(waf_sum, waf_total(a), 1e-9);
  EXPECT_GE(waf_total(a), 1.0);  // the host's own writes alone give WAF 1
}

}  // namespace
}  // namespace rps::obs
