// Crash-consistency checks built on the src/faultsim/ harness.
//
// The sweep driver injects power losses at op-completion boundaries of a
// seeded workload, reboots, and audits acknowledged data against the
// shadow oracle. These tests pin the harness's guarantees:
//   - the differential matrix: every FTL survives a crash sweep with zero
//     verdict violations (flexFTL must restore or explicitly account for
//     every acknowledged page; FTLs without a recovery procedure must at
//     least rescan to the newest intact copy),
//   - every injected crash replays bit-identically from its one-line
//     reproducer,
//   - RecoveryReport.recovery_time_us is the device-idle delta (parallel
//     across chips), never the serial sum of the charged operations,
//   - flexFTL on 3-bit cells runs the same harness unchanged.
#include <gtest/gtest.h>

#include "src/core/flex_ftl.hpp"
#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"

namespace rps::faultsim {
namespace {

SweepOptions quick_sweep_options() {
  SweepOptions options;
  options.crash_points = 5;
  options.verify_replay = true;   // determinism is itself under test
  options.minimize = false;       // keep the matrix fast; faultsim_main minimizes
  return options;
}

std::string cell_name(const FaultSimConfig& config) {
  return std::string(sim::to_string(config.kind)) + "/seed" +
         std::to_string(config.seed);
}

// Satellite: the differential crash-consistency matrix. All five FTLs,
// fixed seeds. A failure prints the minimal reproducer lines the sweep
// collected.
TEST(FaultSim, DifferentialCrashMatrix) {
  std::uint64_t total_crashes = 0;
  std::uint64_t total_victims = 0;
  for (const sim::FtlKind kind :
       {sim::FtlKind::kPage, sim::FtlKind::kParity, sim::FtlKind::kRtf,
        sim::FtlKind::kFlex, sim::FtlKind::kSlc}) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      FaultSimConfig config;
      config.kind = kind;
      config.seed = seed;
      const SweepResult result = sweep(config, quick_sweep_options());
      EXPECT_EQ(result.replay_mismatches, 0u) << cell_name(config);
      EXPECT_TRUE(result.ok()) << cell_name(config) << ": " << [&] {
        std::string lines;
        for (const SweepFailure& f : result.failures) lines += f.line + "\n";
        return lines;
      }();
      total_crashes += result.crashes_injected;
      total_victims += result.total_victims;
    }
  }
  // The matrix only means something if the crashes actually bit: power
  // losses were injected and destroyed in-flight programs.
  EXPECT_GT(total_crashes, 0u);
  EXPECT_GT(total_victims, 0u);
}

// Tentpole acceptance: flexFTL loses no acknowledged page across a denser
// sweep — every loss the cut forces is either parity-recovered or
// explicitly reported in RecoveryReport.pages_lost, and the oracle holds
// the FTL to it.
TEST(FaultSim, FlexFtlNeverLosesAcknowledgedData) {
  FaultSimConfig config;
  config.kind = sim::FtlKind::kFlex;
  config.seed = 1;
  SweepOptions options;
  options.crash_points = 16;
  const SweepResult result = sweep(config, options);
  EXPECT_TRUE(result.ok()) << [&] {
    std::string lines;
    for (const SweepFailure& f : result.failures) lines += f.line + "\n";
    return lines;
  }();
  EXPECT_EQ(result.replay_mismatches, 0u);
  EXPECT_GT(result.crashes_injected, 0u);
  // The paper's hazard actually fired: pages were rebuilt from parity.
  EXPECT_GT(result.total_parity_recovered, 0u);
}

// Plane-aware crash consistency: with two planes per die, plane-grouped
// controller writes and coalesced multi-plane GC erases are in play, and
// a bad-block pool with factory defects keeps the remap table non-trivial.
// A cut can now land inside an aligned multi-plane cell window (one victim
// per member plane); recovery must still restore or account for every
// acknowledged page, over remapped blocks, with bit-identical replays.
TEST(FaultSim, MultiPlaneSweepStaysCrashConsistent) {
  for (const sim::FtlKind kind : {sim::FtlKind::kFlex, sim::FtlKind::kPage}) {
    FaultSimConfig config;
    config.kind = kind;
    config.seed = 9;
    config.ftl_config.geometry.planes_per_chip = 2;
    config.ftl_config.bad_blocks.spare_blocks_per_unit = 1;
    config.ftl_config.bad_blocks.factory_bad_ppm = 50'000;
    const SweepResult result = sweep(config, quick_sweep_options());
    EXPECT_EQ(result.replay_mismatches, 0u) << cell_name(config);
    EXPECT_TRUE(result.ok()) << cell_name(config) << ": " << [&] {
      std::string lines;
      for (const SweepFailure& f : result.failures) lines += f.line + "\n";
      return lines;
    }();
    EXPECT_GT(result.crashes_injected, 0u) << cell_name(config);
  }
}

// flexFTL on TLC through the controller, the sweep driver and the oracle,
// with no TLC-specific harness code: only the config's cell type and
// timings change. Replays are off because reproducer lines do not carry
// the cell type; determinism is checked across job counts instead.
TEST(FaultSim, TlcSweepRunsThroughTheSameHarness) {
  FaultSimConfig config;
  config.ftl_config.geometry.bits_per_cell = 3;
  config.ftl_config.timing = nand::TimingSpec::tlc();
  SweepOptions options;
  options.crash_points = 16;
  options.verify_replay = false;
  std::uint64_t victims = 0;
  std::uint64_t recovered = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    options.jobs = 1;
    const SweepResult one = sweep(config, options);
    options.jobs = 2;
    const SweepResult two = sweep(config, options);
    EXPECT_TRUE(one.ok()) << cell_name(config) << ": "
                          << (one.failures.empty() ? "" : one.failures[0].line);
    EXPECT_GT(one.crashes_injected, 0u) << cell_name(config);
    EXPECT_EQ(one.golden_boundaries, two.golden_boundaries) << cell_name(config);
    EXPECT_EQ(one.crashes_injected, two.crashes_injected) << cell_name(config);
    EXPECT_EQ(one.total_victims, two.total_victims) << cell_name(config);
    EXPECT_EQ(one.total_pages_lost, two.total_pages_lost) << cell_name(config);
    EXPECT_EQ(one.total_parity_recovered, two.total_parity_recovered) << cell_name(config);
    EXPECT_EQ(one.failures.size(), two.failures.size()) << cell_name(config);
    victims += one.total_victims;
    recovered += one.total_parity_recovered;
  }
  EXPECT_GT(victims, 0u);
  EXPECT_GT(recovered, 0u);
}

// Satellite: the new topology/failure flags round-trip through the
// reproducer line and replay to the same report.
TEST(FaultSim, PlaneAndBadBlockFlagsRoundTrip) {
  FaultSimConfig golden;
  golden.kind = sim::FtlKind::kFlex;
  golden.seed = 4;
  golden.ftl_config.geometry.planes_per_chip = 2;
  golden.ftl_config.bad_blocks.spare_blocks_per_unit = 2;
  golden.ftl_config.bad_blocks.factory_bad_ppm = 20'000;
  golden.ftl_config.bad_blocks.erase_endurance = 5'000;
  const TrialResult base = run_trial(golden);
  ASSERT_GT(base.boundaries.size(), 10u);

  FaultSimConfig crashed = golden;
  crashed.crash_time_us = base.boundaries[base.boundaries.size() / 3] - 1;
  const std::string line = reproducer(crashed);
  EXPECT_NE(line.find("--planes=2"), std::string::npos) << line;
  EXPECT_NE(line.find("--spares=2"), std::string::npos) << line;
  const std::optional<FaultSimConfig> parsed = parse_reproducer(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->ftl_config.geometry.planes_per_chip, 2u);
  EXPECT_EQ(parsed->ftl_config.bad_blocks.spare_blocks_per_unit, 2u);
  EXPECT_EQ(parsed->ftl_config.bad_blocks.factory_bad_ppm, 20'000u);
  EXPECT_EQ(parsed->ftl_config.bad_blocks.erase_endurance, 5'000u);
  const CrashReport first = run_trial(crashed).report;
  const CrashReport replay = run_trial(*parsed).report;
  EXPECT_TRUE(first.crashed);
  EXPECT_EQ(first, replay) << line;
}

// Satellite: reproducer lines round-trip and replay deterministically.
TEST(FaultSim, ReproducerRoundTripsAndReplaysBitEqual) {
  FaultSimConfig golden;
  golden.kind = sim::FtlKind::kFlex;
  golden.seed = 5;
  const TrialResult base = run_trial(golden);
  ASSERT_GT(base.boundaries.size(), 10u);

  FaultSimConfig crashed = golden;
  crashed.crash_time_us = base.boundaries[base.boundaries.size() / 2] - 1;
  const std::string line = reproducer(crashed);
  const std::optional<FaultSimConfig> parsed = parse_reproducer(line);
  ASSERT_TRUE(parsed.has_value()) << line;

  const CrashReport first = run_trial(crashed).report;
  const CrashReport replay = run_trial(*parsed).report;
  EXPECT_TRUE(first.crashed);
  EXPECT_EQ(first, replay) << line;
}

// Satellite: the recovery-time property. Reads charged during recovery
// serialize per chip but run in parallel across chips, so the report must
// equal the device-idle delta — strictly less than the serial sum of the
// charged reads once at least two chips carry recovery work.
TEST(FaultSim, RecoveryTimeIsDeviceIdleDeltaNotSerialSum) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.channels = 2;
  config.geometry.chips_per_channel = 1;
  config.geometry.wordlines_per_block = 8;
  core::FlexFtl ftl(config);

  // Fill one fast block per chip with burst-pressure (LSB) writes so both
  // chips end up with a slow block for recovery to walk.
  const std::uint32_t wordlines = config.geometry.wordlines_per_block;
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < 2 * wordlines; ++lpn) {
    std::vector<std::uint8_t> payload(8, static_cast<std::uint8_t>(lpn));
    const auto op = ftl.write_data(lpn, payload, t, /*buffer_utilization=*/0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value().complete;
  }
  ASSERT_GE(ftl.sbqueue_depth(0), 1u);
  ASSERT_GE(ftl.sbqueue_depth(1), 1u);

  const Microseconds cut = ftl.device().all_idle_at();
  const auto victims = ftl.device().inject_power_loss(cut);
  const core::RecoveryReport report = ftl.recover_from_power_loss(victims, cut);

  // Exact identity: the report is the wall-clock the reboot takes.
  EXPECT_EQ(report.recovery_time_us, ftl.device().all_idle_at() - cut);

  const std::uint64_t reads = report.lsb_pages_read + report.parity_pages_read;
  ASSERT_GE(reads, 2u * wordlines);  // both chips' slow blocks were walked
  const Microseconds serial_sum =
      static_cast<Microseconds>(reads) * config.timing.read_us;
  EXPECT_GT(report.recovery_time_us, 0);
  EXPECT_LT(report.recovery_time_us, serial_sum);
}

// Satellite: a cut during the parity flush itself is detected — the
// proactive parity verification finds the corrupt page, the block
// proceeds unprotected, and the report says so.
TEST(FaultSim, CutDuringParityFlushIsCountedNotTrusted) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.channels = 1;
  config.geometry.chips_per_channel = 1;
  config.geometry.wordlines_per_block = 8;
  core::FlexFtl ftl(config);

  // The last LSB write of the fast block triggers the parity flush; the
  // flush program is the chip's final op, so a cut one microsecond before
  // the device drains lands inside it.
  const std::uint32_t wordlines = config.geometry.wordlines_per_block;
  Microseconds t = 0;
  for (Lpn lpn = 0; lpn < wordlines; ++lpn) {
    std::vector<std::uint8_t> payload(8, static_cast<std::uint8_t>(lpn + 1));
    const auto op = ftl.write_data(lpn, payload, t, /*buffer_utilization=*/0.95);
    ASSERT_TRUE(op.is_ok());
    t = op.value().complete;
  }
  ASSERT_EQ(ftl.sbqueue_depth(0), 1u);

  const Microseconds cut = ftl.device().all_idle_at() - 1;
  const auto victims = ftl.device().inject_power_loss(cut);
  ASSERT_EQ(victims.size(), 1u);  // the parity program was mid-flight

  const std::uint64_t skipped_before = ftl.skipped_parity_backups();
  const core::RecoveryReport report = ftl.recover_from_power_loss(victims, cut);
  EXPECT_EQ(report.parity_flush_interrupted, 1u);
  EXPECT_EQ(ftl.skipped_parity_backups(), skipped_before + 1);
  // Only the parity page died; every acknowledged host page survives.
  EXPECT_EQ(report.pages_lost, 0u);
  for (Lpn lpn = 0; lpn < wordlines; ++lpn) {
    EXPECT_TRUE(ftl.read_data(lpn, ftl.device().all_idle_at()).is_ok()) << lpn;
  }
  EXPECT_TRUE(ftl.check_consistency());
}

// Multi-tenant crash sweeps: the power loss lands mid-arbitration of the
// multi-queue frontend. Recovery must preserve (or explicitly drop to
// tag 0) the per-tenant stream→block mappings — a nonzero cross-tenant
// tag is a violation the stream audit counts — and every crash must
// still replay bit-identically from its reproducer line, which now
// round-trips --tenants / --arb.
TEST(FaultSim, MultiTenantSweepSurvivesAllPoliciesAndFtls) {
  for (const sim::FtlKind kind :
       {sim::FtlKind::kPage, sim::FtlKind::kFlex, sim::FtlKind::kParity}) {
    for (const ctrl::ArbPolicy arb : ctrl::kAllArbPolicies) {
      FaultSimConfig config;
      config.kind = kind;
      config.seed = 7;
      config.requests = 200;
      config.tenants = 4;
      config.arb = arb;
      const SweepResult result = sweep(config, quick_sweep_options());
      const std::string cell = std::string(sim::to_string(kind)) + "/" +
                               ctrl::to_string(arb);
      EXPECT_EQ(result.replay_mismatches, 0u) << cell;
      EXPECT_TRUE(result.ok()) << cell << ": " << [&] {
        std::string lines;
        for (const SweepFailure& f : result.failures) lines += f.line + "\n";
        return lines;
      }();
      EXPECT_GT(result.crashes_injected, 0u) << cell;
    }
  }
}

TEST(FaultSim, MultiTenantReproducerRoundTripsOnlyNonDefaultFlags) {
  FaultSimConfig config;
  config.tenants = 8;
  config.arb = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  config.crash_time_us = 123456;
  const std::string line = reproducer(config);
  EXPECT_NE(line.find("--tenants=8"), std::string::npos) << line;
  EXPECT_NE(line.find("--arb=wdrr"), std::string::npos) << line;

  const std::optional<FaultSimConfig> parsed = parse_reproducer(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tenants, 8u);
  EXPECT_EQ(parsed->arb, ctrl::ArbPolicy::kWeightedDeficitRoundRobin);
  EXPECT_EQ(parsed->crash_time_us, 123456);

  // Defaults stay invisible: a single-tenant config emits the exact
  // legacy line (byte-compatible with pre-multi-tenant reproducers).
  const std::string legacy_line = reproducer(FaultSimConfig{});
  EXPECT_EQ(legacy_line.find("--tenants"), std::string::npos) << legacy_line;
  EXPECT_EQ(legacy_line.find("--arb"), std::string::npos) << legacy_line;
  // And unknown policies are rejected, not defaulted.
  EXPECT_FALSE(parse_reproducer("faultsim --arb=bogus").has_value());
  EXPECT_FALSE(parse_reproducer("faultsim --tenants=0").has_value());
}

// Reproducer values a trial cannot run are rejected at the parser (the CLI
// exits 2) instead of aborting in a constructor or hanging on a huge
// working set. A line from before the engine flag was removed is
// rejected too, rather than silently ignored; the flag is spelled in two
// pieces so a search for it finds no live use.
TEST(FaultSim, ReproducerRejectsValuesATrialCannotRun) {
  using namespace std::string_literals;
  const FaultSimConfig defaults;
  for (const std::string& line :
       {"faultsim --planes=0"s, "faultsim --spares=16"s, "faultsim --spares=17"s,
        "faultsim --ws=-1"s, "faultsim --ws=0"s, "faultsim --ws=1.5"s,
        "faultsim --ws=nan"s, "faultsim --ws=inf"s,
        "faultsim --ftl=flexFTL --"s + "engine=controller --seed=1",
        // Numbers are exactly of their kind: no trailing junk, no sign.
        "faultsim --seed=3x"s, "faultsim --seed=-1"s, "faultsim --requests=-1"s,
        "faultsim --requests=12x"s, "faultsim --max-pages=+4"s, "faultsim --ws=0.5x"s,
        "faultsim --reads=-0.2"s, "faultsim --reads=2e-1"s, "faultsim --gap=-200"s,
        "faultsim --crash-us=1e6"s, "faultsim --crash-us=9223372036854775808"s,
        "faultsim --planes=2x"s, "faultsim --spares=-2"s, "faultsim --factory-ppm=1.5"s,
        "faultsim --endurance=5k"s, "faultsim --tenants=0"s, "faultsim --tenants= 8"s}) {
    EXPECT_FALSE(parse_reproducer(line).has_value()) << line;
  }
  // --spares=16 above is the edge: the default device has 16 blocks per plane.
  ASSERT_EQ(defaults.ftl_config.geometry.blocks_per_chip, 16u);
  EXPECT_TRUE(parse_reproducer("faultsim --spares=15 --ws=1").has_value());

  // The default line still round-trips.
  const std::string line = reproducer(defaults);
  const std::optional<FaultSimConfig> parsed = parse_reproducer(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(reproducer(*parsed), line);

  // Fractions print in a form the parser takes back exactly, including
  // ones an ostream writes in exponent notation or rounds.
  FaultSimConfig odd = defaults;
  odd.working_set_fraction = 0.00005;
  odd.read_fraction = 0.1 + 0.2;
  const std::string odd_line = reproducer(odd);
  EXPECT_NE(odd_line.find("--ws=0.00005 "), std::string::npos) << odd_line;
  const std::optional<FaultSimConfig> odd_parsed = parse_reproducer(odd_line);
  ASSERT_TRUE(odd_parsed.has_value()) << odd_line;
  EXPECT_EQ(odd_parsed->working_set_fraction, odd.working_set_fraction);
  EXPECT_EQ(odd_parsed->read_fraction, odd.read_fraction);
}

}  // namespace
}  // namespace rps::faultsim
