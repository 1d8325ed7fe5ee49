// Deterministic power-loss fault-injection harness.
//
// One trial = one seeded workload driven through the command controller
// against one FTL, optionally cut short by a power loss at an exact
// simulated microsecond, then rebooted (sim::crash_reboot) and audited by the
// shadow oracle. Everything — workload, placement, crash, recovery —
// is a pure function of the config, so a trial replays bit-identically
// from its one-line reproducer.
//
// Crash points are chosen at *op-completion boundaries*: a golden
// (no-crash) trial of the same config yields the sorted list of host-op
// completion times; crashing at boundaries[k] - 1 puts the k-th
// completion mid-flight, which is the interesting instant (the paper's
// Fig. 7b hazard is a cut during an MSB program destroying its paired
// LSB page).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/controller/arbiter.hpp"
#include "src/core/flex_ftl.hpp"
#include "src/faultsim/oracle.hpp"
#include "src/ftl/config.hpp"
#include "src/nand/attribution.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"

namespace rps::faultsim {

/// Everything a trial depends on. Two equal configs produce bit-equal
/// CrashReports — the sweep driver verifies this for every injection.
struct FaultSimConfig {
  sim::FtlKind kind = sim::FtlKind::kFlex;
  std::uint64_t seed = 1;
  std::uint64_t requests = 300;
  std::uint32_t max_pages_per_request = 4;
  double working_set_fraction = 0.5;
  double read_fraction = 0.2;
  Microseconds mean_gap_us = 200;
  /// kTimeNever = golden run (no crash), used to harvest boundaries.
  Microseconds crash_time_us = kTimeNever;
  /// > 1 routes the main phase through the multi-queue host frontend:
  /// one open-loop tenant per queue (even tenants Poisson, odd bursty),
  /// each on its own LPN partition and write stream, arbitrated by `arb`.
  /// A power loss then lands mid-arbitration, and the audit additionally
  /// verifies the per-tenant stream tags after recovery (see
  /// CrashReport::stream_tag_mismatches).
  std::uint32_t tenants = 1;
  ctrl::ArbPolicy arb = ctrl::ArbPolicy::kRoundRobin;
  ftl::FtlConfig ftl_config = small_config();

  /// The harness device: the tiny 2x2-chip geometry with 8 wordlines per
  /// block — big enough for striping and GC, small enough that a full
  /// sweep over dozens of crash points stays sub-second.
  static ftl::FtlConfig small_config();
};

/// Outcome of one crash trial (or golden run, with crash fields zeroed).
struct CrashReport {
  Microseconds crash_time_us = kTimeNever;
  bool crashed = false;
  std::uint64_t requests_issued = 0;
  std::uint64_t victims = 0;             // in-flight programs destroyed
  std::uint64_t cancelled_write_ops = 0;
  std::uint64_t cancelled_read_ops = 0;
  std::uint64_t aborted_commands = 0;
  bool recovery_supported = false;
  core::RecoveryReport recovery;
  OracleCheck oracle;
  /// Acknowledged losses beyond what recovery explicitly reported in
  /// pages_lost — losses the FTL never owned up to.
  std::uint64_t unaccounted_loss = 0;
  /// Multi-tenant runs: mapped LPNs whose stored stream tag names a
  /// *different* tenant than the LPN's partition owner. Tag 0 is never a
  /// mismatch (the default stream, and what recovery reconstruction
  /// leaves when the OOB hint is lost) — but a nonzero cross-tenant tag
  /// means the stream→block plumbing misrouted data, so it always counts
  /// toward `violations`.
  std::uint64_t stream_tag_mismatches = 0;
  /// The pass/fail verdict: for a recovery-supporting FTL (flexFTL),
  /// stale reads plus unaccounted losses; for FTLs without a recovery
  /// procedure, losses are by design and only stale-after-rescan data
  /// counts (rebuild_mapping must still pick the newest intact copy).
  std::uint64_t violations = 0;
  bool consistent = true;  // FtlBase::check_consistency after reboot

  friend bool operator==(const CrashReport&, const CrashReport&) = default;
};

struct TrialResult {
  CrashReport report;
  /// Sorted, deduplicated host-op completion times (golden runs; crash
  /// runs return the boundaries observed before the cut).
  std::vector<Microseconds> boundaries;
  /// The trial device's cause-tagged op attribution and wear-ledger
  /// digest at the end of the trial (post-recovery for crash trials).
  /// Totals over the whole trial including the fill phase — the trial
  /// builds its device fresh, so totals == the trial's own delta.
  nand::AttributionCounters attribution;
  obs::WearSummary wear;
};

/// Steady post-fill state a trial can fork from instead of re-running
/// the fill phase: the FTL/device snapshot plus the shadow oracle's
/// write history at the epoch mark. The fill phase is a pure function of
/// (kind, ftl_config, working_set_fraction) — never the seed, tenancy, or
/// crash point — so ONE WarmStart serves an entire sweep matrix, and a
/// forked trial is bit-identical to a cold one.
struct WarmStart {
  sim::Snapshot ftl;
  std::vector<std::uint8_t> oracle;

  [[nodiscard]] bool empty() const { return ftl.empty(); }
  /// FNV-1a over both exported sections, the oracle bytes chained onto
  /// the snapshot's digest() (the snapshot-smoke CI digest).
  [[nodiscard]] std::uint64_t digest() const;

  /// File round-trip (faultsim --snapshot / --from-snapshot).
  [[nodiscard]] bool save_file(const std::string& path) const;
  static std::optional<WarmStart> load_file(const std::string& path);
};

/// Run the fill phase of `config` once and capture the fork point.
WarmStart make_warm_start(const FaultSimConfig& config);

/// Run one trial end to end: fill phase, seeded main phase, optional
/// crash + reboot + oracle audit. With `sink` attached, the main phase
/// (and crash / recovery) is traced: NAND op events per chip from the
/// controller, GC and parity events from the FTL, plus the
/// power-loss cut and the recovery phase. The fill phase is not traced.
/// With `warm` non-null the fill phase is skipped and the trial forks
/// from the snapshot (which must match config's kind and geometry).
TrialResult run_trial(const FaultSimConfig& config, obs::TraceSink* sink = nullptr,
                      const WarmStart* warm = nullptr);

/// One-line reproducer: a `faultsim` command line that replays this exact
/// trial. Round-trips through parse_reproducer.
std::string reproducer(const FaultSimConfig& config);

/// Parse a reproducer line (or any faultsim flag list). Returns nullopt
/// on an unknown flag, a malformed value, or a config no trial can run
/// (invalid geometry, spares >= blocks per plane, --ws outside (0, 1]).
std::optional<FaultSimConfig> parse_reproducer(const std::string& line);

std::optional<sim::FtlKind> ftl_kind_from(const std::string& name);

}  // namespace rps::faultsim
