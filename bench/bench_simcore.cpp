// Simulation-core wall-clock harness: the repo's perf regression gate.
//
// Two measurements, written to BENCH_simcore.json:
//
//   1. Single-trial throughput: simulated page ops per wall-clock second
//      for every FTL (5 cells), measured over Simulator::run only
//      (preconditioning and warm-up excluded). Compared against the
//      pre-optimization baseline recorded in kBaselineKops below — the
//      acceptance bar is "no worse than baseline" for every cell. Each
//      cell also records the controller's dispatch work counts over its
//      first replay (ctrl::DispatchWork: instants drained, write picks,
//      blocked write picks, read heads examined) — deterministic, so a
//      dispatch change shows as a count, not only as noisy wall time.
//   2. Sweep scaling: wall time of a faultsim seed x density matrix at
//      --jobs 1 vs --jobs 8, plus an FNV-1a digest of every cell's
//      numeric results at both job counts — and a third, cold arm
//      (--jobs 1, fill re-run per trial) whose digest must equal the
//      warm arms'. bit_identical must hold on any host; the speedup is
//      only meaningful on multi-core hosts (host.cpus is recorded so CI
//      can judge).
//   3. Fork cost: per-FTL wall time of Simulator::precondition (the cold
//      fork path every trial used to pay) vs Snapshot restore (the warm
//      path), with checkpoint digests proving the restored state is
//      bit-identical. fork_speedup is the headline warm-start number.
//
// Usage: bench_simcore [--quick] [--jobs=N] [--out=PATH] [--alloc-audit]
//                      [--metrics=PATH]
//   --quick        smaller request counts / fewer seeds (CI smoke)
//   --jobs=N       parallel arm of the sweep scaling run (default 8)
//   --out          JSON path (default BENCH_simcore.json in the CWD)
//   --alloc-audit  skip the measurements; instead assert that a warmed
//                  replay performs ZERO heap allocations across its
//                  steady-state window, for every FTL kind (exit 1 on any
//                  allocation)
//   --metrics=PATH write an obs::MetricsReport with one "<ftl>" section
//                  per throughput cell (first-replay simulation
//                  results only — no wall-clock numbers, so the file is
//                  deterministic across hosts and --jobs values)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/alloc_audit.hpp"
#include "src/workload/generator.hpp"

using namespace rps;

namespace {

// Pre-PR single-threaded throughput (kops = thousand simulated page ops
// per wall second), captured on the 1-CPU reference container at the
// commit before the hot-path optimizations, full (non-quick) sizes.
// Regenerate by running the pre-optimization build of this harness.
struct BaselineEntry {
  sim::FtlKind kind;
  double kops;
};
constexpr BaselineEntry kBaselineKops[] = {
    {sim::FtlKind::kPage, 1200.8}, {sim::FtlKind::kParity, 995.6},
    {sim::FtlKind::kRtf, 675.1},   {sim::FtlKind::kFlex, 1012.5},
    {sim::FtlKind::kSlc, 1186.7},
};
// Pre-PR wall seconds of the full-size jobs=1 sweep arm on the reference
// container.
constexpr double kBaselineSweepSecs = 2.115;

/// Every FTL kind, the related-work SLC baseline included.
constexpr sim::FtlKind kKinds[] = {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                   sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                   sim::FtlKind::kSlc};

double baseline_kops(sim::FtlKind kind) {
  for (const BaselineEntry& e : kBaselineKops) {
    if (e.kind == kind) return e.kops;
  }
  return 0.0;
}

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A mid-size device: big enough that GC, striping and queueing all run
/// in their steady-state regimes, small enough that every cell finishes in
/// well under a second. 4 x 2 chips, 64 blocks x 64
/// wordlines (128 MLC pages) x 4 KB = 256 MB.
nand::Geometry simcore_geometry() {
  nand::Geometry g;
  g.channels = 4;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 64;
  g.wordlines_per_block = 64;
  g.page_size_bytes = 4096;
  return g;
}

struct CellResult {
  sim::FtlKind kind = sim::FtlKind::kPage;
  double kops = 0.0;       // measured simulated page ops / wall sec / 1e3
  double secs = 0.0;       // wall seconds of the measured run
  std::uint64_t ops = 0;   // pages read + written in the measured run
  sim::SimResult result;   // first replay's simulation results (deterministic)
  ctrl::DispatchWork work;  // first replay's dispatch work (deterministic)
};

CellResult measure_cell(sim::FtlKind kind, std::uint64_t requests, int reps) {
  sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  spec.ftl_config.geometry = simcore_geometry();
  spec.requests = requests;

  // One precondition + warm-up, then `reps` timed replays of the same
  // trace (best-of-reps damps scheduler noise). Replays after the first
  // start from the previous replay's device state — still steady state,
  // which is the regime the baseline comparison cares about.
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
  sim::Simulator simulator(*ftl, spec.sim);
  simulator.precondition();
  const Lpn working_set = static_cast<Lpn>(
      static_cast<double>(ftl->exported_pages()) * spec.working_set_fraction);
  const workload::Trace warmup = workload::generate(workload::preset_config(
      workload::Preset::kVarmail, working_set, spec.requests / 2,
      spec.seed ^ 0x77777777ull));
  simulator.warm_up(warmup);
  const workload::Trace trace = workload::generate(workload::preset_config(
      workload::Preset::kVarmail, working_set, spec.requests, spec.seed));

  CellResult cell;
  cell.kind = kind;
  for (int rep = 0; rep < reps; ++rep) {
    const ctrl::DispatchWork before = simulator.controller().dispatch_work();
    const double t0 = now_secs();
    const sim::SimResult result = simulator.run(trace);
    const double secs = now_secs() - t0;
    const std::uint64_t ops = result.pages_read + result.pages_written;
    const double kops = secs > 0 ? static_cast<double>(ops) / secs / 1e3 : 0.0;
    if (rep == 0 || kops > cell.kops) {
      cell.secs = secs;
      cell.ops = ops;
      cell.kops = kops;
    }
    // Keep the first replay's SimResult for --metrics: replay 0 starts
    // from the preconditioned + warmed state, so its counters depend only
    // on the spec — not on which rep happened to be fastest.
    if (rep == 0) {
      cell.result = result;
      const ctrl::DispatchWork& after = simulator.controller().dispatch_work();
      cell.work = {after.instants - before.instants, after.write_picks - before.write_picks,
                   after.write_picks_blocked - before.write_picks_blocked,
                   after.read_heads - before.read_heads};
    }
  }
  return cell;
}

/// Order-sensitive FNV-1a over every numeric field of every matrix cell
/// (and each failure's reproducer line): two runs digest equal iff their
/// reports are bit-identical in cell order.
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
    for (const faultsim::SweepFailure& f : cell.result.failures) {
      for (const char c : f.line) mix(static_cast<unsigned char>(c));
    }
  }
  return h;
}

struct SweepScaling {
  std::uint64_t seeds = 0;
  std::uint64_t density = 0;
  std::uint32_t jobs = 8;
  double cold_jobs1_secs = 0.0;  // fill re-run inside every trial
  double jobs1_secs = 0.0;       // warm: trials fork from one snapshot
  double jobsn_secs = 0.0;
  std::uint64_t digest_cold = 0;
  std::uint64_t digest_jobs1 = 0;
  std::uint64_t digest_jobsn = 0;
  bool bit_identical = false;  // cold == warm(jobs1) == warm(jobsN)
};

SweepScaling measure_sweep(std::uint64_t seeds, std::uint64_t density,
                           std::uint32_t jobs) {
  SweepScaling scaling;
  scaling.seeds = seeds;
  scaling.density = density;
  scaling.jobs = jobs;

  faultsim::FaultSimConfig base;  // flexFTL / controller, the default
  faultsim::MatrixOptions options;
  options.seeds = seeds;
  options.densities = {density};

  // Cold arm: the pre-snapshot behavior, fill phase re-run per trial.
  options.jobs = 1;
  options.sweep.warm_start = false;
  double t0 = now_secs();
  const std::vector<faultsim::MatrixCell> cold =
      faultsim::sweep_matrix(base, options);
  scaling.cold_jobs1_secs = now_secs() - t0;
  scaling.digest_cold = digest_matrix(cold);

  options.sweep.warm_start = true;
  t0 = now_secs();
  const std::vector<faultsim::MatrixCell> sequential =
      faultsim::sweep_matrix(base, options);
  scaling.jobs1_secs = now_secs() - t0;
  scaling.digest_jobs1 = digest_matrix(sequential);

  options.jobs = jobs;
  t0 = now_secs();
  const std::vector<faultsim::MatrixCell> parallel =
      faultsim::sweep_matrix(base, options);
  scaling.jobsn_secs = now_secs() - t0;
  scaling.digest_jobsn = digest_matrix(parallel);

  scaling.bit_identical = scaling.digest_jobs1 == scaling.digest_jobsn &&
                          scaling.digest_cold == scaling.digest_jobs1;
  return scaling;
}

/// The fixed per-trial fork cost warm-starting eliminates: wall time of
/// Simulator::precondition (what every Fig. 8 / runner trial used to pay)
/// vs restoring the same state from a Snapshot, per FTL kind on the
/// simcore geometry. Checkpoint digests of both paths must match — the
/// restored device is bit-identical to the preconditioned one.
struct ForkCost {
  double precondition_secs = 0.0;  // summed over all FTL kinds
  double restore_secs = 0.0;
  std::uint64_t snapshot_bytes = 0;  // summed
  bool digests_match = true;
};

ForkCost measure_fork_cost() {
  ForkCost cost;
  sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  spec.ftl_config.geometry = simcore_geometry();
  for (const sim::FtlKind kind : kKinds) {
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
    sim::Simulator simulator(*ftl, spec.sim);
    double t0 = now_secs();
    simulator.precondition();
    cost.precondition_secs += now_secs() - t0;
    const sim::Snapshot snapshot = simulator.checkpoint();
    cost.snapshot_bytes += snapshot.bytes().size();

    std::unique_ptr<ftl::FtlBase> fork = sim::make_ftl(kind, spec.ftl_config);
    sim::Simulator forked(*fork, spec.sim);
    t0 = now_secs();
    const bool restored = forked.warm_start(snapshot);
    cost.restore_secs += now_secs() - t0;
    cost.digests_match = cost.digests_match && restored &&
                         forked.checkpoint().digest() == snapshot.digest();
  }
  return cost;
}

void write_json(const std::string& path, bool quick, std::uint64_t requests,
                const std::vector<CellResult>& cells, const SweepScaling& sweep,
                const ForkCost& fork) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"simcore\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"host\": {\"cpus\": %u},\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"single_trial\": {\n");
  std::fprintf(out, "    \"requests\": %llu,\n",
               static_cast<unsigned long long>(requests));
  std::fprintf(out, "    \"workload\": \"Varmail\",\n");
  std::fprintf(out, "    \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    const double base = baseline_kops(c.kind);
    std::fprintf(out,
                 "      {\"ftl\": \"%s\", \"kops\": %.2f, "
                 "\"secs\": %.3f, \"ops\": %llu, \"baseline_kops\": %.2f, "
                 "\"vs_baseline\": %.3f, \"work\": {\"instants\": %llu, "
                 "\"write_picks\": %llu, \"write_picks_blocked\": %llu, "
                 "\"read_heads\": %llu}}%s\n",
                 sim::to_string(c.kind), c.kops, c.secs,
                 static_cast<unsigned long long>(c.ops), base,
                 base > 0 ? c.kops / base : 0.0,
                 static_cast<unsigned long long>(c.work.instants),
                 static_cast<unsigned long long>(c.work.write_picks),
                 static_cast<unsigned long long>(c.work.write_picks_blocked),
                 static_cast<unsigned long long>(c.work.read_heads),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sweep_scaling\": {\n");
  std::fprintf(out, "    \"seeds\": %llu,\n",
               static_cast<unsigned long long>(sweep.seeds));
  std::fprintf(out, "    \"density\": %llu,\n",
               static_cast<unsigned long long>(sweep.density));
  std::fprintf(out, "    \"jobs\": %u,\n", sweep.jobs);
  std::fprintf(out, "    \"cold_jobs1_secs\": %.3f,\n", sweep.cold_jobs1_secs);
  std::fprintf(out, "    \"jobs1_secs\": %.3f,\n", sweep.jobs1_secs);
  std::fprintf(out, "    \"jobsN_secs\": %.3f,\n", sweep.jobsn_secs);
  std::fprintf(out, "    \"speedup\": %.3f,\n",
               sweep.jobsn_secs > 0 ? sweep.jobs1_secs / sweep.jobsn_secs : 0.0);
  std::fprintf(out, "    \"baseline_jobs1_secs\": %.3f,\n", kBaselineSweepSecs);
  std::fprintf(out, "    \"digest_cold\": \"%016llx\",\n",
               static_cast<unsigned long long>(sweep.digest_cold));
  std::fprintf(out, "    \"digest_jobs1\": \"%016llx\",\n",
               static_cast<unsigned long long>(sweep.digest_jobs1));
  std::fprintf(out, "    \"digest_jobsN\": \"%016llx\",\n",
               static_cast<unsigned long long>(sweep.digest_jobsn));
  std::fprintf(out, "    \"bit_identical\": %s\n",
               sweep.bit_identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"warm_start\": {\n");
  std::fprintf(out, "    \"precondition_secs\": %.3f,\n", fork.precondition_secs);
  std::fprintf(out, "    \"restore_secs\": %.3f,\n", fork.restore_secs);
  std::fprintf(out, "    \"fork_speedup\": %.2f,\n",
               fork.restore_secs > 0 ? fork.precondition_secs / fork.restore_secs
                                     : 0.0);
  std::fprintf(out, "    \"snapshot_bytes\": %llu,\n",
               static_cast<unsigned long long>(fork.snapshot_bytes));
  std::fprintf(out, "    \"digests_match\": %s\n",
               fork.digests_match ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

/// --alloc-audit: the machine-checked form of the zero-allocation claim.
/// For every FTL kind: precondition + warm-up,
/// replay the measured trace once so every arena, pool and scratch vector
/// reaches its high-water mark, then replay it again with the
/// operator-new interposer armed across the steady-state window
/// (Simulator's steady-state hook). Any allocation fails the audit.
int run_alloc_audit(std::uint64_t requests) {
  if (!util::alloc_audit_linked()) {
    std::fprintf(stderr, "alloc audit: interposer not linked into this binary\n");
    return 1;
  }
  std::printf("alloc audit: Varmail, %llu requests, "
              "third (warmed) replay\n",
              static_cast<unsigned long long>(requests));
  bool ok = true;
  // Debug aid: RPS_ALLOC_AUDIT_FTL=<name> audits just that FTL (pairs
  // with RPS_ALLOC_AUDIT_BACKTRACE=N, which dumps offender stacks).
  const char* only = std::getenv("RPS_ALLOC_AUDIT_FTL");
  for (const sim::FtlKind kind : kKinds) {
    if (only != nullptr && std::string(only) != sim::to_string(kind)) continue;
    sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
    spec.ftl_config.geometry = simcore_geometry();
    spec.requests = requests;
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
    sim::Simulator simulator(*ftl, spec.sim);
    simulator.precondition();
    const Lpn working_set = static_cast<Lpn>(
        static_cast<double>(ftl->exported_pages()) * spec.working_set_fraction);
    const workload::Trace warmup = workload::generate(workload::preset_config(
        workload::Preset::kVarmail, working_set, spec.requests / 2,
        spec.seed ^ 0x77777777ull));
    simulator.warm_up(warmup);
    const workload::Trace trace = workload::generate(workload::preset_config(
        workload::Preset::kVarmail, working_set, spec.requests, spec.seed));

    // Two warm replays before the audited one: container capacities only
    // ever double, so a first replay leaves every arena, pool and scratch
    // vector at (at least) half its converged capacity and the second
    // replay's residual growth is what run three would have paid. After
    // two, the high-water marks have converged and the audit is strict.
    simulator.run(trace);
    simulator.run(trace);
    util::AllocAuditStats stats;
    simulator.set_steady_state_hook([&stats](bool enter) {
      if (enter) {
        util::alloc_audit_arm();
      } else {
        stats = util::alloc_audit_disarm();
      }
    });
    simulator.run(trace);  // audited
    simulator.set_steady_state_hook(nullptr);
    std::printf("  %-9s allocations=%llu bytes=%llu frees=%llu  %s\n",
                sim::to_string(kind),
                static_cast<unsigned long long>(stats.allocations),
                static_cast<unsigned long long>(stats.bytes),
                static_cast<unsigned long long>(stats.frees),
                stats.allocations == 0 ? "OK" : "FAIL");
    std::fflush(stdout);
    ok = ok && stats.allocations == 0;
  }
  std::printf("alloc audit: %s\n",
              ok ? "PASS (zero steady-state heap allocations)" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool alloc_audit = false;
  std::string out_path = "BENCH_simcore.json";
  std::string metrics_path;
  std::uint32_t jobs = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--alloc-audit") {
      alloc_audit = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const Result<std::uint64_t> parsed =
          sim::parse_count_value("--jobs", arg.substr(7), UINT32_MAX);
      if (!parsed.is_ok()) return 2;  // the parser printed the bad flag
      jobs = static_cast<std::uint32_t>(parsed.value());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::uint64_t requests = quick ? 10'000 : 100'000;
  const std::uint64_t seeds = quick ? 8 : 64;
  const int reps = quick ? 2 : 3;
  constexpr std::uint64_t kDensity = 16;

  if (alloc_audit) return run_alloc_audit(requests);

  std::printf("bench_simcore%s: single-trial throughput (Varmail, %llu requests)\n",
              quick ? " --quick" : "", static_cast<unsigned long long>(requests));
  std::vector<CellResult> cells;
  for (const sim::FtlKind kind : kKinds) {
    cells.push_back(measure_cell(kind, requests, reps));
    const CellResult& c = cells.back();
    const double base = baseline_kops(kind);
    std::printf("  %-9s %9.1f kops  (%.2fs, %llu ops)%s\n", sim::to_string(kind),
                c.kops, c.secs, static_cast<unsigned long long>(c.ops),
                base > 0 ? (c.kops >= base ? "  >= baseline" : "  BELOW baseline")
                         : "");
    std::fflush(stdout);
  }

  std::printf("sweep scaling: %llu seeds x density %llu, jobs 1 vs %u\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(kDensity), jobs);
  const SweepScaling sweep = measure_sweep(seeds, kDensity, jobs);
  std::printf("  cold jobs=1: %.2fs  warm jobs=1: %.2fs  jobs=%u: %.2fs  "
              "speedup %.2fx  bit_identical=%s\n",
              sweep.cold_jobs1_secs, sweep.jobs1_secs, jobs, sweep.jobsn_secs,
              sweep.jobsn_secs > 0 ? sweep.jobs1_secs / sweep.jobsn_secs : 0.0,
              sweep.bit_identical ? "yes" : "NO");

  std::printf("fork cost: precondition vs snapshot-restore, all FTLs on the "
              "simcore geometry\n");
  const ForkCost fork = measure_fork_cost();
  std::printf("  precondition %.3fs  restore %.3fs  fork_speedup %.1fx  "
              "snapshot %.1f MiB  digests_match=%s\n",
              fork.precondition_secs, fork.restore_secs,
              fork.restore_secs > 0 ? fork.precondition_secs / fork.restore_secs
                                    : 0.0,
              static_cast<double>(fork.snapshot_bytes) / (1024.0 * 1024.0),
              fork.digests_match ? "yes" : "NO");

  write_json(out_path, quick, requests, cells, sweep, fork);

  if (!metrics_path.empty()) {
    obs::MetricsReport report;
    for (const CellResult& cell : cells) {
      report.begin(sim::to_string(cell.kind));
      sim::add_result_metrics(report, cell.result);
      report.end();
    }
    if (!report.write_file(metrics_path)) {
      std::fprintf(stderr, "failed to write metrics report at: %s\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  return sweep.bit_identical && fork.digests_match ? 0 : 1;
}
