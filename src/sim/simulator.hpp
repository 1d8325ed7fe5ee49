// Trace-driven storage-system simulator.
//
// Replays a request trace against an FTL with the semantics of the paper's
// testbed benchmarks (Sysbench/Filebench are closed-loop): a bounded window
// of outstanding requests (queue depth) gates issue, so service latency
// feeds back into achieved throughput. The gap structure of the trace is
// preserved — gaps longer than the idle threshold are handed to the FTL as
// idle windows, which is where background GC earns its keep.
//
// Measured outputs cover every series the paper reports: IOPS (Fig. 8a),
// block erasures (Fig. 8b), windowed write-bandwidth samples for CDF
// curves (Fig. 8c), plus latency percentiles and write amplification.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/controller/controller.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/metrics.hpp"
#include "src/workload/trace.hpp"

namespace rps::obs {
class TraceSink;
class StateSampler;
}  // namespace rps::obs

namespace rps::sim {

class Snapshot;

/// The measured run hands whole requests to the command controller, which
/// splits them into per-page ops and stripes the pages across idle chips
/// (src/controller/). Preconditioning and warm-up use the direct
/// synchronous FtlBase::write path (untimed, device idle).
struct SimConfig {
  /// Outstanding-request window (closed-loop issue gating).
  std::uint32_t queue_depth = 64;
  /// Gaps longer than this become FTL idle windows.
  Microseconds idle_threshold_us = 1000;
  /// Closed-loop think/idle semantics (Filebench-like): a trace gap longer
  /// than the idle threshold counts from the completion of all prior work,
  /// not from an absolute timestamp — so faster burst service shortens the
  /// run instead of just shrinking queueing delay.
  bool think_time_follows_completion = true;
  /// Window for write-bandwidth sampling (Fig. 8c).
  Microseconds bw_window_us = 50'000;
  /// Precondition: fraction of exported pages sequentially written before
  /// the measured run (steady-state GC behaviour needs a full device).
  double precondition_fraction = 1.0;
  /// Buffer utilization reported during preconditioning (0.5 = the
  /// alternate-LSB/MSB regime, filling blocks evenly).
  double precondition_utilization = 0.5;
  /// Cut device power when the replay clock reaches this time: requests
  /// arriving at or after it are never issued, queued controller work is
  /// cancelled, and in-flight programs are destroyed (see SimResult.crashed
  /// / Simulator::power_loss). kTimeNever = run to completion.
  Microseconds crash_time_us = kTimeNever;
};

struct SimResult {
  std::string ftl_name;
  std::string workload_name;

  std::uint64_t requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t read_errors = 0;

  Microseconds makespan_us = 0;   // first arrival .. last completion
  Microseconds busy_us = 0;       // union of [issue, completion] intervals
  std::uint64_t idle_windows = 0; // idle windows handed to the FTL
  Microseconds idle_time_us = 0;  // total duration of those windows

  /// Per-request latency (completion - arrival, microseconds) and windowed
  /// write bandwidth (integer KB/s per window, Fig. 8c) as log-bucketed
  /// mergeable histograms. Merging the histograms of per-shard results is
  /// order-invariant, so sweep aggregates are bit-identical for any --jobs.
  obs::LatencyHistogram latency_hist_us;
  obs::LatencyHistogram write_bw_kbps;

  std::uint64_t erases = 0;       // block erasures during the measured run
  nand::OpCounters ops;           // device op deltas during the measured run
  ftl::FtlStats ftl_stats;        // FTL counter deltas during the measured run

  /// Cause-tagged program/erase deltas for the measured run (same charge
  /// instants as `ops`, so the per-cause split sums exactly to it) and a
  /// wear-ledger digest of the device at run end. Both feed the
  /// --metrics=PATH report (obs::MetricsReport).
  nand::AttributionCounters attribution;
  obs::WearSummary wear;

  /// Set when SimConfig::crash_time_us cut the run short; `power_loss`
  /// holds what the cut destroyed (device victims, cancelled controller
  /// ops) for a recovery procedure to act on.
  bool crashed = false;
  ctrl::PowerLossOutcome power_loss;

  /// Requests per second over wall-clock makespan.
  [[nodiscard]] double iops_makespan() const {
    return makespan_us <= 0 ? 0.0
                            : static_cast<double>(requests) * 1e6 /
                                  static_cast<double>(makespan_us);
  }
  /// Requests per second over busy time — the closed-loop IOPS the paper's
  /// benchmarks report (idle think time is not the storage system's).
  [[nodiscard]] double iops_busy() const {
    return busy_us <= 0 ? 0.0
                        : static_cast<double>(requests) * 1e6 /
                              static_cast<double>(busy_us);
  }
  /// NAND programs per host page write during the run.
  [[nodiscard]] double waf() const {
    return pages_written == 0 ? 0.0
                              : static_cast<double>(ops.programs()) /
                                    static_cast<double>(pages_written);
  }
};

class Simulator {
 public:
  Simulator(ftl::FtlBase& ftl, const SimConfig& config);

  /// Sequentially fill the logical space to steady state. Not measured.
  void precondition();

  /// Snapshot the FTL's complete state right now (typically after
  /// precondition() / warm_up()) so sibling runs can fork from it.
  [[nodiscard]] Snapshot checkpoint() const;

  /// Restore a checkpoint instead of re-running precondition(): the FTL
  /// must be a fresh instance of the snapshot's configuration. Returns
  /// false (snapshot/config mismatch) without marking the simulator
  /// preconditioned. A restored run is bit-identical to one that did the
  /// preconditioning work in-process.
  [[nodiscard]] bool warm_start(const Snapshot& snapshot);

  /// Replay the writes of `trace` (untimed, unmeasured) to push garbage
  /// collection into the steady state of that trace's locality. Run after
  /// precondition() with a sibling of the workload to be measured.
  void warm_up(const workload::Trace& trace);

  /// Replay `trace` and measure. May be called after precondition(); the
  /// trace's arrival times are shifted to start after any prior activity.
  /// With SimConfig::crash_time_us set, the replay stops at the cut and
  /// the result carries the power-loss outcome (crash-and-reboot
  /// orchestration: crash here, then hand the victims to
  /// sim::crash_reboot and keep using the same FTL).
  SimResult run(const workload::Trace& trace);

  /// Cut device power at `t` directly (outside a run): cancels queued
  /// controller work and destroys in-flight programs.
  ctrl::PowerLossOutcome power_loss(Microseconds t) { return controller_.power_loss(t); }

  /// The command-scheduling engine (crash harness and scheduling tests
  /// drive it directly).
  [[nodiscard]] ctrl::Controller& controller() { return controller_; }

  /// Attach / detach (nullptr) a trace sink: host-request and power-loss
  /// events from the replay loop, NAND op events from the controller, GC
  /// and parity events from the FTL. Borrowed pointer; detach before the
  /// sink dies. Null by default — the disabled cost is a pointer test.
  void set_trace_sink(obs::TraceSink* sink);

  /// Attach / detach (nullptr) a periodic state sampler. The replay loop
  /// feeds it buffer utilization and ticks it per request; the controller
  /// ticks it at every event-queue instant between them.
  void set_state_sampler(obs::StateSampler* sampler);

  /// Observe run()'s steady-state window: called with `true` right before
  /// the replay loop starts (after per-run setup — result strings, counter
  /// capture, container reserves) and with `false` right after it ends
  /// (before harvest). The allocation audit arms/disarms here: on a
  /// simulator whose scratch is warm from a previous run of the same
  /// trace, everything between the two calls is allocation-free.
  void set_steady_state_hook(std::function<void(bool)> hook) {
    steady_hook_ = std::move(hook);
  }

 private:
  ftl::FtlBase& ftl_;
  SimConfig config_;
  ctrl::Controller controller_;
  bool preconditioned_ = false;
  obs::TraceSink* trace_ = nullptr;      // borrowed; null = tracing off
  obs::StateSampler* sampler_ = nullptr; // borrowed; null = sampling off
  std::function<void(bool)> steady_hook_;  // steady-state window observer

  // Replay-loop scratch, hoisted out of run() so capacity persists across
  // calls: a warmed simulator replaying a trace it has seen before (the
  // --alloc-audit regime) grows nothing here. Cleared, never shrunk, at
  // the top of each run().
  struct BatchMember {
    Microseconds ack = 0;
    std::uint32_t pages = 0;
  };
  std::priority_queue<Microseconds, std::vector<Microseconds>, std::greater<>>
      outstanding_;
  std::priority_queue<std::pair<Microseconds, std::uint32_t>,
                      std::vector<std::pair<Microseconds, std::uint32_t>>,
                      std::greater<>>
      in_flush_;  // (device completion, pages)
  std::vector<std::uint64_t> bw_bytes_;
  std::vector<bool> bw_touched_;
  std::vector<BatchMember> batch_;
  std::vector<ctrl::CommandResult> batch_results_;
};

}  // namespace rps::sim
