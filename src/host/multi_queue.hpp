// NVMe-flavored multi-queue host frontend.
//
// N submission/completion queue pairs, one per tenant, on top of one
// command controller. Each tenant's precomputed open-loop trace feeds its
// submission queue; at every event instant the arbiter (round-robin /
// WRR / WDRR, src/controller/arbiter.hpp) decides which queue's head to
// admit, subject to the tenant's in-flight cap. Admitted commands carry
// the tenant's write-stream hint, so the allocator segregates tenant
// data onto distinct active blocks.
//
// The whole replay is a single-threaded discrete-event loop over two
// event sources — tenant arrivals and command completions — so one run
// is deterministic, and --jobs parallelism lives entirely outside it
// (trace generation, independent bench cells). Completion latency is
// measured open-loop: completion time minus *arrival* time, so queueing
// delay under contention is included — that is the quantity QoS
// arbitration bounds.
//
// Idle windows mirror sim::Simulator: when nothing is in flight and the
// next arrival leaves a gap larger than idle_threshold_us, the FTL gets
// its on_idle() callback (background GC, wear leveling, read scrubbing).
// An open-loop frontend must preserve those semantics — the scrub
// regression test pins it.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/controller/arbiter.hpp"
#include "src/controller/controller.hpp"
#include "src/host/tenant.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/sampler.hpp"
#include "src/util/index_bitset.hpp"

namespace rps::host {

struct MultiQueueConfig {
  ctrl::ArbiterConfig arbiter;
  /// Gap (us) between last completion and next arrival that counts as an
  /// idle window (same meaning as sim::SimConfig::idle_threshold_us).
  Microseconds idle_threshold_us = 1'000;
  /// Shared controller admission budget in pages across ALL tenants
  /// (0 = unlimited). NVMe-style shared slot pool: a head is eligible
  /// only while its page cost fits the remaining budget, so under
  /// saturation the *arbiter* decides who gets the scarce pages — this
  /// is what lets a cost-aware policy (WDRR) bound a victim's tail
  /// against a large-write flood where cost-blind RR cannot. A command
  /// larger than the whole budget is admitted alone (when nothing else
  /// is in flight) rather than deadlocking.
  std::uint32_t shared_page_budget = 0;
  bool stripe_writes = true;
  /// Keep the controller's per-op log (faultsim's oracle join needs it).
  bool keep_op_log = false;
  /// Keep one AdmissionRecord per admitted command (property tests).
  bool keep_admission_log = false;
};

/// One admission, in admission order (the property tests check FIFO
/// order per tenant and weight-proportional admission over windows).
struct AdmissionRecord {
  std::uint32_t tenant = 0;
  std::uint64_t seq = 0;          // position within the tenant's queue
  Microseconds arrival_us = 0;    // open-loop arrival stamp
  Microseconds admit_us = 0;      // instant the arbiter admitted it
  ctrl::CommandId id = 0;
  std::uint32_t pages = 0;
  bool write = false;
};

/// Per-tenant completion-side accounting.
struct TenantResult {
  std::uint32_t id = 0;
  std::uint64_t submitted = 0;   // admitted to the controller
  std::uint64_t completed = 0;   // fully retired
  std::uint64_t aborted = 0;     // torn off by a power loss
  std::uint64_t failed = 0;      // completed but not ok (allocation failure)
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t pages = 0;
  std::uint64_t read_errors = 0;
  /// completion - arrival, all completed commands / writes only.
  obs::LatencyHistogram latency_us;
  obs::LatencyHistogram write_latency_us;
  Microseconds last_complete_us = 0;
};

struct MultiQueueResult {
  std::vector<TenantResult> tenants;
  Microseconds end_time_us = 0;  // last completion (or crash cut)
  std::uint64_t idle_windows = 0;
  bool crashed = false;

  /// FNV-1a over every tenant's counters and histogram JSON — one word
  /// that differs if any per-tenant distribution differs. CI asserts
  /// digest equality across --jobs values.
  [[nodiscard]] std::uint64_t digest() const;
};

class MultiQueueFrontend {
 public:
  explicit MultiQueueFrontend(ftl::FtlBase& ftl, MultiQueueConfig config = {});

  /// Register tenant `config.id` with its precomputed open-loop trace
  /// (tenant_trace / build_tenant_traces). Tenants must be added in id
  /// order 0..N-1, before run().
  void add_tenant(const TenantConfig& config, workload::Trace trace);

  /// Controller-level observability pass-through (trace sink + global
  /// sampler, both borrowed / nullable).
  void set_observability(obs::TraceSink* sink, obs::StateSampler* sampler);

  /// Replay every tenant queue to completion. With a finite
  /// `crash_time_us`, stop at the cut instead (nothing at or after it is
  /// admitted or drained); follow with power_loss() to tear down.
  MultiQueueResult run(Microseconds crash_time_us = kTimeNever);

  /// Inject the cut at `t`: controller power loss + per-tenant abort
  /// accounting folded into the result that run() returned (returns the
  /// updated copy).
  ctrl::PowerLossOutcome power_loss(Microseconds t, MultiQueueResult& result);

  [[nodiscard]] ctrl::Controller& controller() { return *controller_; }
  [[nodiscard]] const std::vector<AdmissionRecord>& admission_log() const {
    return admission_log_;
  }
  [[nodiscard]] std::uint32_t num_tenants() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

 private:
  struct Queue {
    TenantConfig config;
    workload::Trace trace;
    std::size_t next = 0;        // first request not yet admitted
    std::uint32_t in_flight = 0; // admitted, not yet completed
    TenantResult result;
  };
  struct Pending {
    std::uint32_t tenant = 0;
    Microseconds arrival = 0;
    std::uint32_t pages = 0;
    bool write = false;
  };
  /// (completion time, tenant, pages, write pages) — min-heap on time;
  /// the tiebreak on tenant keeps pops deterministic.
  struct Completion {
    Microseconds at;
    std::uint32_t tenant;
    std::uint32_t pages;
    std::uint32_t write_pages;
    bool operator>(const Completion& o) const {
      return at != o.at ? at > o.at : tenant > o.tenant;
    }
  };
  /// One tenant's next-unadmitted-head arrival — min-heap on time. `seq`
  /// pins the entry to the head it was pushed for: once the tenant
  /// advances past it (or the clock does), the entry is stale and pops
  /// lazily. This replaces an O(N) scan per event instant.
  struct Arrival {
    Microseconds at;
    std::uint32_t tenant;
    std::uint64_t seq;
    bool operator>(const Arrival& o) const {
      return at != o.at ? at > o.at : tenant > o.tenant;
    }
  };

  [[nodiscard]] Microseconds next_arrival();
  [[nodiscard]] double buffer_utilization() const;
  [[nodiscard]] bool budget_fits(std::uint32_t pages) const;
  /// Recompute tenant `i`'s admissibility (head arrived, under its cap,
  /// budget fits) and push the delta into the arbiter. O(1).
  void recompute_eligibility(std::uint32_t i);
  /// Shared-budget side effects of in-flight page-count changes: a grab
  /// can only evict currently-eligible queues, a release can only promote
  /// budget-blocked ones — each rescans just that set. No-ops with the
  /// budget disabled (eligibility is then tenant-local).
  void on_budget_grabbed();
  void on_budget_released();
  void process_instant(Microseconds t);
  void harvest(Microseconds t);

  ftl::FtlBase& ftl_;
  MultiQueueConfig config_;
  std::unique_ptr<ctrl::Controller> controller_;
  std::unique_ptr<ctrl::QueueArbiter> arbiter_;  // built lazily at run()
  std::vector<Queue> queues_;
  std::unordered_map<ctrl::CommandId, Pending> pending_;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions_;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals_;
  std::vector<AdmissionRecord> admission_log_;
  std::uint64_t in_flight_write_pages_ = 0;
  std::uint64_t in_flight_pages_ = 0;  // all commands; the shared budget
  Microseconds last_completion_ = 0;
  Microseconds cur_time_ = 0;  // the instant being processed
  bool started_ = false;       // true once the first instant was processed
  std::uint64_t idle_windows_ = 0;
  // Incremental-eligibility mirrors: tenants the arbiter currently sees
  // as admissible, and tenants held back only by the shared page budget.
  util::IndexBitSet admissible_;
  util::IndexBitSet budget_blocked_;
  std::vector<std::uint32_t> rescan_scratch_;
};

}  // namespace rps::host
