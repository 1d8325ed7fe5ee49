#include "src/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "src/obs/registry.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/snapshot.hpp"
#include <vector>

namespace rps::sim {

Simulator::Simulator(ftl::FtlBase& ftl, const SimConfig& config)
    : ftl_(ftl), config_(config), controller_(ftl) {}

void Simulator::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  if (sink != nullptr) {
    sink->set_planes(ftl_.device().geometry().planes_per_chip);
  }
  ftl_.set_trace_sink(sink);
  controller_.set_observability(trace_, sampler_);
}

void Simulator::set_state_sampler(obs::StateSampler* sampler) {
  sampler_ = sampler;
  controller_.set_observability(trace_, sampler_);
}

void Simulator::precondition() {
  const Lpn fill_pages = static_cast<Lpn>(
      static_cast<double>(ftl_.exported_pages()) * config_.precondition_fraction);
  for (Lpn lpn = 0; lpn < fill_pages; ++lpn) {
    const Result<ftl::HostOp> op =
        ftl_.write(lpn, /*now=*/0, config_.precondition_utilization);
    assert(op.is_ok());
    (void)op;
  }
  preconditioned_ = true;
}

Snapshot Simulator::checkpoint() const { return Snapshot::capture(ftl_); }

bool Simulator::warm_start(const Snapshot& snapshot) {
  if (!snapshot.restore(ftl_)) return false;
  preconditioned_ = true;
  return true;
}

void Simulator::warm_up(const workload::Trace& trace) {
  const Lpn exported = ftl_.exported_pages();
  for (const workload::IoRequest& req : trace.requests()) {
    if (req.kind != workload::IoKind::kWrite) continue;
    for (std::uint32_t j = 0; j < req.page_count; ++j) {
      if (req.lpn + j >= exported) break;
      const Result<ftl::HostOp> op =
          ftl_.write(req.lpn + j, ftl_.device().all_idle_at(),
                     config_.precondition_utilization);
      assert(op.is_ok());
      (void)op;
    }
  }
  preconditioned_ = true;
}

SimResult Simulator::run(const workload::Trace& trace) {
  SimResult result;
  result.ftl_name = std::string(ftl_.name());
  result.workload_name = trace.name();
  if (trace.empty()) return result;
  assert(trace.is_sorted());

  // Start after any preconditioning activity has drained.
  const Microseconds base =
      ftl_.device().all_idle_at() + (preconditioned_ ? 10'000 : 0);
  const Microseconds first_arrival = trace.requests().front().arrival_us;

  // Baseline for delta counters (one capture covers every family).
  const obs::CounterSnapshot counters_before = obs::Registry::capture(ftl_);

  // Closed-loop window: at most queue_depth requests outstanding. A new
  // request issues when the earliest-finishing outstanding one completes.
  // (This and the containers below are member scratch — capacity persists
  // across runs so a warmed replay of a known trace allocates nothing.)
  auto& outstanding = outstanding_;
  while (!outstanding.empty()) outstanding.pop();

  // Write-buffer model. Writes are acknowledged when the RAM write buffer
  // accepts them — instantly while there is room, otherwise when enough
  // earlier flushes complete on the device. Device program latency is
  // invisible to a write's latency unless the buffer is full, exactly like
  // the paper's testbed (and any real storage stack).
  //
  // Two occupancy views: `in_flush` tracks pages handed to the FTL whose
  // programs have not finished (gates ACKs); the arrival-based counters
  // additionally include queued-but-unissued writes (that total is the
  // utilization u the policy manager sees).
  auto& in_flush = in_flush_;  // (device completion, pages)
  while (!in_flush.empty()) in_flush.pop();
  std::uint64_t flush_pending_pages = 0;
  std::uint64_t arrived_write_pages = 0;
  std::uint64_t completed_write_pages = 0;
  std::size_t arrival_scan = 0;  // lookahead over trace arrivals
  const std::uint64_t buffer_capacity = ftl_.config().write_buffer_pages;

  // Windowed write-bandwidth accumulation (bytes per completion window).
  // Flush completions never precede `base`, so windows index densely from
  // base's window: a flat vector (grown on demand — completions are
  // near-sorted, so growth is amortized push_back) replaces the former
  // std::map and its per-write tree walk. `bw_touched` preserves the
  // map's semantics exactly: only windows some write completed in emit a
  // sample, even a zero-byte one.
  const std::int64_t window_base = base / config_.bw_window_us;
  auto& bw_bytes = bw_bytes_;
  auto& bw_touched = bw_touched_;
  bw_bytes.clear();
  bw_touched.clear();
  const auto page_bytes =
      static_cast<std::uint64_t>(ftl_.config().geometry.page_size_bytes);

  // A write's pages leave the buffer at `flushed`: queue the buffer release
  // and credit the bandwidth window the flush completes in.
  const auto record_flush = [&](Microseconds flushed, std::uint32_t pages) {
    in_flush.emplace(flushed, pages);
    const auto window =
        static_cast<std::size_t>(flushed / config_.bw_window_us - window_base);
    if (window >= bw_bytes.size()) {
      bw_bytes.resize(window + 1, 0);
      bw_touched.resize(window + 1, false);
    }
    bw_bytes[window] += page_bytes * pages;
    bw_touched[window] = true;
  };

  Microseconds busy_start = 0;
  Microseconds busy_end = -1;  // current merged busy interval; empty
  Microseconds last_completion = base;

  // Batched admission (no observability attached): consecutive writes
  // acknowledged at the same tick submit to the controller without
  // draining between them — one drain retires the whole batch, and the
  // FIFO write queue preserves the serial dispatch order exactly (each
  // member sees the chip-busy state its predecessors created at the
  // tick, just as per-request drains would produce). Only the controller
  // work and the pieces derived from it (in_flush entries, bandwidth
  // windows — both need last_complete) are deferred; the closed-loop
  // models advance inline because a batched write's completion IS its ack
  // tick. The batch must flush before anything that could observe a
  // member's flush time: a read, a different admission tick, an idle
  // window, a buffer-full ack wait, the crash cut, or the end of the trace
  // (members' flush times always exceed the batch tick, so same-tick
  // admissions can never pop them).
  const bool batch_admission = trace_ == nullptr && sampler_ == nullptr;
  auto& batch = batch_;
  auto& batch_results = batch_results_;
  batch.clear();
  Microseconds batch_tick = 0;
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    controller_.drain();
    controller_.take_all_results_into(batch_results);
    assert(batch_results.size() == batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ctrl::CommandResult& cr = batch_results[i];
      assert(cr.ok);
      record_flush(std::max(batch[i].ack, cr.last_complete), batch[i].pages);
    }
    batch.clear();
  };

  // Front-load the result's per-request growth, then open the steady-state
  // window: from here to the end of the replay loop, a simulator whose
  // scratch is warm from a prior run of this trace allocates nothing
  // (bench_simcore --alloc-audit arms the interposer in this hook).
  result.latency_hist_us.reserve_max();
  // Closed loop: at most queue_depth commands are ever outstanding, so a
  // batch can never exceed it, and the controller's in-flight structures
  // are pre-sized from the same bound — hard caps, immune to the
  // run-to-run concurrency drift that warm-up alone can't pin down.
  batch.reserve(config_.queue_depth);
  batch_results.reserve(config_.queue_depth);
  std::uint32_t max_pages = 1;
  for (const workload::IoRequest& req : trace.requests()) {
    max_pages = std::max(max_pages, req.page_count);
  }
  controller_.reserve_inflight(config_.queue_depth, max_pages);
  if (steady_hook_) steady_hook_(true);

  Microseconds prev_arrival = base;       // adjusted arrival of previous request
  Microseconds prev_raw = first_arrival;  // raw trace arrival of previous request
  for (const workload::IoRequest& req : trace.requests()) {
    const Microseconds raw_gap = req.arrival_us - prev_raw;
    prev_raw = req.arrival_us;
    Microseconds arrival;
    if (config_.think_time_follows_completion &&
        raw_gap > config_.idle_threshold_us) {
      // Think/idle periods start once all prior work has completed.
      arrival = std::max(prev_arrival, last_completion) + raw_gap;
    } else {
      arrival = prev_arrival + raw_gap;
    }
    prev_arrival = arrival;

    // Crash orchestration: requests arriving at or after the cut never
    // reach the device. Work already accepted keeps its recorded
    // completions; whether its data survived is decided by the injection
    // below and checked by the recovery layer.
    if (arrival >= config_.crash_time_us) {
      result.crashed = true;
      break;
    }

    // Idle window detection: the host is idle when every past request has
    // completed and the next arrival is still ahead. (Issue-stream gaps are
    // NOT idleness — a saturated device paces issues in latency-sized
    // steps.) Device-side flush backlog is handled by on_idle's per-chip
    // deadline checks.
    if (arrival > last_completion + config_.idle_threshold_us) {
      flush_batch();  // the FTL must be settled before its idle window
      ++result.idle_windows;
      result.idle_time_us += arrival - last_completion;
      if (trace_ != nullptr) {
        trace_->record(obs::EventKind::kIdleWindow, 0, last_completion,
                       arrival - last_completion,
                       static_cast<std::uint64_t>(arrival - last_completion));
      }
      ftl_.on_idle(last_completion, arrival);
    }

    Microseconds issue = arrival;
    while (!outstanding.empty() && outstanding.top() <= arrival) outstanding.pop();
    while (outstanding.size() >= config_.queue_depth) {
      issue = std::max(issue, outstanding.top());
      outstanding.pop();
    }

    // A later admission tick (or a read, whose completion the loop needs
    // immediately) ends the batch before the buffer model can observe it.
    if (!batch.empty() &&
        (issue != batch_tick || req.kind != workload::IoKind::kWrite)) {
      flush_batch();
    }

    // Advance the buffer model to the issue time: pages of every write that
    // has arrived by now occupy the buffer...
    const std::vector<workload::IoRequest>& all = trace.requests();
    while (arrival_scan < all.size() &&
           base + (all[arrival_scan].arrival_us - first_arrival) <= issue) {
      if (all[arrival_scan].kind == workload::IoKind::kWrite) {
        arrived_write_pages += all[arrival_scan].page_count;
      }
      ++arrival_scan;
    }
    // ...minus those whose flush already completed.
    while (!in_flush.empty() && in_flush.top().first <= issue) {
      completed_write_pages += in_flush.top().second;
      flush_pending_pages -= in_flush.top().second;
      in_flush.pop();
    }
    const double utilization = std::min(
        1.0, static_cast<double>(arrived_write_pages - completed_write_pages) /
                 static_cast<double>(buffer_capacity));
    if (sampler_ != nullptr) {
      // Feed u before any event this request triggers can sample it.
      sampler_->set_utilization(utilization);
      sampler_->tick(issue);
    }

    Microseconds completion = issue;
    if (req.kind == workload::IoKind::kWrite) {
      ++result.write_requests;
      // ACK when the buffer has room: wait for earlier flushes if needed.
      // A pending batch flushes first — its members' flush times belong
      // in the queue this wait consumes.
      if (!batch.empty() &&
          flush_pending_pages + req.page_count > buffer_capacity) {
        flush_batch();
      }
      Microseconds ack = issue;
      while (flush_pending_pages + req.page_count > buffer_capacity &&
             !in_flush.empty()) {
        ack = std::max(ack, in_flush.top().first);
        completed_write_pages += in_flush.top().second;
        flush_pending_pages -= in_flush.top().second;
        in_flush.pop();
      }
      // Whole request to the controller: its pages become a batch of page
      // ops striped across idle chips.
      ctrl::HostCommand cmd;
      cmd.kind = ctrl::CmdKind::kWrite;
      cmd.lpn = req.lpn;
      cmd.page_count = req.page_count;
      cmd.issue = ack;
      cmd.buffer_utilization = utilization;
      if (batch_admission && req.page_count > 0) {
        // A nonempty batch here means ack == batch_tick: the earlier flush
        // points cleared any tick change, and the ack wait above flushed
        // before raising ack.
        if (batch.empty()) batch_tick = ack;
        assert(ack == batch_tick);
        controller_.submit(cmd);
        batch.push_back(BatchMember{ack, req.page_count});
      } else {
        flush_batch();  // zero-page corner: keep strict serial order
        const ctrl::CommandResult cr = controller_.execute(cmd);
        assert(cr.ok);
        record_flush(std::max(ack, cr.last_complete), req.page_count);
      }
      result.pages_written += req.page_count;
      flush_pending_pages += req.page_count;
      completion = ack;
    } else {
      ++result.read_requests;
      ctrl::HostCommand cmd;
      cmd.kind = ctrl::CmdKind::kRead;
      cmd.lpn = req.lpn;
      cmd.page_count = req.page_count;
      cmd.issue = issue;
      const ctrl::CommandResult cr = controller_.execute(cmd);
      completion = std::max(completion, cr.last_complete);
      result.read_errors += cr.read_errors;
      result.pages_read += req.page_count;
    }
    ++result.requests;
    result.latency_hist_us.add(static_cast<std::uint64_t>(completion - arrival));
    if (trace_ != nullptr) {
      trace_->record(req.kind == workload::IoKind::kWrite
                         ? obs::EventKind::kHostWrite
                         : obs::EventKind::kHostRead,
                     0, arrival, completion - arrival, req.lpn, req.page_count,
                     static_cast<std::uint64_t>(issue - arrival));
    }
    if (sampler_ != nullptr) sampler_->tick(completion);

    // Busy-interval merging over [issue, completion].
    if (busy_end < busy_start || issue > busy_end) {
      if (busy_end >= busy_start) result.busy_us += busy_end - busy_start;
      busy_start = issue;
      busy_end = completion;
    } else {
      busy_end = std::max(busy_end, completion);
    }

    outstanding.push(completion);
    last_completion = std::max(last_completion, completion);
  }
  flush_batch();  // end of trace (or crash cut): retire the tail batch
  if (steady_hook_) steady_hook_(false);
  if (busy_end >= busy_start) result.busy_us += busy_end - busy_start;

  if (result.crashed) {
    result.power_loss = controller_.power_loss(config_.crash_time_us);
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kPowerLossCut, 0, config_.crash_time_us, -1,
                     result.power_loss.victims.size());
    }
    last_completion = std::max(base, std::min(last_completion, config_.crash_time_us));
  }

  result.makespan_us = last_completion - base;

  const obs::CounterSnapshot counters_delta =
      obs::Registry::delta(counters_before, obs::Registry::capture(ftl_));
  result.erases = counters_delta.erases;
  result.ops = counters_delta.ops;
  result.ftl_stats = counters_delta.ftl;
  result.attribution = counters_delta.attribution;
  result.wear = obs::collect_wear(ftl_.device());

  // Windowed bandwidth samples (windows in which writes completed), in
  // integer KB/s (bytes per window over window length).
  for (std::size_t w = 0; w < bw_bytes.size(); ++w) {
    if (!bw_touched[w]) continue;
    result.write_bw_kbps.add(bw_bytes[w] * 1000 /
                             static_cast<std::uint64_t>(config_.bw_window_us));
  }
  return result;
}

}  // namespace rps::sim
