#include "src/controller/controller.hpp"

#include <algorithm>
#include <cassert>

#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"

namespace rps::ctrl {

namespace {
/// Initial slot-ring capacity; doubles as the live window outgrows it.
constexpr std::size_t kInitialSlots = 64;
}  // namespace

Controller::Controller(ftl::FtlBase& ftl, ControllerConfig config)
    : ftl_(ftl),
      config_(config),
      planes_(ftl.device().geometry().planes_per_chip),
      slot_state_(kInitialSlots, SlotState::kEmpty),
      slot_remaining_(kInitialSlots, 0),
      slot_result_(kInitialSlots),
      slot_cmd_(kInitialSlots),
      slot_done_(kInitialSlots, nullptr),
      slot_group_die_(kInitialSlots),
      slot_mask_(kInitialSlots - 1),
      read_queues_(ftl.device().geometry().num_units()),
      read_nonempty_(ftl.device().geometry().num_units()) {}

Controller::~Controller() {
  // Slots still live at teardown hold done slabs; hand them back so the
  // pool's destructor frees everything exactly once.
  for (CommandId id = base_id_; id < next_id_; ++id) {
    release_done(static_cast<std::size_t>(id) & slot_mask_);
  }
}

void Controller::grow_slots() {
  const std::size_t cap = slot_state_.size() * 2;
  const std::size_t mask = cap - 1;
  std::vector<SlotState> state(cap, SlotState::kEmpty);
  std::vector<std::uint32_t> remaining(cap, 0);
  std::vector<CommandResult> result(cap);
  std::vector<HostCommand> cmd(cap);
  std::vector<std::uint8_t*> done(cap, nullptr);
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> group_die(cap);
  for (CommandId id = base_id_; id < next_id_; ++id) {
    const std::size_t from = static_cast<std::size_t>(id) & slot_mask_;
    const std::size_t to = static_cast<std::size_t>(id) & mask;
    state[to] = slot_state_[from];
    remaining[to] = slot_remaining_[from];
    result[to] = slot_result_[from];
    cmd[to] = slot_cmd_[from];
    done[to] = slot_done_[from];
    group_die[to] = std::move(slot_group_die_[from]);
  }
  slot_state_ = std::move(state);
  slot_remaining_ = std::move(remaining);
  slot_result_ = std::move(result);
  slot_cmd_ = std::move(cmd);
  slot_done_ = std::move(done);
  slot_group_die_ = std::move(group_die);
  slot_mask_ = mask;
}

void Controller::reserve_inflight(std::size_t commands, std::size_t max_pages) {
  while (slot_state_.size() < commands) grow_slots();
  for (std::size_t cap = 1;; cap <<= 1) {
    // Worst case every outstanding command lands in one size class.
    done_pool_.prefill(cap, commands);
    if (cap >= max_pages) break;
  }
  const std::size_t max_ops = commands * max_pages;
  write_queue_.reserve(max_ops);
  for (RingBuffer<QueuedOp>& q : read_queues_) q.reserve(max_ops);
  newly_finished_.reserve(commands);
}

CommandId Controller::submit(const HostCommand& cmd) {
  if (static_cast<std::size_t>(next_id_ - base_id_) >= slot_state_.size()) grow_slots();
  const CommandId id = next_id_++;
  const std::size_t si = static_cast<std::size_t>(id) & slot_mask_;
  assert(slot_state_[si] == SlotState::kEmpty);
  assert(slot_done_[si] == nullptr);
  slot_state_[si] = SlotState::kPending;
  slot_cmd_[si] = cmd;
  slot_group_die_[si].clear();
  const std::uint32_t pages = cmd.page_count;
  slot_remaining_[si] = pages;
  CommandResult& result = slot_result_[si];
  result = CommandResult{};
  result.id = id;
  result.issue = cmd.issue;
  result.first_complete = kTimeNever;
  result.last_complete = cmd.issue;
  result.pages = pages;
  live_ops_ += pages;

  if (pages == 0) {
    // Degenerate zero-page command: finished on arrival (collected at the
    // next drain, like any other completion).
    result.first_complete = cmd.issue;
    newly_finished_.push_back(id);
    return id;
  }
  std::uint8_t* done = done_pool_.acquire(pages);
  std::fill_n(done, pages, std::uint8_t{0});
  slot_done_[si] = done;
  // Seed only dependency-free ops: on an ordered command op 0 alone (each
  // retirement enqueues its successor), otherwise every op. Enqueueing an
  // op can retire it on the spot (unmapped read), and that retirement
  // already enqueues the dependent it unblocks.
  if (cmd.ordered) {
    enqueue_ready(id, 0, cmd.issue);
  } else {
    for (std::uint32_t j = 0; j < pages; ++j) enqueue_ready(id, j, cmd.issue);
  }
  events_.schedule(cmd.issue);
  return id;
}

void Controller::enqueue_ready(CommandId id, std::uint32_t index, Microseconds ready) {
  const std::size_t si = slot_of(id);
  const HostCommand& cmd = slot_cmd_[si];
  if (cmd.kind == CmdKind::kWrite) {
    write_queue_.push_back(QueuedOp{ready, id, index});
    return;
  }
  // Reads are bound to the chip their mapping points at. Unmapped pages
  // are zero-fill — no device op, retire at readiness (ftl_.read keeps
  // the unmapped-read stats accounting).
  const Lpn lpn = op_lpn(cmd, index);
  const Result<nand::PageAddress> addr = ftl_.mapping().lookup(lpn);
  if (addr.is_ok()) {
    const std::uint32_t chip = addr.value().chip;
    read_queues_[chip].push_back(QueuedOp{ready, id, index});
    read_nonempty_.set(chip);
    return;
  }
  const Result<ftl::HostOp> op = ftl_.read(lpn, ready);
  if (!op.is_ok()) {
    // Out-of-range LPN: surfaces as a read error.
    ++slot_result_[si].read_errors;
    retire(id, index, ready, /*chip=*/0, ready, ready, /*ok=*/true);
    return;
  }
  retire(id, index, ready, /*chip=*/0, ready, op.value().complete, /*ok=*/true);
}

void Controller::dispatch_at(Microseconds t) {
  // Wake-up coalescing: every blocked head computes when it could next
  // dispatch, but only the *earliest* such time needs an event — the
  // fixpoint rescans every queue at the next visited instant, so the later
  // wake-ups are re-derived (from fresher chip timelines) when it fires.
  // Dispatch outcomes are identical either way; only the set of visited
  // instants shrinks. A sampler observes visited instants (one tick per
  // drained time), so with one attached every wake-up is scheduled
  // individually, exactly as before.
  const bool coalesce = sampler_ == nullptr;
  Microseconds next_wake = kTimeNever;
  const auto wake = [&](Microseconds w) {
    if (coalesce) {
      next_wake = std::min(next_wake, w);
    } else {
      events_.schedule(w);
    }
  };
  // A write head that found no idle chip stays blocked for the rest of
  // the instant: busy times only grow within it, and nothing but the
  // write loop pops the FIFO. Its wake-up is already in next_wake, so
  // with coalescing on a rescan could only re-derive a later one. Without
  // coalescing each retry schedules its own (possibly later) wake-up,
  // which the sampler observes, so it stays.
  bool write_blocked = false;
  bool progress = true;
  while (progress) {
    progress = false;
    // Write stream: FIFO heads bind to idle chips until none is idle (or
    // the head is not yet ready). Readiness lives in the queue entry —
    // the scan touches no slot state.
    while (!write_blocked && !write_queue_.empty()) {
      const QueuedOp qop = write_queue_.front();
      if (qop.ready > t) {
        wake(qop.ready);
        break;
      }
      Microseconds blocked_until = kTimeNever;
      if (!dispatch_write(qop, t, blocked_until)) {
        wake(blocked_until);  // no idle chip
        write_blocked = coalesce;
        break;
      }
      write_queue_.pop_front();
      progress = true;
    }
    // Per-chip read queues: each head dispatches once its chip is free.
    // Only nonempty queues are visited, in ascending chip order; next()
    // re-reads the live bitset, so a read a retirement enqueues on a
    // higher chip mid-pass is still served in this pass.
    for (std::uint32_t chip = read_nonempty_.next(0); chip != util::IndexBitSet::kNpos;
         chip = read_nonempty_.next(chip + 1)) {
      RingBuffer<QueuedOp>& queue = read_queues_[chip];
      while (true) {
        ++work_.read_heads;
        const QueuedOp qop = queue.front();
        if (qop.ready > t) {
          wake(qop.ready);
          break;
        }
        const Microseconds busy = ftl_.device().chip(chip).busy_until();
        if (busy > t) {
          wake(busy);
          break;
        }
        queue.pop_front();
        dispatch_read(qop, chip, t);
        progress = true;
        // The retirement may have enqueued a successor on this very chip.
        if (queue.empty()) {
          read_nonempty_.clear(chip);
          break;
        }
      }
    }
  }
  if (next_wake != kTimeNever) events_.schedule(next_wake);
}

bool Controller::dispatch_write(const QueuedOp& qop, Microseconds t,
                                Microseconds& blocked_until) {
  ++work_.write_picks;
  const std::size_t si = slot_of(qop.cmd);
  const HostCommand& cmd = slot_cmd_[si];
  std::uint32_t chip = 0;
  if (config_.stripe_writes) {
    // Plane affinity: a later member of a plane group prefers an idle
    // sibling plane of the die its group already landed on, so the
    // group's programs overlap in one aligned cell window. When no
    // sibling is idle the op spills to the global idle set (throughput
    // beats pairing). Inert with one plane per die.
    const std::uint32_t group = op_plane_group(cmd, qop.index);
    std::int64_t anchor_die = -1;
    if (group != kNoPlaneGroup) {
      for (const auto& [g, die] : slot_group_die_[si]) {
        if (g == group) {
          anchor_die = die;
          break;
        }
      }
    }
    const ftl::UnitPick pick = ftl_.pick_idle_unit(t, anchor_die);
    if (!pick.found) {
      ++work_.write_picks_blocked;
      blocked_until = pick.next_free;
      return false;
    }
    chip = pick.unit;
    if (group != kNoPlaneGroup && anchor_die < 0) {
      slot_group_die_[si].emplace_back(group, chip / planes_);
    }
  } else {
    chip = ftl_.pick_unconstrained_chip();
  }
  const Result<ftl::HostOp> op = ftl_.write_on(chip, op_lpn(cmd, qop.index), t,
                                               cmd.buffer_utilization, cmd.stream);
  if (!op.is_ok()) {
    // Destination exhausted (kNoFreeBlock) or out of range: the command
    // fails, but its bookkeeping still retires so drain() terminates.
    retire(qop.cmd, qop.index, qop.ready, chip, t, t, /*ok=*/false);
    return true;
  }
  retire(qop.cmd, qop.index, qop.ready, chip, t, op.value().complete, /*ok=*/true);
  return true;
}

void Controller::dispatch_read(const QueuedOp& qop, std::uint32_t chip, Microseconds t) {
  const std::size_t si = slot_of(qop.cmd);
  const Result<ftl::HostOp> op = ftl_.read(op_lpn(slot_cmd_[si], qop.index), t);
  if (!op.is_ok()) {
    // ECC-uncorrectable: data destroyed. The op retires (the command
    // completes, as the host sees an error response) at dispatch time.
    ++slot_result_[si].read_errors;
    retire(qop.cmd, qop.index, qop.ready, chip, t, t, /*ok=*/true);
    return;
  }
  retire(qop.cmd, qop.index, qop.ready, chip, t, op.value().complete, /*ok=*/true);
}

void Controller::retire(CommandId id, std::uint32_t index, Microseconds ready,
                        std::uint32_t chip, Microseconds start,
                        Microseconds complete, bool ok) {
  const std::size_t si = slot_of(id);
  assert(slot_done_[si] != nullptr);
  assert(slot_done_[si][index] == 0);
  slot_done_[si][index] = 1;
  assert(slot_remaining_[si] > 0);
  if (--slot_remaining_[si] == 0) newly_finished_.push_back(id);
  assert(live_ops_ > 0);
  --live_ops_;
  CommandResult& result = slot_result_[si];
  if (!ok) result.ok = false;
  result.first_complete = std::min(result.first_complete, complete);
  result.last_complete = std::max(result.last_complete, complete);
  const HostCommand& cmd = slot_cmd_[si];
  const OpKind kind =
      cmd.kind == CmdKind::kRead ? OpKind::kHostRead : OpKind::kHostWrite;
  if (config_.keep_op_log) {
    op_log_.push_back(OpRecord{id, index, kind, op_lpn(cmd, index), chip,
                               cmd.issue, ready, start, complete, ok});
  }
  if (trace_ != nullptr) {
    // One duration event per device op, on the chip's lane. wait_us is the
    // scheduling delay: dependency-ready to dispatch.
    trace_->record(kind == OpKind::kHostWrite ? obs::EventKind::kNandWrite
                                              : obs::EventKind::kNandRead,
                   chip + 1, start, complete - start, op_lpn(cmd, index), id,
                   static_cast<std::uint64_t>(std::max<Microseconds>(0, start - ready)));
  }
  // Resolve the one dependent an ordered chain can have: op index+1 waits
  // on this op alone, so it becomes ready here — O(1), no batch sweep.
  if (cmd.ordered && index + 1 < cmd.page_count) {
    const Microseconds dep_ready = std::max(cmd.issue, complete);
    enqueue_ready(id, index + 1, dep_ready);
    events_.schedule(dep_ready);
  }
}

void Controller::collect_finished() {
  for (const CommandId id : newly_finished_) {
    const std::size_t si = slot_of(id);
    assert(slot_state_[si] == SlotState::kPending && slot_remaining_[si] == 0);
    if (slot_result_[si].first_complete == kTimeNever) {
      slot_result_[si].first_complete = slot_result_[si].issue;
    }
    slot_state_[si] = SlotState::kFinished;
    release_done(si);  // only the result lives on
    ++finished_count_;
  }
  newly_finished_.clear();
}

void Controller::drain(Microseconds until) {
  while (!events_.empty() && events_.peek() <= until) {
    const Microseconds t = events_.pop();
    // Coalesce duplicate wake-ups at the same instant.
    while (!events_.empty() && events_.peek() <= t) events_.pop();
    ++work_.instants;
    dispatch_at(t);
    events_.end_instant();
    collect_finished();
    if (sampler_ != nullptr) sampler_->tick(t);
  }
  collect_finished();
  // A full drain must leave nothing in flight: every queued op either had
  // its wake-up scheduled or retired. Anything else is a scheduler bug.
  assert(until != kTimeNever || live_ops_ == 0);
}

CommandResult Controller::execute(const HostCommand& cmd) {
  const CommandId id = submit(cmd);
  drain();
  return take_result(id);
}

std::vector<CommandResult> Controller::take_all_results() {
  std::vector<CommandResult> results;
  take_all_results_into(results);
  return results;
}

void Controller::take_all_results_into(std::vector<CommandResult>& out) {
  out.clear();
  out.reserve(finished_count_);
  // Id order is result order, so the records come out sorted for free.
  for (CommandId id = base_id_; id < next_id_; ++id) {
    const std::size_t si = static_cast<std::size_t>(id) & slot_mask_;
    if (slot_state_[si] != SlotState::kFinished) continue;
    out.push_back(slot_result_[si]);
    slot_state_[si] = SlotState::kEmpty;
  }
  finished_count_ = 0;
  pop_empty_front();
}

PowerLossOutcome Controller::power_loss(Microseconds t) {
  drain(t);
  PowerLossOutcome outcome;
  outcome.cancelled_write_ops = write_queue_.size();
  write_queue_.clear();
  for (RingBuffer<QueuedOp>& queue : read_queues_) {
    outcome.cancelled_read_ops += queue.size();
    queue.clear();
  }
  read_nonempty_.resize(read_nonempty_.universe());  // every read queue is empty
  // Every command still pending lost at least one op (collect_finished
  // already handled fully retired ones): abort it. Its record survives in
  // the finished state so callers can count what was in flight.
  for (CommandId id = base_id_; id < next_id_; ++id) {
    const std::size_t si = static_cast<std::size_t>(id) & slot_mask_;
    if (slot_state_[si] != SlotState::kPending) continue;
    assert(slot_remaining_[si] > 0);
    assert(live_ops_ >= slot_remaining_[si]);
    live_ops_ -= slot_remaining_[si];
    CommandResult& result = slot_result_[si];
    result.ok = false;
    result.aborted = true;
    if (result.first_complete == kTimeNever) {
      result.first_complete = result.issue;
    }
    slot_state_[si] = SlotState::kFinished;
    release_done(si);
    slot_remaining_[si] = 0;
    ++finished_count_;
    ++outcome.aborted_commands;
  }
  events_.clear();
  assert(live_ops_ == 0);
  outcome.victims = ftl_.device().inject_power_loss(t);
  return outcome;
}

CommandResult Controller::take_result(CommandId id) {
  const std::size_t si = slot_of(id);
  assert(slot_state_[si] == SlotState::kFinished);
  const CommandResult result = slot_result_[si];
  slot_state_[si] = SlotState::kEmpty;
  assert(finished_count_ > 0);
  --finished_count_;
  pop_empty_front();
  return result;
}

void Controller::on_idle(Microseconds now, Microseconds deadline) {
  ftl_.on_idle(now, deadline);
}

}  // namespace rps::ctrl
