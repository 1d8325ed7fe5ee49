// Controller-layer tests: command decomposition, the event queue, the
// write-unit pick against its two-pass reference, and the scheduler's
// core properties under random interleavings —
//   * causality: issue <= ready <= start <= complete for every op,
//   * dependency ordering: an op never starts before its deps complete,
//   * legality: per-block program order still satisfies the sequence
//     constraints (FPS for pageFTL, RPS constraints 1-3 for flexFTL),
//     observed through the placement hook with the checkers from
//     src/nand/program_order.hpp (the same ones
//     test_nand_program_order.cpp exercises directly).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/controller/controller.hpp"
#include "src/controller/event_queue.hpp"
#include "src/nand/program_order.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps {
namespace {

TEST(EventQueue, PopsInNondecreasingTimeOrder) {
  ctrl::EventQueue events;
  EXPECT_TRUE(events.empty());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    events.schedule(static_cast<Microseconds>(rng.next_below(10'000)));
  }
  EXPECT_EQ(events.size(), 200u);
  Microseconds last = -1;
  while (!events.empty()) {
    const Microseconds peeked = events.peek();
    const Microseconds t = events.pop();
    EXPECT_EQ(t, peeked);
    EXPECT_GE(t, last);
    last = t;
  }
  EXPECT_TRUE(events.empty());
}

/// A command's op-log records in page order.
std::vector<ctrl::OpRecord> ops_by_index(const ctrl::Controller& controller,
                                         ctrl::CommandId id) {
  std::vector<ctrl::OpRecord> ops;
  for (const ctrl::OpRecord& rec : controller.op_log()) {
    if (rec.cmd == id) ops.push_back(rec);
  }
  std::sort(ops.begin(), ops.end(),
            [](const ctrl::OpRecord& a, const ctrl::OpRecord& b) { return a.index < b.index; });
  return ops;
}

TEST(SplitRequest, OnePageOpPerPage) {
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 40;
  cmd.page_count = 8;
  cmd.issue = 100;
  const ctrl::CommandResult r = controller.execute(cmd);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(controller.op_log().size(), 8u);
  const std::vector<ctrl::OpRecord> ops = ops_by_index(controller, r.id);
  ASSERT_EQ(ops.size(), 8u);
  for (std::uint32_t j = 0; j < ops.size(); ++j) {
    EXPECT_EQ(ops[j].index, j) << "one record per page";
    EXPECT_EQ(ops[j].kind, ctrl::OpKind::kHostWrite);
    EXPECT_EQ(ops[j].lpn, cmd.lpn + j);
    EXPECT_EQ(ops[j].ready, cmd.issue) << "unordered pages are independent";
  }
}

TEST(SplitRequest, OrderedCommandChainsDependencies) {
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 0;
  cmd.page_count = 4;
  cmd.ordered = true;
  const ctrl::CommandResult r = controller.execute(cmd);
  ASSERT_TRUE(r.ok);
  const std::vector<ctrl::OpRecord> ops = ops_by_index(controller, r.id);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].ready, cmd.issue) << "the chain head waits for nothing";
  for (std::uint32_t j = 0; j < ops.size(); ++j) {
    EXPECT_EQ(ops[j].index, j);
    EXPECT_EQ(ops[j].lpn, cmd.lpn + j);
    if (j > 0) {
      EXPECT_GE(ops[j].ready, ops[j - 1].complete)
          << "page " << j << " became ready before page " << j - 1 << " completed";
    }
  }
}

// --- Write-unit pick vs the two-pass reference ----------------------------

struct ReferencePick {
  bool found = false;
  std::uint32_t unit = 0;
  Microseconds next_free = kTimeNever;
};

/// The pre-optimization two-pass write-unit pick, kept verbatim as an
/// executable specification of ftl::pick_unit: an eligibility mask from
/// busy_until() <= t (the earliest busy time when it is empty), narrowed
/// to the anchor die when one of its planes is idle, then the
/// headroom-maximizing round robin from rr % units over the mask.
ReferencePick reference_pick(const std::vector<Microseconds>& busy_until,
                             const std::vector<std::uint64_t>& headroom,
                             std::uint32_t planes, std::uint32_t& rr, Microseconds t,
                             std::int64_t anchor_die) {
  const auto units = static_cast<std::uint32_t>(busy_until.size());
  std::vector<std::uint8_t> eligible(units, 0);
  bool any_idle = false;
  Microseconds next_free = kTimeNever;
  for (std::uint32_t c = 0; c < units; ++c) {
    const Microseconds busy = busy_until[c];
    if (busy <= t) {
      eligible[c] = 1;
      any_idle = true;
    } else {
      next_free = std::min(next_free, busy);
    }
  }
  if (!any_idle) return {false, 0, next_free};
  if (anchor_die >= 0) {
    bool sibling_idle = false;
    for (std::uint32_t p = 0; p < planes; ++p) {
      if (eligible[static_cast<std::uint32_t>(anchor_die) * planes + p] != 0) {
        sibling_idle = true;
        break;
      }
    }
    if (sibling_idle) {
      for (std::uint32_t u = 0; u < units; ++u) {
        if (u / planes != static_cast<std::uint32_t>(anchor_die)) eligible[u] = 0;
      }
    }
  }
  const std::uint32_t start = rr++ % units;
  bool found = false;
  std::uint32_t best = start;
  std::uint64_t best_headroom = 0;
  std::uint32_t chip = start;
  for (std::uint32_t i = 0; i < units; ++i) {
    if (eligible[chip] != 0) {
      if (!found || headroom[chip] > best_headroom) {
        found = true;
        best = chip;
        best_headroom = headroom[chip];
      }
    }
    if (++chip == units) chip = 0;
  }
  return {true, best, kTimeNever};
}

TEST(UnitPick, MatchesTwoPassReferenceOnRandomStates) {
  // Random array states, biased toward the tie cases the fused scan must
  // break exactly like the reference: busy times equal to t (idle), busy
  // times tied with each other, equal headrooms, a fully busy array, and
  // anchors whose planes are all busy (the spill to the global set).
  constexpr Microseconds kT = 10'000;
  std::uint64_t checked = 0;
  std::uint64_t blocked = 0;
  std::uint64_t on_anchor = 0;  // anchored picks that stayed on the die
  std::uint64_t spilled = 0;    // anchored picks that left it (die all busy)
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const std::uint32_t planes = std::uint32_t{1} << rng.next_below(3);  // 1, 2, 4
    const auto dies = static_cast<std::uint32_t>(1 + rng.next_below(130 / planes));
    const std::uint32_t units = dies * planes;  // 1..130
    const double idle_share = rng.next_double();
    std::vector<Microseconds> busy(units);
    std::vector<std::uint64_t> headroom(units);
    for (std::uint32_t u = 0; u < units; ++u) {
      if (rng.chance(idle_share)) {
        busy[u] = rng.chance(0.5) ? kT : kT - static_cast<Microseconds>(rng.next_below(50));
      } else {
        busy[u] = kT + 1 + static_cast<Microseconds>(rng.next_below(4));
      }
      headroom[u] = rng.next_below(4);  // few values: many equal headrooms
    }
    // Round-robin positions across the whole u32 range, wrap included.
    std::uint32_t rr = rng.chance(0.2)
                           ? 0xffffffffu - static_cast<std::uint32_t>(rng.next_below(3))
                           : static_cast<std::uint32_t>(rng.next_below(1u << 31));
    for (int call = 0; call < 4; ++call) {
      const std::int64_t anchor_die =
          rng.chance(0.5) ? static_cast<std::int64_t>(rng.next_below(dies)) : -1;
      std::uint32_t want_rr = rr;
      const ReferencePick want =
          reference_pick(busy, headroom, planes, want_rr, kT, anchor_die);
      const ftl::UnitPick got = ftl::pick_unit(
          units, planes, rr, kT, anchor_die,
          [&](std::uint32_t u) { return busy[u]; },
          [&](std::uint32_t u) { return headroom[u]; });
      ASSERT_EQ(got.found, want.found) << "seed " << seed << " call " << call;
      ASSERT_EQ(rr, want_rr) << "round robin diverged, seed " << seed << " call " << call;
      if (want.found) {
        ASSERT_EQ(got.unit, want.unit) << "seed " << seed << " call " << call;
        if (anchor_die >= 0) {
          ++(got.unit / planes == static_cast<std::uint32_t>(anchor_die) ? on_anchor
                                                                          : spilled);
        }
        // The pick occupies its unit, as a dispatched program would.
        busy[got.unit] = kT + 1 + static_cast<Microseconds>(rng.next_below(4));
      } else {
        ASSERT_EQ(got.next_free, want.next_free) << "seed " << seed << " call " << call;
        ++blocked;
      }
      ++checked;
    }
  }
  // The schedule reached every branch it exists to compare.
  EXPECT_GT(blocked, 500u);
  EXPECT_GT(on_anchor, 1000u);
  EXPECT_GT(spilled, 500u);
  EXPECT_EQ(checked, 12'000u);
}

TEST(Controller, SinglePageWriteCompletesAtProgramTime) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  ctrl::Controller controller(*ftl);
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 3;
  cmd.page_count = 1;
  cmd.issue = 1000;
  const ctrl::CommandResult r = controller.execute(cmd);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.pages, 1u);
  // First program of a block is LSB: transfer + LSB program.
  EXPECT_EQ(r.last_complete,
            1000 + config.timing.transfer_us + config.timing.program_lsb_us);
  EXPECT_TRUE(controller.idle());
}

TEST(Controller, MultiPageRequestStripesAcrossIdleChips) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  const std::uint32_t chips = ftl->device().geometry().num_chips();
  ASSERT_GT(chips, 1u);
  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kWrite;
  cmd.lpn = 0;
  cmd.page_count = chips;  // one page per chip fits the idle array exactly
  const ctrl::CommandResult r = controller.execute(cmd);
  ASSERT_TRUE(r.ok);
  std::map<std::uint32_t, int> per_chip;
  for (const ctrl::OpRecord& rec : controller.op_log()) {
    EXPECT_EQ(rec.start, 0) << "every page dispatches at issue, none queues";
    ++per_chip[rec.chip];
  }
  EXPECT_EQ(per_chip.size(), chips) << "pages landed on distinct chips";
  // All programs overlap: the whole request costs one program plus the
  // serialized bus transfers of the chips sharing a channel — not
  // `chips` back-to-back programs as on the legacy synchronous path.
  EXPECT_EQ(r.last_complete,
            config.geometry.chips_per_channel * config.timing.transfer_us +
                config.timing.program_lsb_us);
}

TEST(Controller, ReadOfUnmappedPageRetiresInstantly) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  ctrl::Controller controller(*ftl);
  ctrl::HostCommand cmd;
  cmd.kind = ctrl::CmdKind::kRead;
  cmd.lpn = 5;
  cmd.page_count = 2;
  cmd.issue = 77;
  const ctrl::CommandResult r = controller.execute(cmd);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.read_errors, 0u);
  EXPECT_EQ(r.last_complete, 77) << "zero-fill read touches no device timeline";
  EXPECT_EQ(ftl->stats().unmapped_reads, 2u);
}

TEST(Controller, PowerLossCancelsQueuedReadsAndLeavesQueuesReusable) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, config);
  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  ctrl::HostCommand write;
  write.kind = ctrl::CmdKind::kWrite;
  write.lpn = 0;
  write.page_count = 2;  // two idle chips: pages 0 and 1 land on different chips
  const ctrl::CommandResult written = controller.execute(write);
  ASSERT_TRUE(written.ok);
  const std::vector<ctrl::OpRecord> placed = ops_by_index(controller, written.id);
  const std::uint32_t chip0 = placed[0].chip;
  const std::uint32_t chip1 = placed[1].chip;
  ASSERT_NE(chip0, chip1);

  // Four reads of page 0 at one instant: one dispatches, three queue
  // behind it on its chip when the power fails.
  const Microseconds t = 10'000;
  ctrl::HostCommand read;
  read.kind = ctrl::CmdKind::kRead;
  read.lpn = 0;
  read.issue = t;
  for (int i = 0; i < 4; ++i) controller.submit(read);
  const ctrl::PowerLossOutcome outcome = controller.power_loss(t);
  EXPECT_EQ(outcome.cancelled_read_ops, 3u);
  EXPECT_EQ(controller.read_queue_depth(chip0), 0u);
  EXPECT_TRUE(controller.idle());

  // The cancelled queue's chip must not stay marked nonempty: a later
  // read on another chip dispatches through the same pass.
  read.lpn = 1;
  read.issue = 2 * t;
  const ctrl::CommandResult r = controller.execute(read);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.read_errors, 0u);
  EXPECT_GT(r.last_complete, read.issue);
  EXPECT_EQ(controller.op_log().back().chip, chip1);
}

struct InterleavingCase {
  sim::FtlKind kind;
  nand::SequenceKind sequence;
  std::uint64_t seed;
  nand::Geometry geometry = nand::Geometry::tiny();
};

/// 9 x 4 dies of two planes: 72 units, so the controller's nonempty-read-
/// queue bitset spans two words.
constexpr nand::Geometry kWideGeometry{.channels = 9,
                                       .chips_per_channel = 4,
                                       .planes_per_chip = 2,
                                       .blocks_per_chip = 16,
                                       .wordlines_per_block = 4,
                                       .page_size_bytes = 512,
                                       .spare_bytes = 16};

class RandomInterleavings : public ::testing::TestWithParam<InterleavingCase> {};

TEST_P(RandomInterleavings, KeepsCausalityDependenciesAndProgramOrder) {
  const InterleavingCase param = GetParam();
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry = param.geometry;
  auto ftl = sim::make_ftl(param.kind, config);
  const std::uint32_t wordlines = config.geometry.wordlines_per_block;

  // Per-block legality tracking via the placement hook. Every host/GC
  // page commit is checked incrementally against the sequence scheme; a
  // failing check on a block whose history restarted (erase + reuse) is
  // retried against a fresh state, so only genuine order violations
  // fail. (The device model rejects illegal programs outright — this
  // re-derivation proves the *scheduler* never even attempts reordering
  // within a block.)
  std::unordered_map<std::uint64_t, nand::BlockProgramState> block_states;
  ftl->set_placement_observer([&](Lpn, const nand::PageAddress& addr) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(addr.chip) << 32) | addr.block;
    auto [it, inserted] = block_states.try_emplace(key, wordlines);
    nand::BlockProgramState& state = it->second;
    (void)inserted;
    if (!nand::check_program_legality(state, addr.pos, param.sequence).is_ok()) {
      state.reset();  // block was erased and reused; restart its history
      ASSERT_TRUE(
          nand::check_program_legality(state, addr.pos, param.sequence).is_ok())
          << "illegal program order at chip " << addr.chip << " block "
          << addr.block << " wl " << addr.pos.wordline;
    }
    state.mark_programmed(addr.pos);
  });

  ctrl::Controller controller(*ftl, {.stripe_writes = true, .keep_op_log = true});
  const Lpn space = ftl->exported_pages();
  ASSERT_GT(space, 16u);

  Rng rng(param.seed);
  std::map<ctrl::CommandId, bool> ordered;
  std::vector<ctrl::CommandId> ids;
  Microseconds t = 0;
  for (int i = 0; i < 400; ++i) {
    ctrl::HostCommand cmd;
    const bool is_read = rng.chance(0.3);
    cmd.kind = is_read ? ctrl::CmdKind::kRead : ctrl::CmdKind::kWrite;
    cmd.page_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    cmd.lpn = rng.next_below(space - 8);
    cmd.ordered = rng.chance(0.3);
    cmd.buffer_utilization = rng.next_double();
    cmd.issue = t;
    t += static_cast<Microseconds>(rng.next_below(400));
    ids.push_back(controller.submit(cmd));
    ordered[ids.back()] = cmd.ordered;
    // Partial drains interleave execution with submission — commands
    // overlap both in arrival time and in flight.
    if (rng.chance(0.5)) controller.drain(t);
  }
  controller.drain();
  EXPECT_TRUE(controller.idle());

  // Causality on every retired op.
  std::map<ctrl::CommandId, std::map<std::uint32_t, Microseconds>> completes;
  std::uint32_t top_read_chip = 0;
  for (const ctrl::OpRecord& rec : controller.op_log()) {
    EXPECT_GE(rec.ready, rec.issue);
    EXPECT_GE(rec.start, rec.ready) << "op dispatched before it was ready";
    EXPECT_GE(rec.complete, rec.start);
    completes[rec.cmd][rec.index] = rec.complete;
    if (rec.kind == ctrl::OpKind::kHostRead) top_read_chip = std::max(top_read_chip, rec.chip);
  }
  if (param.geometry.num_units() > 64) {
    EXPECT_GE(top_read_chip, 64u) << "no read queued past the bitset's first word";
  }
  // Dependency ordering: ordered commands complete page j after page j-1.
  for (const ctrl::CommandId id : ids) {
    if (!ordered.at(id)) continue;
    const auto& by_index = completes.at(id);
    Microseconds prev = 0;
    for (const auto& [index, complete] : by_index) {
      (void)index;
      EXPECT_GE(complete, prev) << "dependency chain violated in command " << id;
      prev = complete;
    }
  }
  // Every command retired with every page accounted for.
  for (const ctrl::CommandId id : ids) {
    const ctrl::CommandResult r = controller.take_result(id);
    EXPECT_TRUE(r.ok) << "command " << id;
    EXPECT_GE(r.first_complete, r.issue) << "completion precedes issue";
    EXPECT_GE(r.last_complete, r.first_complete);
    EXPECT_EQ(completes.at(id).size(), r.pages);
  }
  EXPECT_TRUE(ftl->check_consistency());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RandomInterleavings,
    ::testing::Values(
        InterleavingCase{sim::FtlKind::kPage, nand::SequenceKind::kFps, 101},
        InterleavingCase{sim::FtlKind::kPage, nand::SequenceKind::kFps, 202},
        InterleavingCase{sim::FtlKind::kFlex, nand::SequenceKind::kRps, 303},
        InterleavingCase{sim::FtlKind::kFlex, nand::SequenceKind::kRps, 404},
        InterleavingCase{sim::FtlKind::kPage, nand::SequenceKind::kFps, 505, kWideGeometry},
        InterleavingCase{sim::FtlKind::kFlex, nand::SequenceKind::kRps, 606, kWideGeometry}),
    [](const ::testing::TestParamInfo<InterleavingCase>& info) {
      const std::uint32_t units = info.param.geometry.num_units();
      return std::string(sim::to_string(info.param.kind)) + "_seed" +
             std::to_string(info.param.seed) +
             (units == nand::Geometry::tiny().num_units()
                  ? ""
                  : "_units" + std::to_string(units));
    });

/// Submit a random mixed schedule (partial drains interleaved) and drain.
void drive_random_schedule(ctrl::Controller& controller, Lpn space, std::uint64_t seed) {
  Rng rng(seed);
  Microseconds t = 0;
  for (int i = 0; i < 300; ++i) {
    ctrl::HostCommand cmd;
    cmd.kind = rng.chance(0.3) ? ctrl::CmdKind::kRead : ctrl::CmdKind::kWrite;
    cmd.page_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    cmd.lpn = rng.next_below(space - 8);
    cmd.ordered = rng.chance(0.3);
    cmd.issue = t;
    t += static_cast<Microseconds>(rng.next_below(200));
    controller.submit(cmd);
    if (rng.chance(0.5)) controller.drain(t);
  }
  controller.drain();
}

TEST(Controller, SamplerChangesOnlyTheInstantsVisited) {
  // A StateSampler turns wake-up coalescing off, so the drain visits every
  // wake-up a blocked head posts and re-scans a blocked write head at
  // each; with coalescing on, a blocked write head is scanned at most
  // once per instant. Either way every dispatch decision is the same.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    auto plain_ftl = sim::make_ftl(sim::FtlKind::kFlex, ftl::FtlConfig::tiny());
    auto sampled_ftl = sim::make_ftl(sim::FtlKind::kFlex, ftl::FtlConfig::tiny());
    ctrl::Controller plain(*plain_ftl, {.keep_op_log = true});
    ctrl::Controller sampled(*sampled_ftl, {.keep_op_log = true});
    obs::StateSampler sampler(/*period_us=*/100);
    sampled.set_observability(nullptr, &sampler);
    drive_random_schedule(plain, plain_ftl->exported_pages(), seed);
    drive_random_schedule(sampled, sampled_ftl->exported_pages(), seed);

    const std::vector<ctrl::OpRecord>& a = plain.op_log();
    const std::vector<ctrl::OpRecord>& b = sampled.op_log();
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].cmd, b[i].cmd) << "seed " << seed << " op " << i;
      ASSERT_EQ(a[i].index, b[i].index) << "seed " << seed << " op " << i;
      ASSERT_EQ(a[i].chip, b[i].chip) << "seed " << seed << " op " << i;
      ASSERT_EQ(a[i].start, b[i].start) << "seed " << seed << " op " << i;
      ASSERT_EQ(a[i].complete, b[i].complete) << "seed " << seed << " op " << i;
    }

    const ctrl::DispatchWork& coalesced = plain.dispatch_work();
    const ctrl::DispatchWork& every = sampled.dispatch_work();
    EXPECT_GT(coalesced.write_picks_blocked, 0u) << "schedule never saturated the array";
    EXPECT_LE(coalesced.write_picks_blocked, coalesced.instants);
    EXPECT_GE(every.instants, coalesced.instants);
    EXPECT_GE(every.write_picks_blocked, coalesced.write_picks_blocked);
    // Successful picks are dispatched writes: the same on both.
    EXPECT_EQ(coalesced.write_picks - coalesced.write_picks_blocked,
              every.write_picks - every.write_picks_blocked);
  }
}

}  // namespace
}  // namespace rps
