#include "src/nand/device.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::nand {
namespace {

NandDevice make_device(SequenceKind kind = SequenceKind::kRps) {
  return NandDevice(Geometry::tiny(), TimingSpec::paper(), kind);
}

TEST(NandDevice, GeometryAccessors) {
  NandDevice dev = make_device();
  EXPECT_EQ(dev.geometry(), Geometry::tiny());
  EXPECT_EQ(dev.sequence_kind(), SequenceKind::kRps);
  EXPECT_EQ(dev.timing(), TimingSpec::paper());
}

TEST(NandDevice, ProgramIncludesBusTransfer) {
  NandDevice dev = make_device();
  const Result<OpTiming> op = dev.program({0, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(op.is_ok());
  EXPECT_EQ(op.value().start, 0);
  EXPECT_EQ(op.value().complete, TimingSpec::paper().transfer_us + 500);
}

TEST(NandDevice, ChannelBusSerializesChipsOnSameChannel) {
  // tiny(): 2 channels x 2 chips. Chips 0 and 1 share channel 0.
  NandDevice dev = make_device();
  const Result<OpTiming> a = dev.program({0, 0, {0, PageType::kLsb}}, {}, 0);
  const Result<OpTiming> b = dev.program({1, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Chip 1's transfer waits for chip 0's transfer to release the bus.
  EXPECT_EQ(b.value().start, TimingSpec::paper().transfer_us);
  // Chips on a different channel are unaffected.
  const Result<OpTiming> c = dev.program({2, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().start, 0);
}

TEST(NandDevice, CellOpsOverlapAcrossChipsOfOneChannel) {
  NandDevice dev = make_device();
  const Result<OpTiming> a = dev.program({0, 0, {0, PageType::kLsb}}, {}, 0);
  const Result<OpTiming> b = dev.program({1, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  // The two 500 us cell programs overlap: chip 1 finishes only one
  // transfer-time later than chip 0, not a full program later.
  EXPECT_EQ(b.value().complete - a.value().complete, TimingSpec::paper().transfer_us);
}

TEST(NandDevice, ReadTransfersAfterSensing) {
  NandDevice dev = make_device();
  ASSERT_TRUE(dev.program({0, 0, {0, PageType::kLsb}}, {}, 0).is_ok());
  const Microseconds t0 = dev.chip(0).busy_until();
  const Result<NandDevice::ReadResult> read = dev.read({0, 0, {0, PageType::kLsb}}, t0);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().timing.complete,
            t0 + TimingSpec::paper().read_us + TimingSpec::paper().transfer_us);
  ASSERT_TRUE(read.value().data.is_ok());
}

TEST(NandDevice, CanProgramMirrorsBlockLegality) {
  NandDevice dev = make_device(SequenceKind::kFps);
  EXPECT_TRUE(dev.can_program({0, 0, {0, PageType::kLsb}}).is_ok());
  EXPECT_EQ(dev.can_program({0, 0, {1, PageType::kLsb}}).code(),
            ErrorCode::kSequenceViolation);
  EXPECT_EQ(dev.can_program({9, 0, {0, PageType::kLsb}}).code(), ErrorCode::kOutOfRange);
}

TEST(NandDevice, RejectedProgramLeavesChannelTimelineUntouched) {
  NandDevice dev = make_device(SequenceKind::kFps);
  ASSERT_FALSE(dev.program({0, 0, {2, PageType::kLsb}}, {}, 0).is_ok());
  // A subsequent valid program on the same channel starts at time zero.
  const Result<OpTiming> op = dev.program({0, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(op.is_ok());
  EXPECT_EQ(op.value().start, 0);
}

TEST(NandDevice, EraseAndCounters) {
  NandDevice dev = make_device();
  ASSERT_TRUE(dev.program({0, 1, {0, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.erase({0, 1}, 10'000).is_ok());
  EXPECT_EQ(dev.total_erase_count(), 1u);
  const OpCounters counters = dev.total_counters();
  EXPECT_EQ(counters.lsb_programs, 1u);
  EXPECT_EQ(counters.erases, 1u);
  EXPECT_TRUE(dev.block({0, 1}).is_erased());
}

TEST(NandDevice, PowerLossAcrossChips) {
  NandDevice dev = make_device();
  // Start MSB programs on two chips, LSB on a third.
  ASSERT_TRUE(dev.program({0, 0, {0, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.program({0, 0, {1, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.program({1, 0, {0, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.program({1, 0, {1, PageType::kLsb}}, {}, 0).is_ok());
  const Microseconds t = std::max(dev.chip(0).busy_until(), dev.chip(1).busy_until());
  ASSERT_TRUE(dev.program({0, 0, {0, PageType::kMsb}}, {}, t).is_ok());
  ASSERT_TRUE(dev.program({1, 0, {0, PageType::kMsb}}, {}, t).is_ok());

  const std::vector<PowerLossVictim> victims = dev.inject_power_loss(t + 100);
  ASSERT_EQ(victims.size(), 2u);
  for (const PowerLossVictim& v : victims) {
    EXPECT_EQ(v.pos.type, PageType::kMsb);
    EXPECT_EQ(dev.block({v.chip, v.block}).read({v.pos.wordline, PageType::kLsb}).code(),
              ErrorCode::kEccUncorrectable);
  }
}

TEST(NandDevice, AllIdleAt) {
  NandDevice dev = make_device();
  EXPECT_EQ(dev.all_idle_at(), 0);
  ASSERT_TRUE(dev.program({3, 0, {0, PageType::kLsb}}, {}, 1000).is_ok());
  EXPECT_EQ(dev.all_idle_at(), 1000 + TimingSpec::paper().transfer_us + 500);
}

TEST(NandDevice, OutOfRangeOps) {
  NandDevice dev = make_device();
  EXPECT_EQ(dev.program({99, 0, {0, PageType::kLsb}}, {}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.read({0, 99, {0, PageType::kLsb}}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.erase({0, 99}, 0).code(), ErrorCode::kOutOfRange);
}

// The record-free read (NandDevice::sense) against the slot state and the
// record read, over random device states: MLC and TLC, one and two planes,
// SLC-mode blocks, bad-block remaps (factory, erase endurance, program
// failures), lazy erases still pending at read time, and power cuts that
// corrupt pages.
NandDevice make_random_device(std::uint32_t bits, std::uint32_t planes,
                              std::uint64_t seed) {
  const Geometry geometry{.channels = 2,
                          .chips_per_channel = 1,
                          .planes_per_chip = planes,
                          .blocks_per_chip = 12,
                          .wordlines_per_block = 6,
                          .page_size_bytes = 512,
                          .spare_bytes = 16,
                          .bits_per_cell = bits};
  BadBlockConfig bad;
  bad.spare_blocks_per_unit = 2;
  bad.factory_bad_ppm = 100'000;
  bad.erase_endurance = 8;
  bad.program_fail_ppm = 50'000;
  bad.seed = seed;
  return NandDevice(geometry, bits == 3 ? TimingSpec::tlc() : TimingSpec::paper(),
                    SequenceKind::kRps, bad);
}

/// Where drive_random left a device: the time its state settles at, and
/// how many erases charged in the final step start after that time (they
/// are still pending when reads start there).
struct RandomState {
  Microseconds settled = 0;
  std::uint32_t pending_erases = 0;
};

/// Drive `dev` to a random state; the same seed gives the same state.
RandomState drive_random(NandDevice& dev, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t bits = dev.geometry().bits_per_cell;
  std::uint64_t version = 0;
  Microseconds now = 0;
  const auto program_next = [&](const BlockAddress& addr) {
    const Block& block = dev.block(addr);
    const std::optional<PagePos> pos =
        block.slc_mode() ? block.next_lsb()
                         : block.next_in_pass(type_of_pass(
                               static_cast<std::uint32_t>(rng.next_below(bits)), bits));
    if (!pos) return;
    ++version;
    const PageData data{.lpn = version, .signature = version * 0x9e3779b97f4a7c15ull,
                        .spare = 0, .version = version};
    (void)dev.program({addr.chip, addr.block, *pos}, data, now);
  };
  const auto random_block = [&]() -> std::optional<BlockAddress> {
    const BlockAddress addr{static_cast<std::uint32_t>(rng.next_below(dev.num_units())),
                            static_cast<std::uint32_t>(rng.next_below(dev.visible_blocks()))};
    if (dev.bad_blocks().is_retired(addr.chip, addr.block)) return std::nullopt;
    return addr;
  };
  for (int step = 0; step < 800; ++step) {
    const std::optional<BlockAddress> addr = random_block();
    if (!addr) continue;
    const double roll = rng.next_double();
    if (roll < 0.75) {
      program_next(*addr);
    } else if (roll < 0.87) {
      (void)dev.erase(*addr, now);
    } else if (roll < 0.93) {
      Block& block = dev.block_mut(*addr);
      if (block.is_erased()) (void)block.set_slc_mode();
    } else if (roll < 0.96 && dev.all_idle_at() > now) {
      // Cut inside the charged work: in-flight programs are corrupted.
      now += static_cast<Microseconds>(rng.next_below(dev.all_idle_at() - now));
      (void)dev.inject_power_loss(now);
    }
    now += static_cast<Microseconds>(rng.next_below(400));
  }
  // A last burst of programs on every unit, cut mid-flight, leaves
  // corrupted pages; erases charged behind busy units stay pending.
  for (int i = 0; i < 12; ++i) {
    if (const std::optional<BlockAddress> addr = random_block()) program_next(*addr);
  }
  now += 200;
  (void)dev.inject_power_loss(now);
  RandomState state{now, 0};
  for (int i = 0; i < 6; ++i) {
    const std::optional<BlockAddress> addr = random_block();
    if (!addr) continue;
    program_next(*addr);
    const Result<OpTiming> erased = dev.erase(*addr, now);
    if (erased.is_ok() && erased.value().start > now) ++state.pending_erases;
  }
  return state;
}

std::vector<std::uint8_t> save_bytes(const NandDevice& dev) {
  return ser::encode([&](ser::Writer& w) { dev.save(w); });
}

TEST(NandSense, RecordFreeOutcomeMatchesSlotStateAndRecordRead) {
  std::uint64_t corrupted = 0;
  std::uint64_t erased = 0;
  std::uint64_t intact = 0;
  std::uint64_t slc_pages = 0;
  std::uint64_t pending_erases = 0;
  for (const std::uint32_t bits : {2u, 3u}) {
    for (const std::uint32_t planes : {1u, 2u}) {
      for (const std::uint64_t seed : {11u, 12u, 13u}) {
        SCOPED_TRACE(testing::Message() << "bits " << bits << " planes " << planes
                                        << " seed " << seed);
        // Twins: one read through the host path (sense), one through the
        // record path (read), in the same order at the same times.
        NandDevice host = make_random_device(bits, planes, seed);
        NandDevice record = make_random_device(bits, planes, seed);
        const RandomState state = drive_random(host, seed);
        ASSERT_EQ(drive_random(record, seed).settled, state.settled);
        ASSERT_EQ(save_bytes(host), save_bytes(record));
        pending_erases += state.pending_erases;

        std::vector<PageAddress> pages;
        for (std::uint32_t u = 0; u < host.num_units(); ++u) {
          for (std::uint32_t b = 0; b < host.visible_blocks(); ++b) {
            if (host.bad_blocks().is_retired(u, b)) continue;
            for (std::uint32_t i = 0; i < host.geometry().pages_per_block(); ++i) {
              pages.push_back({u, b, PagePos::from_flat(i, bits)});
            }
          }
        }
        Rng rng(seed * 31);
        rng.shuffle(pages);
        for (const PageAddress& addr : pages) {
          const Microseconds t =
              state.settled + static_cast<Microseconds>(rng.next_below(100));
          const Result<NandDevice::SenseResult> sensed = host.sense(addr, t);
          const Result<NandDevice::ReadResult> read = record.read(addr, t);
          ASSERT_TRUE(sensed.is_ok());
          ASSERT_TRUE(read.is_ok());
          // The sensing settled this block's pending erase, as the read did.
          const Block& block = host.block({addr.chip, addr.block});
          if (block.slc_mode()) ++slc_pages;
          switch (block.page_state(addr.pos)) {
            case PageState::kErased:
              EXPECT_EQ(sensed.value().status.code(), ErrorCode::kNotProgrammed);
              ++erased;
              break;
            case PageState::kCorrupted:
              EXPECT_EQ(sensed.value().status.code(), ErrorCode::kEccUncorrectable);
              ++corrupted;
              break;
            case PageState::kValid:
              EXPECT_TRUE(sensed.value().status.is_ok());
              ASSERT_TRUE(read.value().data.is_ok());
              EXPECT_EQ(read.value().data.value(), block.record(addr.pos));
              ++intact;
              break;
          }
          EXPECT_EQ(sensed.value().status.code(), read.value().data.code());
          EXPECT_EQ(sensed.value().timing.start, read.value().timing.start);
          EXPECT_EQ(sensed.value().timing.complete, read.value().timing.complete);
        }
        EXPECT_EQ(host.total_counters().reads, pages.size());
#define RPS_FIELD(name) \
  EXPECT_EQ(host.total_counters().name, record.total_counters().name) << #name;
        RPS_OP_COUNTER_FIELDS(RPS_FIELD)
#undef RPS_FIELD
        EXPECT_EQ(host.attribution(), record.attribution());
        EXPECT_EQ(host.all_idle_at(), record.all_idle_at());
        EXPECT_EQ(save_bytes(host), save_bytes(record));
      }
    }
  }
  // The random states cover every outcome.
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(erased, 0u);
  EXPECT_GT(intact, 0u);
  EXPECT_GT(slc_pages, 0u);
  EXPECT_GT(pending_erases, 0u);
}

}  // namespace
}  // namespace rps::nand
