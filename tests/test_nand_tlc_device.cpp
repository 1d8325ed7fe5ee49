// The TLC (3-pass) case of the device layer — blocks, chips and the
// device: timing of the three passes, constraint enforcement at the
// device boundary, and the cut matrix (a cut during a later pass destroys
// every lower page of its word line).
#include "src/nand/device.hpp"

#include <gtest/gtest.h>

namespace rps::nand {
namespace {

constexpr std::uint32_t kBits = 3;

Geometry tiny_geometry() {
  return Geometry{.channels = 1,
                  .chips_per_channel = 2,
                  .planes_per_chip = 1,
                  .blocks_per_chip = 4,
                  .wordlines_per_block = 4,
                  .page_size_bytes = 512,
                  .spare_bytes = 16,
                  .bits_per_cell = kBits};
}

Chip tlc_chip() { return Chip(2, 4, SequenceKind::kRps, TimingSpec::tlc(), kBits); }

TEST(TlcBlockModel, PassFrontiers) {
  Block block(4, SequenceKind::kRps, kBits);
  ASSERT_TRUE(block.next_in_pass(PageType::kLsb).has_value());
  EXPECT_EQ(block.next_in_pass(PageType::kLsb)->wordline, 0u);
  // CSB frontier closed until LSB(1) exists (T4).
  EXPECT_FALSE(block.next_in_pass(PageType::kCsb).has_value());
  ASSERT_TRUE(block.program({0, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(block.program({1, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(block.next_in_pass(PageType::kCsb).has_value());
  // MSB frontier closed until CSB(1) exists (T5).
  EXPECT_FALSE(block.next_in_pass(PageType::kMsb).has_value());
}

TEST(TlcBlockModel, FullLifecycleAndErase) {
  Block block(4, SequenceKind::kRps, kBits);
  for (const PagePos pos : rps_full_order(4, kBits)) {
    ASSERT_TRUE(block.program(pos, {}).is_ok()) << pos.to_string();
  }
  EXPECT_TRUE(block.is_fully_programmed());
  EXPECT_EQ(block.programmed_in_pass(PageType::kCsb), 4u);
  block.erase();
  EXPECT_TRUE(block.is_erased());
  EXPECT_EQ(block.erase_count(), 1u);
  EXPECT_EQ(block.read({0, PageType::kLsb}).code(), ErrorCode::kNotProgrammed);
}

TEST(TlcChipModel, PassLatencies) {
  const TimingSpec timing = TimingSpec::tlc();
  Chip chip = tlc_chip();
  const auto lsb = chip.program(0, {0, PageType::kLsb}, {}, 0);
  ASSERT_TRUE(lsb.is_ok());
  EXPECT_EQ(lsb.value().busy_time(), timing.program_lsb_us);
  ASSERT_TRUE(chip.program(0, {1, PageType::kLsb}, {}, 0).is_ok());
  const auto csb = chip.program(0, {0, PageType::kCsb}, {}, 0);
  ASSERT_TRUE(csb.is_ok());
  EXPECT_EQ(csb.value().busy_time(), timing.program_csb_us);
  ASSERT_TRUE(chip.program(0, {2, PageType::kLsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {1, PageType::kCsb}, {}, 0).is_ok());
  const auto msb = chip.program(0, {0, PageType::kMsb}, {}, 0);
  ASSERT_TRUE(msb.is_ok());
  EXPECT_EQ(msb.value().busy_time(), timing.program_msb_us);
}

TEST(TlcChipModel, RejectsIllegalOrderWithoutTimelineChange) {
  Chip chip = tlc_chip();
  EXPECT_FALSE(chip.program(0, {0, PageType::kCsb}, {}, 0).is_ok());
  EXPECT_EQ(chip.busy_until(), 0);
}

TEST(TlcChipModel, PowerLossDuringCsbKillsLsbOnly) {
  Chip chip = tlc_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {1, PageType::kLsb}, {}, 0).is_ok());
  const auto csb = chip.program(0, {0, PageType::kCsb}, {}, 0);
  ASSERT_TRUE(csb.is_ok());
  const auto victim = chip.apply_power_loss(csb.value().complete - 50);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->pos.type, PageType::kCsb);
  EXPECT_EQ(chip.block(0).read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_TRUE(chip.block(0).read({1, PageType::kLsb}).is_ok());
}

TEST(TlcChipModel, PowerLossDuringMsbKillsBothLowerPages) {
  Chip chip = tlc_chip();
  for (std::uint32_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(chip.program(0, {k, PageType::kLsb}, {}, 0).is_ok());
  }
  ASSERT_TRUE(chip.program(0, {0, PageType::kCsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {1, PageType::kCsb}, {}, 0).is_ok());
  const auto msb = chip.program(0, {0, PageType::kMsb}, {}, 0);
  ASSERT_TRUE(msb.is_ok());
  ASSERT_TRUE(chip.apply_power_loss(msb.value().complete - 50).has_value());
  EXPECT_EQ(chip.block(0).read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_EQ(chip.block(0).read({0, PageType::kCsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_TRUE(chip.block(0).read({1, PageType::kLsb}).is_ok());
  EXPECT_TRUE(chip.block(0).read({1, PageType::kCsb}).is_ok());
}

TEST(TlcChipModel, CutVoidsWorkChargedPastIt) {
  // The MLC cut rules: a program charged to start after the cut is a
  // victim, an erase charged after it never happened, and the timeline
  // stops at the cut.
  Chip chip = tlc_chip();
  ASSERT_TRUE(chip.program(1, {0, PageType::kLsb}, {}, 0).is_ok());  // [0, 400)
  ASSERT_TRUE(chip.sense(1, {0, PageType::kLsb}, 0).is_ok());        // [400, 460)
  ASSERT_TRUE(chip.erase(1, 0).is_ok());                             // [460, 5460)
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());  // [5460, 5860)
  const auto victim = chip.apply_power_loss(450);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, 0u);
  EXPECT_EQ(chip.block(0).read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_TRUE(chip.block(1).read({0, PageType::kLsb}).is_ok());
  EXPECT_EQ(chip.total_erase_count(), 0u);
  EXPECT_EQ(chip.busy_until(), 450);
}

TEST(TlcDeviceModel, ChannelBusSerialization) {
  NandDevice dev(tiny_geometry(), TimingSpec::tlc(), SequenceKind::kRps);
  // Two chips share the single channel: the second transfer queues.
  const auto a = dev.program({0, 0, {0, PageType::kLsb}}, {}, 0);
  const auto b = dev.program({1, 0, {0, PageType::kLsb}}, {}, 0);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(b.value().start, TimingSpec::tlc().transfer_us);
  // Cell programs overlap across chips.
  EXPECT_EQ(b.value().complete - a.value().complete, TimingSpec::tlc().transfer_us);
}

TEST(TlcDeviceModel, ReadRoundTripAndCounters) {
  NandDevice dev(tiny_geometry(), TimingSpec::tlc(), SequenceKind::kRps);
  PageData d;
  d.lpn = 9;
  ASSERT_TRUE(dev.program({0, 1, {0, PageType::kLsb}}, d, 0).is_ok());
  const auto read = dev.read({0, 1, {0, PageType::kLsb}}, 1000);
  ASSERT_TRUE(read.is_ok());
  ASSERT_TRUE(read.value().data.is_ok());
  EXPECT_EQ(read.value().data.value().lpn, 9u);
  ASSERT_TRUE(dev.erase({0, 1}, 5000).is_ok());
  const OpCounters counters = dev.total_counters();
  EXPECT_EQ(counters.lsb_programs, 1u);
  EXPECT_EQ(counters.reads, 1u);
  EXPECT_EQ(dev.total_erase_count(), 1u);
}

TEST(TlcDeviceModel, OutOfRange) {
  NandDevice dev(tiny_geometry(), TimingSpec::tlc(), SequenceKind::kRps);
  EXPECT_EQ(dev.program({9, 0, {0, PageType::kLsb}}, {}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.read({0, 9, {0, PageType::kLsb}}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.erase({0, 9}, 0).code(), ErrorCode::kOutOfRange);
  // An MLC device has no CSB page.
  Geometry mlc = tiny_geometry();
  mlc.bits_per_cell = 2;
  NandDevice mlc_dev(mlc, TimingSpec::paper(), SequenceKind::kRps);
  EXPECT_EQ(mlc_dev.read({0, 0, {0, PageType::kCsb}}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(mlc_dev.can_program({0, 0, {0, PageType::kCsb}}).code(), ErrorCode::kOutOfRange);
}

TEST(TlcDeviceModel, FpsDeviceRejectsRpsOnlyOrders) {
  NandDevice dev(tiny_geometry(), TimingSpec::tlc(), SequenceKind::kFps);
  ASSERT_TRUE(dev.program({0, 0, {0, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.program({0, 0, {1, PageType::kLsb}}, {}, 0).is_ok());
  ASSERT_TRUE(dev.program({0, 0, {2, PageType::kLsb}}, {}, 0).is_ok());
  // LSB(3) before MSB(0) violates T6 on a TLC-FPS device.
  EXPECT_EQ(dev.program({0, 0, {3, PageType::kLsb}}, {}, 0).code(),
            ErrorCode::kSequenceViolation);
}

}  // namespace
}  // namespace rps::nand
