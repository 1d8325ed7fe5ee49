#include "src/nand/chip.hpp"

#include <gtest/gtest.h>

namespace rps::nand {
namespace {

Chip make_chip(std::uint32_t blocks = 4, std::uint32_t wordlines = 4) {
  return Chip(blocks, wordlines, SequenceKind::kRps, TimingSpec::paper());
}

TEST(Chip, ProgramLatencyByPageType) {
  Chip chip = make_chip();
  const Result<OpTiming> lsb = chip.program(0, {0, PageType::kLsb}, {}, 0);
  ASSERT_TRUE(lsb.is_ok());
  EXPECT_EQ(lsb.value().start, 0);
  EXPECT_EQ(lsb.value().busy_time(), 500);

  const Result<OpTiming> lsb1 = chip.program(0, {1, PageType::kLsb}, {}, 0);
  ASSERT_TRUE(lsb1.is_ok());
  EXPECT_EQ(lsb1.value().start, 500);  // serialized behind the first program

  const Result<OpTiming> msb = chip.program(0, {0, PageType::kMsb}, {}, 0);
  ASSERT_TRUE(msb.is_ok());
  EXPECT_EQ(msb.value().busy_time(), 2000);
  EXPECT_EQ(chip.busy_until(), 500 + 500 + 2000);
}

TEST(Chip, LaterIssueTimeDelaysStart) {
  Chip chip = make_chip();
  const Result<OpTiming> op = chip.program(0, {0, PageType::kLsb}, {}, 10'000);
  ASSERT_TRUE(op.is_ok());
  EXPECT_EQ(op.value().start, 10'000);
  EXPECT_EQ(chip.busy_until(), 10'500);
}

TEST(Chip, RejectedProgramLeavesTimelineUntouched) {
  Chip chip = make_chip();
  const Result<OpTiming> bad = chip.program(0, {0, PageType::kMsb}, {}, 0);
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(chip.busy_until(), 0);
  EXPECT_EQ(chip.counters().programs(), 0u);
}

TEST(Chip, ReadsQueueBehindPrograms) {
  Chip chip(4, 4, SequenceKind::kRps, TimingSpec::paper());
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  const auto read = chip.sense(0, {0, PageType::kLsb}, 100);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().timing.start, 500);  // waits for the program
}

TEST(Chip, ReadTimingAndData) {
  Chip chip = make_chip();
  PageData d;
  d.lpn = 3;
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, d, 0).is_ok());
  const Result<Chip::SenseOutcome> read = chip.sense(0, {0, PageType::kLsb}, 600);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().timing.busy_time(), 40);
  ASSERT_TRUE(read.value().status.is_ok());
  EXPECT_EQ(chip.block(0).record({0, PageType::kLsb}).lpn, 3u);
}

TEST(Chip, Counters) {
  Chip chip = make_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {1, PageType::kLsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {0, PageType::kMsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.sense(0, {0, PageType::kLsb}, 0).is_ok());
  ASSERT_TRUE(chip.erase(1, 0).is_ok());
  EXPECT_EQ(chip.counters().lsb_programs, 2u);
  EXPECT_EQ(chip.counters().msb_programs, 1u);
  EXPECT_EQ(chip.counters().reads, 1u);
  EXPECT_EQ(chip.counters().erases, 1u);
  EXPECT_EQ(chip.total_erase_count(), 1u);
}

TEST(Chip, EraseTiming) {
  Chip chip = make_chip();
  const Result<OpTiming> erase = chip.erase(0, 100);
  ASSERT_TRUE(erase.is_ok());
  EXPECT_EQ(erase.value().busy_time(), TimingSpec::paper().erase_us);
}

TEST(Chip, InFlightProgramTracking) {
  Chip chip = make_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());  // [0, 500)
  EXPECT_TRUE(chip.program_in_flight_at(0).has_value());
  EXPECT_TRUE(chip.program_in_flight_at(499).has_value());
  EXPECT_FALSE(chip.program_in_flight_at(500).has_value());
  const auto hit = chip.program_in_flight_at(250);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pos, (PagePos{0, PageType::kLsb}));
}

TEST(Chip, PowerLossDuringMsbDestroysPairedLsb) {
  Chip chip = make_chip();
  PageData lsb_data;
  lsb_data.lpn = 77;
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, lsb_data, 0).is_ok());
  ASSERT_TRUE(chip.program(0, {1, PageType::kLsb}, {}, 0).is_ok());
  // MSB(0) in flight during [1000, 3000).
  ASSERT_TRUE(chip.program(0, {0, PageType::kMsb}, {}, 0).is_ok());

  const auto victim = chip.apply_power_loss(1500);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->pos, (PagePos{0, PageType::kMsb}));
  // Both the interrupted MSB page and its paired LSB page lost their data.
  EXPECT_EQ(chip.block(0).read({0, PageType::kMsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_EQ(chip.block(0).read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  // The neighbor LSB page survives.
  EXPECT_TRUE(chip.block(0).read({1, PageType::kLsb}).is_ok());
}

TEST(Chip, PowerLossDuringLsbOnlyKillsThatPage) {
  Chip chip = make_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  const auto victim = chip.apply_power_loss(100);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->pos, (PagePos{0, PageType::kLsb}));
  EXPECT_EQ(chip.block(0).read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
}

TEST(Chip, PowerLossWhileIdleHitsNothing) {
  Chip chip = make_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  EXPECT_FALSE(chip.apply_power_loss(600).has_value());
  EXPECT_TRUE(chip.block(0).read({0, PageType::kLsb}).is_ok());
}

TEST(Chip, BusyTimeAccumulates) {
  Chip chip = make_chip();
  ASSERT_TRUE(chip.program(0, {0, PageType::kLsb}, {}, 0).is_ok());
  ASSERT_TRUE(chip.sense(0, {0, PageType::kLsb}, 1'000'000).is_ok());
  EXPECT_EQ(chip.busy_time_total(), 540);
}

}  // namespace
}  // namespace rps::nand
