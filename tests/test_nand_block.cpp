#include "src/nand/block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/ftl/page_ftl.hpp"
#include "src/nand/device.hpp"
#include "src/util/random.hpp"

namespace rps::nand {
namespace {

PageData make_data(Lpn lpn, std::uint64_t sig) {
  PageData d;
  d.lpn = lpn;
  d.signature = sig;
  return d;
}

TEST(PageData, XorIsInvolution) {
  // Records and payloads XOR together; the shorter payload zero-extends.
  const PageImage a{make_data(5, 0xdeadbeef), {1, 2, 3}};
  const PageImage b{make_data(9, 0xfeedface), {4, 5}};
  PageImage acc = a;
  acc.xor_with(b);
  acc.xor_with(b);
  EXPECT_EQ(acc, a);
}

TEST(PageData, XorRecoversMissingPage) {
  // The parity-recovery primitive: parity ^ (all but one) == the one.
  PageData pages[3] = {make_data(1, 111), make_data(2, 222), make_data(3, 333)};
  PageData parity;
  parity.lpn = 0;
  for (const PageData& p : pages) parity.xor_with(p);
  PageData recovered = parity;
  recovered.xor_with(pages[0]);
  recovered.xor_with(pages[2]);
  EXPECT_EQ(recovered.lpn, pages[1].lpn);
  EXPECT_EQ(recovered.signature, pages[1].signature);
}

TEST(Block, ProgramReadRoundTrip) {
  Block b(4, SequenceKind::kRps);
  EXPECT_TRUE(b.program({0, PageType::kLsb}, make_data(7, 42)).is_ok());
  const Result<PageData> read = b.read({0, PageType::kLsb});
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().lpn, 7u);
  EXPECT_EQ(read.value().signature, 42u);
}

TEST(Block, LpnHintSensesNothing) {
  // The GC scan's prefetch hint: the slot's LPN field in any state,
  // without the read count that peek() and read() charge.
  Block b(4, SequenceKind::kRps, 3);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, make_data(7, 42)).is_ok());
  ASSERT_TRUE(b.program({1, PageType::kLsb}, make_data(8, 43)).is_ok());
  b.corrupt({1, PageType::kLsb});
  const auto hint = [&](PagePos pos) { return b.lpn_hint(pos.flat_index(3)); };
  EXPECT_EQ(hint({0, PageType::kLsb}), 7u);
  EXPECT_EQ(hint({1, PageType::kLsb}), kInvalidLpn);  // corrupted
  EXPECT_EQ(hint({0, PageType::kCsb}), kInvalidLpn);  // not programmed
  EXPECT_EQ(b.reads_since_erase(), 0u);
  EXPECT_NE(b.peek({0, PageType::kLsb}), nullptr);
  EXPECT_EQ(b.reads_since_erase(), 1u);
  b.erase();
  EXPECT_EQ(hint({0, PageType::kLsb}), kInvalidLpn);
}

TEST(Block, ReadErasedPage) {
  Block b(4, SequenceKind::kRps);
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kNotProgrammed);
  EXPECT_EQ(b.read({9, PageType::kLsb}).code(), ErrorCode::kOutOfRange);
}

TEST(Block, EnforcesSequence) {
  Block b(4, SequenceKind::kFps);
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
  EXPECT_EQ(b.programmed_pages(), 0u);  // failed program changes nothing
}

TEST(Block, FullLifecycleUnderRpsFull) {
  const std::uint32_t wl = 8;
  Block b(wl, SequenceKind::kRps);
  for (const PagePos pos : rps_full_order(wl)) {
    EXPECT_TRUE(b.program(pos, make_data(pos.flat_index(), 1)).is_ok());
  }
  EXPECT_TRUE(b.is_fully_programmed());
  EXPECT_EQ(b.programmed_in_pass(PageType::kLsb), wl);
  EXPECT_EQ(b.programmed_in_pass(PageType::kMsb), wl);
  EXPECT_FALSE(b.next_lsb().has_value());
  EXPECT_FALSE(b.next_in_pass(PageType::kMsb).has_value());
}

TEST(Block, EraseResetsEverythingAndCountsWear) {
  Block b(2, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, make_data(1, 1)).is_ok());
  EXPECT_EQ(b.erase_count(), 0u);
  b.erase();
  EXPECT_EQ(b.erase_count(), 1u);
  EXPECT_TRUE(b.is_erased());
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kNotProgrammed);
  b.erase();
  EXPECT_EQ(b.erase_count(), 2u);
}

TEST(Block, NextLsbTracksFrontier) {
  Block b(3, SequenceKind::kRps);
  ASSERT_TRUE(b.next_lsb().has_value());
  EXPECT_EQ(b.next_lsb()->wordline, 0u);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.next_lsb()->wordline, 1u);
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.program({2, PageType::kLsb}, {}).is_ok());
  EXPECT_FALSE(b.next_lsb().has_value());
}

TEST(Block, NextMsbRespectsConstraint3) {
  Block b(3, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  // MSB(0) needs LSB(1) first.
  EXPECT_FALSE(b.next_in_pass(PageType::kMsb).has_value());
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.next_in_pass(PageType::kMsb).has_value());
  EXPECT_EQ(b.next_in_pass(PageType::kMsb)->wordline, 0u);
  ASSERT_TRUE(b.program({0, PageType::kMsb}, {}).is_ok());
  EXPECT_FALSE(b.next_in_pass(PageType::kMsb).has_value());  // MSB(1) needs LSB(2)
}

TEST(Block, CorruptMakesPageUnreadable) {
  Block b(2, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, make_data(3, 3)).is_ok());
  b.corrupt({0, PageType::kLsb});
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_EQ(b.page_state({0, PageType::kLsb}), PageState::kCorrupted);
  // Still counts as programmed for ordering purposes.
  EXPECT_TRUE(b.is_programmed({0, PageType::kLsb}));
}

TEST(Block, CorruptErasedPageIsNoOp) {
  Block b(2, SequenceKind::kRps);
  b.corrupt({1, PageType::kLsb});
  EXPECT_EQ(b.page_state({1, PageType::kLsb}), PageState::kErased);
}

TEST(Block, SlcModeAllowsConsecutiveLsbOnFpsDevice) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  EXPECT_TRUE(b.slc_mode());
  for (std::uint32_t wl = 0; wl < 4; ++wl) {
    EXPECT_TRUE(b.program({wl, PageType::kLsb}, {}).is_ok()) << wl;
  }
  // MSB programs are rejected in SLC mode.
  EXPECT_EQ(b.program({0, PageType::kMsb}, {}).code(), ErrorCode::kSequenceViolation);
}

TEST(Block, SlcModeRequiresErasedBlock) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.set_slc_mode().code(), ErrorCode::kNotErased);
}

TEST(Block, EraseClearsSlcMode) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  b.erase();
  EXPECT_FALSE(b.slc_mode());
  // Back in MLC mode: FPS constraint 4 applies again.
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
}

TEST(Block, SlcLsbOrderStillEnforced) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
}

TEST(PayloadTable, EntryLivesExactlyAsLongAsAPageCarriesIt) {
  NandDevice dev(Geometry::tiny(), TimingSpec::paper(), SequenceKind::kRps);
  const PageData d = make_data(3, 0xabc);
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  {
    const PayloadPin pin(dev.payloads(), d.signature, bytes);
    ASSERT_TRUE(dev.program({0, 0, {0, PageType::kLsb}}, d, 0).is_ok());
  }
  ASSERT_EQ(dev.payloads().size(), 1u);  // the page holds it past the pin
  // A copy of the record (a GC relocation) shares the bytes.
  ASSERT_TRUE(dev.program({1, 0, {0, PageType::kLsb}}, d, 0).is_ok());
  EXPECT_TRUE(std::ranges::equal(dev.payloads().find(d.signature), bytes));

  ASSERT_TRUE(dev.erase({0, 0}, dev.all_idle_at()).is_ok());
  EXPECT_TRUE(dev.block({0, 0}).is_erased());  // applies the lazy erase
  EXPECT_EQ(dev.payloads().size(), 1u);        // the copy still carries it
  ASSERT_TRUE(dev.erase({1, 0}, dev.all_idle_at()).is_ok());
  EXPECT_TRUE(dev.block({1, 0}).is_erased());
  EXPECT_TRUE(dev.payloads().empty());
}

TEST(PayloadTable, FailedProgramLeavesNoEntry) {
  NandDevice dev(Geometry::tiny(), TimingSpec::paper(), SequenceKind::kRps);
  const PageData d = make_data(3, 0xabc);
  {
    const PayloadPin pin(dev.payloads(), d.signature, std::vector<std::uint8_t>{7});
    // MSB before its paired LSB: rejected.
    EXPECT_FALSE(dev.program({0, 0, {0, PageType::kMsb}}, d, 0).is_ok());
  }
  EXPECT_TRUE(dev.payloads().empty());
}

TEST(PayloadTable, CorruptedPageWithoutParityCoverIsUncorrectable) {
  // pageFTL keeps no parity: a power cut through a payload write's
  // program destroys it for good, payload and all.
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Result<ftl::HostOp> op = ftl.write_data(0, {9, 8, 7}, 0);
  ASSERT_TRUE(op.is_ok());
  ASSERT_FALSE(ftl.device().inject_power_loss(op.value().complete - 1).empty());
  EXPECT_EQ(ftl.read_data(0, ftl.device().all_idle_at()).code(),
            ErrorCode::kEccUncorrectable);
  EXPECT_TRUE(ftl.device().payloads().empty());
}

TEST(PayloadTable, RunWithoutPayloadsLeavesTableEmpty) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn span = ftl.exported_pages();
  Rng rng(0x9a71);
  for (Lpn i = 0; i < 4 * span; ++i) {
    const Lpn lpn = i < span ? i : rng.next_below(span);
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  EXPECT_GT(ftl.stats().gc_copy_pages, 0u);
  EXPECT_TRUE(ftl.device().payloads().empty());
}

}  // namespace
}  // namespace rps::nand
