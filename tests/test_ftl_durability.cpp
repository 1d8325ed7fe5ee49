// Durability features layered on the FTL framework: TRIM/discard,
// OOB-based mapping reconstruction after a reboot, wear statistics, and a
// property sweep that cuts power at many different instants and checks
// that flexFTL's recovery never loses acknowledged data.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/ftl/parity_ftl.hpp"
#include "src/ftl/rtf_ftl.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps {
namespace {

TEST(Trim, DropsMappingAndFreesThePage) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  ASSERT_TRUE(ftl.write(7, 0).is_ok());
  const nand::PageAddress addr = ftl.mapping().lookup(7).value();
  const std::uint32_t valid_before = ftl.blocks().valid_pages({addr.chip, addr.block});
  ASSERT_TRUE(ftl.trim(7).is_ok());
  EXPECT_FALSE(ftl.mapping().is_mapped(7));
  EXPECT_EQ(ftl.blocks().valid_pages({addr.chip, addr.block}), valid_before - 1);
  // Subsequent reads are zero-fill.
  const Result<ftl::HostOp> read = ftl.read(7, 1000);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().complete, 1000);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(Trim, IdempotentAndRangeChecked) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  EXPECT_TRUE(ftl.trim(3).is_ok());  // never written: no-op
  EXPECT_TRUE(ftl.trim(3).is_ok());
  EXPECT_EQ(ftl.trim(ftl.exported_pages()).code(), ErrorCode::kOutOfRange);
}

TEST(Trim, TrimmedSpaceIsReclaimableByGc) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  // Trim half the space, then write far more than the untrimmed share
  // could hold: GC must harvest the trimmed pages.
  for (Lpn lpn = 0; lpn < n; lpn += 2) ASSERT_TRUE(ftl.trim(lpn).is_ok());
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.write(1 + 2 * rng.next_below(n / 2), 0).is_ok()) << i;
  }
  EXPECT_TRUE(ftl.check_consistency());
}

class RebuildMapping : public ::testing::TestWithParam<sim::FtlKind> {};

TEST_P(RebuildMapping, MediaScanReconstructsTheTable) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  auto ftl = sim::make_ftl(GetParam(), config);
  const Lpn n = ftl->exported_pages();
  Rng rng(11);
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl->write(lpn, 0, 0.5).is_ok());
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(ftl->write(rng.next_below(n), 0, 0.5).is_ok());
  }
  std::vector<bool> trimmed(n, false);
  for (int i = 0; i < 30; ++i) {
    const Lpn lpn = rng.next_below(n);
    ASSERT_TRUE(ftl->trim(lpn).is_ok());
    trimmed[lpn] = true;
  }

  // Snapshot the live table, then reconstruct from the media alone.
  std::vector<std::optional<nand::PageAddress>> before(n);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const Result<nand::PageAddress> addr = ftl->mapping().lookup(lpn);
    if (addr.is_ok()) before[lpn] = addr.value();
  }
  ftl->rebuild_mapping();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const Result<nand::PageAddress> addr = ftl->mapping().lookup(lpn);
    if (before[lpn].has_value()) {
      ASSERT_TRUE(addr.is_ok()) << "lpn " << lpn << " lost by rebuild";
      // A partially relocated victim can leave two identical copies of an
      // LPN on the media; rebuild may pick either. Content must match.
      const nand::PageData rebuilt =
          ftl->device().block({addr.value().chip, addr.value().block})
              .read(addr.value().pos).value();
      const nand::PageData live =
          ftl->device().block({before[lpn]->chip, before[lpn]->block})
              .read(before[lpn]->pos).value();
      EXPECT_EQ(rebuilt.signature, live.signature) << "lpn " << lpn;
      EXPECT_EQ(rebuilt.version, live.version) << "lpn " << lpn;
    } else if (!trimmed[lpn]) {
      // TRIM is volatile (no trim journal is modeled): rebuild may
      // resurrect trimmed data, but never-written pages must stay unmapped.
      EXPECT_FALSE(addr.is_ok()) << "lpn " << lpn << " resurrected by rebuild";
    }
  }
  EXPECT_TRUE(ftl->check_consistency());
}

INSTANTIATE_TEST_SUITE_P(Kinds, RebuildMapping,
                         ::testing::Values(sim::FtlKind::kPage, sim::FtlKind::kParity,
                                           sim::FtlKind::kRtf, sim::FtlKind::kFlex),
                         [](const auto& info) { return sim::to_string(info.param); });

TEST(RebuildMappingBehaviour, NewestVersionWinsOverStaleCopies) {
  // Force a GC relocation so two physical copies of an LPN coexist is
  // hard to freeze; instead overwrite an LPN repeatedly and check rebuild
  // lands on the newest copy the live table also points to.
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ftl.write(5, 0).is_ok());
  const nand::PageAddress live = ftl.mapping().lookup(5).value();
  ftl.rebuild_mapping();
  EXPECT_EQ(ftl.mapping().lookup(5).value(), live);
}

/// Exposes FtlBase::collect_block, so a test can stop a GC scan part-way.
template <class Ftl>
class ScanFtl : public Ftl {
 public:
  using Ftl::Ftl;
  using ftl::FtlBase::collect_block;
};

// A cut that destroys a GC copy revives its source page: the reboot maps
// the LPN back to it (flexFTL's roll-back, the other FTLs' mapping
// rebuild). A budget-capped scan of the source block may already have
// passed that page, so the reboot must rewind the scan, or the block
// keeps a valid page no scan reaches and can never be collected.
template <class Ftl>
void expect_revived_page_collectable(sim::FtlKind kind) {
  SCOPED_TRACE(sim::to_string(kind));
  ScanFtl<Ftl> ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(n), ftl.device().all_idle_at(), 0.5).is_ok());
  }
  // A full block on unit 0 whose first two live pages, in scan order, sit
  // on different word lines.
  const std::uint32_t bits = ftl.device().geometry().bits_per_cell;
  std::optional<nand::PageAddress> first;
  for (std::uint32_t b = 0; b < ftl.device().visible_blocks() && !first; ++b) {
    if (ftl.blocks().use({0, b}) != ftl::BlockUse::kFull) continue;
    const nand::Block& block = ftl.device().block({0, b});
    std::vector<nand::PageAddress> live;
    for (std::uint32_t wl = 0; wl < block.wordlines() && live.size() < 2; ++wl) {
      for (std::uint32_t pass = 0; pass < bits && live.size() < 2; ++pass) {
        const nand::PageAddress addr{0, b, {wl, nand::type_of_pass(pass, bits)}};
        if (block.page_state(addr.pos) != nand::PageState::kValid) continue;
        if (ftl.mapping().maps_to(block.record(addr.pos).lpn, addr)) live.push_back(addr);
      }
    }
    if (live.size() == 2 && live[0].pos.wordline < live[1].pos.wordline) first = live[0];
  }
  ASSERT_TRUE(first.has_value());
  const nand::BlockAddress victim{0, first->block};
  const Lpn lpn = ftl.device().block(victim).record(first->pos).lpn;

  // Relocate one page and stop: the scan cursor moves past `first`.
  ASSERT_FALSE(ftl.collect_block(0, victim.block, ftl.device().all_idle_at(), kTimeNever,
                                 /*background=*/false, /*max_copies=*/1));
  ASSERT_FALSE(ftl.mapping().maps_to(lpn, *first));
  // Cut while the copy programs; the reboot revives `first`.
  const Microseconds cut = ftl.device().chip(0).busy_until() - 1;
  const std::vector<nand::PowerLossVictim> victims = ftl.device().inject_power_loss(cut);
  (void)sim::crash_reboot(kind, ftl, victims, cut);
  ASSERT_TRUE(ftl.mapping().maps_to(lpn, *first));

  EXPECT_TRUE(ftl.collect_block(0, victim.block, ftl.device().all_idle_at(), kTimeNever,
                                /*background=*/false));
  EXPECT_EQ(ftl.blocks().valid_pages(victim), 0u);
  EXPECT_TRUE(ftl.check_consistency());
}

TEST(RebootGcCursor, RevivedPageStaysCollectable) {
  expect_revived_page_collectable<ftl::PageFtl>(sim::FtlKind::kPage);
  expect_revived_page_collectable<core::FlexFtl>(sim::FtlKind::kFlex);
}

TEST(WearStats, TracksEraseDistribution) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  for (Lpn lpn = 0; lpn < n; ++lpn) ASSERT_TRUE(ftl.write(lpn, 0).is_ok());
  Rng rng(5);
  for (int i = 0; i < 6000; ++i) ASSERT_TRUE(ftl.write(rng.next_below(n), 0).is_ok());
  const obs::WearSummary wear = obs::collect_wear(ftl.device());
  EXPECT_GT(wear.max_erases, 0u);
  EXPECT_GE(wear.max_erases, wear.min_erases);
  EXPECT_GT(wear.mean_erases, 0.0);
  // FIFO free-list recycling keeps wear reasonably even under uniform
  // overwrites: the spread should stay within a few erase cycles.
  EXPECT_LE(wear.max_erases - wear.min_erases, wear.mean_erases + 6.0);
}

TEST(WearStats, FreshDeviceIsZero) {
  const nand::NandDevice dev(nand::Geometry::tiny(), nand::TimingSpec::zero(),
                             nand::SequenceKind::kRps);
  const obs::WearSummary wear = obs::collect_wear(dev);
  EXPECT_EQ(wear.min_erases, 0u);
  EXPECT_EQ(wear.max_erases, 0u);
  EXPECT_EQ(wear.mean_erases, 0.0);
}

// Property sweep: whatever instant the power fails at, flexFTL recovery
// must leave every *acknowledged* page readable with its original
// signature (in-flight, unacknowledged writes may vanish).
class PowerLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(PowerLossSweep, NoAcknowledgedDataLost) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.channels = 1;
  config.geometry.chips_per_channel = 2;
  config.geometry.wordlines_per_block = 8;
  core::FlexFtl ftl(config);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

  // Mixed traffic: bursts (LSB) and lulls (MSB) so both phases are live.
  const Lpn n = ftl.exported_pages();
  std::vector<std::uint64_t> acknowledged_sig(n, 0);
  std::vector<Microseconds> acknowledged_at(n, kTimeNever);
  Microseconds now = 0;
  for (int i = 0; i < 300; ++i) {
    const Lpn lpn = rng.next_below(n / 2);
    const double u = rng.chance(0.5) ? 0.95 : 0.02;
    const Result<ftl::HostOp> op = ftl.write(lpn, now, u);
    ASSERT_TRUE(op.is_ok());
    // Record what the device itself stored (the signature is generated
    // inside write()); treat the write as acknowledged at completion.
    const nand::PageAddress addr = ftl.mapping().lookup(lpn).value();
    acknowledged_sig[lpn] =
        ftl.device().block({addr.chip, addr.block}).read(addr.pos).value().signature;
    acknowledged_at[lpn] = op.value().complete;
    now += rng.next_below(800);
  }

  // Cut power at a parameterized instant inside the active window.
  const Microseconds horizon = ftl.device().all_idle_at();
  const Microseconds cut = horizon * (GetParam() % 97 + 1) / 98;
  const auto victims = ftl.device().inject_power_loss(cut);
  const core::RecoveryReport report = ftl.recover_from_power_loss(victims, horizon);
  (void)report;

  // Every page acknowledged strictly before the cut must read back intact.
  const Microseconds check_at = ftl.device().all_idle_at();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    if (acknowledged_at[lpn] > cut) continue;
    const Result<nand::PageImage> data = ftl.read_data(lpn, check_at);
    ASSERT_TRUE(data.is_ok())
        << "lpn " << lpn << " lost (cut at " << cut << ", seed " << GetParam() << ")";
    EXPECT_EQ(data.value().record.signature, acknowledged_sig[lpn]) << "lpn " << lpn;
  }
  EXPECT_TRUE(ftl.check_consistency());
}

INSTANTIATE_TEST_SUITE_P(CutInstants, PowerLossSweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace rps
