// Differential testing: every FTL, whatever its allocation policy, is a
// correct page store. Running the identical operation sequence through all
// five implementations must produce identical logical contents — any
// divergence is a mapping/GC/backup bug in one of them. Also sweeps the
// geometry so block/page-count edge cases (tiny blocks, single channel,
// many chips) are all exercised.
#include <gtest/gtest.h>

#include <utility>

#include "src/controller/controller.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps {
namespace {

struct Op {
  bool is_write;
  Lpn lpn;
  std::uint64_t tag;  // payload identity
};

std::vector<Op> make_ops(Lpn space, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(Op{rng.chance(0.7), rng.next_below(space), i});
  }
  return ops;
}

std::vector<std::uint8_t> payload_of(std::uint64_t tag) {
  return {static_cast<std::uint8_t>(tag), static_cast<std::uint8_t>(tag >> 8),
          static_cast<std::uint8_t>(tag >> 16)};
}

/// Apply the op sequence and return the logical image (one tag per LPN;
/// SIZE_MAX for never-written).
std::vector<std::uint64_t> apply_and_extract(sim::FtlKind kind,
                                             const ftl::FtlConfig& config,
                                             const std::vector<Op>& ops, Lpn space) {
  auto ftl = sim::make_ftl(kind, config);
  EXPECT_GE(ftl->exported_pages(), space);
  Rng urng(99);
  for (const Op& op : ops) {
    if (op.is_write) {
      EXPECT_TRUE(ftl->write_data(op.lpn, payload_of(op.tag), 0, urng.next_double())
                      .is_ok());
    } else {
      (void)ftl->read(op.lpn, 0);
    }
  }
  EXPECT_TRUE(ftl->check_consistency());
  std::vector<std::uint64_t> image(space, SIZE_MAX);
  for (Lpn lpn = 0; lpn < space; ++lpn) {
    const Result<nand::PageImage> data = ftl->read_data(lpn, 0);
    if (!data.is_ok()) continue;
    const std::vector<std::uint8_t>& b = data.value().bytes;
    EXPECT_EQ(b.size(), 3u) << "lpn " << lpn;
    image[lpn] = static_cast<std::uint64_t>(b[0]) |
                 (static_cast<std::uint64_t>(b[1]) << 8) |
                 (static_cast<std::uint64_t>(b[2]) << 16);
  }
  return image;
}

TEST(Differential, AllFtlsAgreeOnLogicalContents) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  // slcFTL exports half the space: size the op stream for the smallest.
  const Lpn space = 150;
  const std::vector<Op> ops = make_ops(space, 4000, 11);

  const std::vector<std::uint64_t> reference =
      apply_and_extract(sim::FtlKind::kPage, config, ops, space);
  for (const sim::FtlKind kind : {sim::FtlKind::kParity, sim::FtlKind::kRtf,
                                  sim::FtlKind::kFlex, sim::FtlKind::kSlc}) {
    const std::vector<std::uint64_t> image = apply_and_extract(kind, config, ops, space);
    EXPECT_EQ(image, reference) << sim::to_string(kind);
  }
}

using Placement = std::pair<Lpn, nand::PageAddress>;

/// Replay a single-page QD-1 trace and record every physical placement the
/// FTL commits (host writes and GC relocations alike), either through the
/// legacy synchronous entry points or through the controller.
std::vector<Placement> qd1_placements(sim::FtlKind kind,
                                      const ftl::FtlConfig& config,
                                      const std::vector<Op>& ops,
                                      bool through_controller) {
  auto ftl = sim::make_ftl(kind, config);
  std::vector<Placement> placements;
  ftl->set_placement_observer([&](Lpn lpn, const nand::PageAddress& addr) {
    placements.push_back({lpn, addr});
  });
  ctrl::Controller controller(*ftl);
  Rng urng(99);
  for (const Op& op : ops) {
    // QD-1: each command issues only once the device is fully idle, so the
    // controller's idle-chip constraint admits every chip — the policy sees
    // exactly the choice set the legacy path gives it.
    const Microseconds now = ftl->device().all_idle_at();
    if (through_controller) {
      ctrl::HostCommand cmd;
      cmd.kind = op.is_write ? ctrl::CmdKind::kWrite : ctrl::CmdKind::kRead;
      cmd.lpn = op.lpn;
      cmd.page_count = 1;
      cmd.issue = now;
      if (op.is_write) cmd.buffer_utilization = urng.next_double();
      const ctrl::CommandResult r = controller.execute(cmd);
      EXPECT_TRUE(r.ok);
    } else {
      if (op.is_write) {
        EXPECT_TRUE(ftl->write(op.lpn, now, urng.next_double()).is_ok());
      } else {
        (void)ftl->read(op.lpn, now);
      }
    }
  }
  EXPECT_TRUE(ftl->check_consistency());
  return placements;
}

// The controller layer must be a pure re-plumbing for queue-depth-1 traffic:
// with every chip idle at issue, striping constrains nothing, and each
// allocator must place every page exactly where the legacy synchronous path
// would have. Any divergence means the refactor changed policy, not just
// scheduling.
TEST(Differential, ControllerMatchesLegacyPlacementsAtQd1) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  const Lpn space = 150;
  const std::vector<Op> ops = make_ops(space, 3000, 23);
  for (const sim::FtlKind kind : {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                  sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                  sim::FtlKind::kSlc}) {
    const std::vector<Placement> legacy =
        qd1_placements(kind, config, ops, /*through_controller=*/false);
    const std::vector<Placement> controller =
        qd1_placements(kind, config, ops, /*through_controller=*/true);
    ASSERT_FALSE(legacy.empty()) << sim::to_string(kind);
    EXPECT_EQ(controller, legacy) << sim::to_string(kind);
  }
}

// gtest names each case with a byte dump of this struct. The geometry
// leads so that the bytes a case name starts with do not depend on where
// the linker placed the name string.
struct SweepGeometry {
  nand::Geometry geometry;
  const char* name;
};

class GeometrySweep : public ::testing::TestWithParam<SweepGeometry> {};

TEST_P(GeometrySweep, EveryFtlSurvivesAndStaysConsistent) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry = GetParam().geometry;
  config.rtf_active_blocks = 2;
  // Extreme shapes have few blocks per chip; the fixed overheads (active +
  // backup + GC reserve) need generous spare space to leave GC headroom.
  config.overprovisioning = 0.45;
  for (const sim::FtlKind kind : {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                  sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                  sim::FtlKind::kSlc}) {
    auto ftl = sim::make_ftl(kind, config);
    const Lpn n = ftl->exported_pages();
    ASSERT_GT(n, 0u) << sim::to_string(kind);
    for (Lpn lpn = 0; lpn < n; ++lpn) {
      ASSERT_TRUE(ftl->write(lpn, 0, 0.5).is_ok())
          << sim::to_string(kind) << " fill " << lpn;
    }
    Rng rng(5);
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(ftl->write(rng.next_below(n), 0, rng.next_double()).is_ok())
          << sim::to_string(kind) << " overwrite " << i;
      if (i % 300 == 299) {
        const Microseconds t = ftl->device().all_idle_at();
        ftl->on_idle(t, t + 5'000'000);
      }
    }
    EXPECT_TRUE(ftl->check_consistency()) << sim::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(
        SweepGeometry{{.channels = 1, .chips_per_channel = 1, .blocks_per_chip = 24,
                       .wordlines_per_block = 8, .page_size_bytes = 512,
                       .spare_bytes = 16},
                      "SingleChip"},
        SweepGeometry{{.channels = 4, .chips_per_channel = 4, .blocks_per_chip = 8,
                       .wordlines_per_block = 4, .page_size_bytes = 512,
                       .spare_bytes = 16},
                      "ManySmallChips"},
        SweepGeometry{{.channels = 1, .chips_per_channel = 2, .blocks_per_chip = 10,
                       .wordlines_per_block = 32, .page_size_bytes = 512,
                       .spare_bytes = 16},
                      "TallBlocks"},
        SweepGeometry{{.channels = 2, .chips_per_channel = 1, .blocks_per_chip = 24,
                       .wordlines_per_block = 2, .page_size_bytes = 512,
                       .spare_bytes = 16},
                      "TwoWordlines"},
        SweepGeometry{{.channels = 2, .chips_per_channel = 1, .planes_per_chip = 2,
                       .blocks_per_chip = 12, .wordlines_per_block = 8,
                       .page_size_bytes = 512, .spare_bytes = 16},
                      "TwoPlanes"},
        SweepGeometry{{.channels = 1, .chips_per_channel = 2, .planes_per_chip = 4,
                       .blocks_per_chip = 8, .wordlines_per_block = 4,
                       .page_size_bytes = 512, .spare_bytes = 16},
                      "FourPlanes"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace rps
