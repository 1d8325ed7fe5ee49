// Snapshot round-trip lockdown (src/sim/snapshot.hpp).
//
// The serializer's contract is: capture → restore into a fresh same-config
// FTL → capture again must produce the identical canonical byte stream
// (equal digests), and the restored instance must be behaviorally
// indistinguishable — the same post-restore op sequence drives both
// instances to the same state. Property-tested over all five MLC FTLs x
// planes 1/2/4, flexFTL on TLC, and across a file save/load boundary.
//
// GoldenDigests pins the capture digest of a fixed fill on the paper
// geometry (tests/data/snapshot_digests_paper.txt): any change to the
// snapshot encoding, the FTL placement logic, or the device model shows
// up as a digest mismatch and must come with a version bump + new goldens.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/random.hpp"

namespace rps::sim {
namespace {

constexpr FtlKind kKinds[] = {FtlKind::kPage, FtlKind::kParity, FtlKind::kRtf,
                              FtlKind::kFlex, FtlKind::kSlc};

ftl::FtlConfig planes_config(std::uint32_t planes) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.planes_per_chip = planes;
  return config;
}

/// Deterministic mixed fill: sequential cover of 60% of the exported
/// space, then random overwrites (enough to trigger GC on the tiny
/// device) — the state a trial would fork from.
void fill(ftl::FtlBase& ftl, std::uint64_t seed) {
  const Lpn span = ftl.exported_pages() * 6 / 10;
  for (Lpn lpn = 0; lpn < span; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    const Lpn lpn = rng.next_below(span);
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
}

struct Case {
  FtlKind kind;
  std::uint32_t planes;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(to_string(info.param.kind)) + "_planes" +
         std::to_string(info.param.planes);
}

class SnapshotRoundTrip : public testing::TestWithParam<Case> {};

TEST_P(SnapshotRoundTrip, RestoreReproducesDigest) {
  const Case param = GetParam();
  const ftl::FtlConfig config = planes_config(param.planes);
  std::unique_ptr<ftl::FtlBase> original = make_ftl(param.kind, config);
  fill(*original, 0xabcd + param.planes);

  const Snapshot snapshot = Snapshot::capture(*original);
  ASSERT_TRUE(snapshot.valid());
  EXPECT_EQ(snapshot.ftl_name(), original->name());

  std::unique_ptr<ftl::FtlBase> restored = make_ftl(param.kind, config);
  ASSERT_TRUE(snapshot.restore(*restored));
  EXPECT_TRUE(restored->check_consistency());
  EXPECT_EQ(Snapshot::capture(*restored).digest(), snapshot.digest());
}

TEST_P(SnapshotRoundTrip, RestoredInstanceIsBehaviorallyIdentical) {
  const Case param = GetParam();
  const ftl::FtlConfig config = planes_config(param.planes);
  std::unique_ptr<ftl::FtlBase> original = make_ftl(param.kind, config);
  fill(*original, 0x1234 + param.planes);
  const Snapshot snapshot = Snapshot::capture(*original);
  std::unique_ptr<ftl::FtlBase> restored = make_ftl(param.kind, config);
  ASSERT_TRUE(snapshot.restore(*restored));

  // Drive both instances through the same post-fork op sequence; every
  // divergence in placement, GC, timing, or read results would separate
  // the final digests.
  Rng rng(0x5555);
  const Lpn span = original->exported_pages();
  for (int i = 0; i < 400; ++i) {
    const Lpn lpn = rng.next_below(span);
    if (rng.chance(0.3)) {
      const Result<ftl::HostOp> a = original->read(lpn, original->device().all_idle_at());
      const Result<ftl::HostOp> b = restored->read(lpn, restored->device().all_idle_at());
      ASSERT_EQ(a.is_ok(), b.is_ok());
      if (a.is_ok()) ASSERT_EQ(a.value().complete, b.value().complete);
    } else {
      const Result<ftl::HostOp> a =
          original->write(lpn, original->device().all_idle_at(), 0.5);
      const Result<ftl::HostOp> b =
          restored->write(lpn, restored->device().all_idle_at(), 0.5);
      ASSERT_EQ(a.is_ok(), b.is_ok());
      if (a.is_ok()) ASSERT_EQ(a.value().complete, b.value().complete);
    }
  }
  EXPECT_EQ(Snapshot::capture(*original).digest(),
            Snapshot::capture(*restored).digest());
}

INSTANTIATE_TEST_SUITE_P(
    AllFtlsAllPlanes, SnapshotRoundTrip,
    testing::Values(Case{FtlKind::kPage, 1}, Case{FtlKind::kPage, 2},
                    Case{FtlKind::kPage, 4}, Case{FtlKind::kParity, 1},
                    Case{FtlKind::kParity, 2}, Case{FtlKind::kParity, 4},
                    Case{FtlKind::kRtf, 1}, Case{FtlKind::kRtf, 2},
                    Case{FtlKind::kRtf, 4}, Case{FtlKind::kFlex, 1},
                    Case{FtlKind::kFlex, 2}, Case{FtlKind::kFlex, 4},
                    Case{FtlKind::kSlc, 1}, Case{FtlKind::kSlc, 2},
                    Case{FtlKind::kSlc, 4}),
    case_name);

TEST(SnapshotTlc, RoundTripReproducesDigest) {
  const ftl::FtlConfig config = ftl::FtlConfig::tlc_tiny();
  core::FlexFtl original(config);
  const Lpn span = original.exported_pages() * 6 / 10;
  for (Lpn lpn = 0; lpn < span; ++lpn) {
    ASSERT_TRUE(original.write(lpn, original.device().all_idle_at(), 0.5).is_ok());
  }
  Rng rng(0x7c7c);
  for (int i = 0; i < 200; ++i) {
    const Lpn lpn = rng.next_below(span);
    ASSERT_TRUE(original.write(lpn, original.device().all_idle_at(), 0.5).is_ok());
  }

  const Snapshot snapshot = Snapshot::capture(original);
  ASSERT_TRUE(snapshot.valid());
  EXPECT_EQ(snapshot.ftl_name(), original.name());

  core::FlexFtl restored(config);
  ASSERT_TRUE(snapshot.restore(restored));
  EXPECT_TRUE(restored.check_consistency());
  EXPECT_EQ(Snapshot::capture(restored).digest(), snapshot.digest());

  // Same post-fork writes, same resulting state.
  for (int i = 0; i < 150; ++i) {
    const Lpn lpn = rng.next_below(span);
    const auto a = original.write(lpn, original.device().all_idle_at(), 0.5);
    const auto b = restored.write(lpn, restored.device().all_idle_at(), 0.5);
    ASSERT_EQ(a.is_ok(), b.is_ok());
    if (a.is_ok()) {
      ASSERT_EQ(a.value().complete, b.value().complete);
    }
  }
  EXPECT_EQ(Snapshot::capture(original).digest(),
            Snapshot::capture(restored).digest());
}

TEST(SnapshotFile, SaveLoadRoundTrip) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(FtlKind::kFlex, config);
  fill(*ftl, 0xf11e);
  const Snapshot snapshot = Snapshot::capture(*ftl);

  const std::string path = testing::TempDir() + "rps_snapshot_roundtrip.bin";
  ASSERT_TRUE(snapshot.save_file(path));
  const std::optional<Snapshot> loaded = Snapshot::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->digest(), snapshot.digest());

  std::unique_ptr<ftl::FtlBase> restored = make_ftl(FtlKind::kFlex, config);
  ASSERT_TRUE(loaded->restore(*restored));
  EXPECT_EQ(Snapshot::capture(*restored).digest(), snapshot.digest());
  std::remove(path.c_str());
}

TEST(SnapshotFile, TruncatedFileIsRejected) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(FtlKind::kPage, config);
  fill(*ftl, 0x7e57);
  const Snapshot snapshot = Snapshot::capture(*ftl);

  const std::string path = testing::TempDir() + "rps_snapshot_truncated.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(snapshot.bytes().data()),
              static_cast<std::streamsize>(snapshot.bytes().size() / 2));
  }
  EXPECT_FALSE(Snapshot::load_file(path).has_value());
  std::remove(path.c_str());
}

TEST(SnapshotValidation, CorruptedPayloadFailsChecksum) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(FtlKind::kParity, config);
  fill(*ftl, 0xbad);
  const Snapshot snapshot = Snapshot::capture(*ftl);

  std::vector<std::uint8_t> bytes = snapshot.bytes();
  bytes[bytes.size() / 2] ^= 0x01;  // one bit, middle of the payload
  const Snapshot corrupted = Snapshot::from_bytes(std::move(bytes));
  EXPECT_TRUE(corrupted.empty());

  std::unique_ptr<ftl::FtlBase> target = make_ftl(FtlKind::kParity, config);
  EXPECT_FALSE(corrupted.restore(*target));
}

TEST(SnapshotValidation, WrongFtlKindIsRejected) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  std::unique_ptr<ftl::FtlBase> page = make_ftl(FtlKind::kPage, config);
  fill(*page, 0x0dd);
  const Snapshot snapshot = Snapshot::capture(*page);

  std::unique_ptr<ftl::FtlBase> parity = make_ftl(FtlKind::kParity, config);
  EXPECT_FALSE(snapshot.restore(*parity));

  core::FlexFtl tlc(ftl::FtlConfig::tlc_tiny());
  EXPECT_FALSE(snapshot.restore(tlc));
}

TEST(SnapshotValidation, CellTypeMismatchIsRejected) {
  // Same FTL, same organization, different bits per cell: the geometry
  // echo tells a 2-bit capture from a 3-bit one in both directions.
  ftl::FtlConfig mlc = ftl::FtlConfig::tlc_tiny();
  mlc.geometry.bits_per_cell = 2;
  mlc.timing = nand::TimingSpec::paper();
  const ftl::FtlConfig tlc = ftl::FtlConfig::tlc_tiny();
  core::FlexFtl mlc_ftl(mlc);
  core::FlexFtl tlc_ftl(tlc);
  for (Lpn lpn = 0; lpn < 40; ++lpn) {
    ASSERT_TRUE(mlc_ftl.write(lpn, 0, 0.5).is_ok());
    ASSERT_TRUE(tlc_ftl.write(lpn, 0, 0.5).is_ok());
  }
  core::FlexFtl mlc_target(mlc);
  core::FlexFtl tlc_target(tlc);
  EXPECT_FALSE(Snapshot::capture(mlc_ftl).restore(tlc_target));
  EXPECT_FALSE(Snapshot::capture(tlc_ftl).restore(mlc_target));
  EXPECT_TRUE(Snapshot::capture(mlc_ftl).restore(mlc_target));
  EXPECT_TRUE(Snapshot::capture(tlc_ftl).restore(tlc_target));
}

TEST(SnapshotValidation, WrongGeometryIsRejected) {
  std::unique_ptr<ftl::FtlBase> small =
      make_ftl(FtlKind::kFlex, ftl::FtlConfig::tiny());
  fill(*small, 0x9e0);
  const Snapshot snapshot = Snapshot::capture(*small);

  ftl::FtlConfig bigger = ftl::FtlConfig::tiny();
  bigger.geometry.blocks_per_chip *= 2;
  std::unique_ptr<ftl::FtlBase> target = make_ftl(FtlKind::kFlex, bigger);
  EXPECT_FALSE(snapshot.restore(*target));
}

// Golden digests: capture digest of a fixed 5% precondition fill on the
// paper geometry, one per FTL. Pinned in the repo so serialization-format
// or placement-behavior drift cannot land silently. Regenerate (after an
// intentional format change + kVersion bump) by running this test and
// copying the "actual" values from the failure output into
// tests/data/snapshot_digests_paper.txt.
TEST(SnapshotGolden, PaperGeometryDigestsMatchPinned) {
  std::map<std::string, std::string> pinned;
  {
    std::ifstream in(std::string(RPS_TESTS_DATA_DIR) +
                     "/snapshot_digests_paper.txt");
    ASSERT_TRUE(in.good()) << "missing tests/data/snapshot_digests_paper.txt";
    std::string name, digest;
    while (in >> name >> digest) pinned[name] = digest;
  }
  ASSERT_EQ(pinned.size(), std::size(kKinds));

  ExperimentSpec spec;  // paper geometry: the FtlConfig default
  spec.sim.precondition_fraction = 0.05;
  for (const FtlKind kind : kKinds) {
    const Snapshot snapshot = make_precondition_snapshot(kind, spec);
    char actual[17];
    std::snprintf(actual, sizeof actual, "%016llx",
                  static_cast<unsigned long long>(snapshot.digest()));
    ASSERT_TRUE(pinned.count(to_string(kind))) << to_string(kind);
    EXPECT_EQ(pinned[to_string(kind)], actual)
        << to_string(kind) << ": actual " << actual;
  }
}

}  // namespace
}  // namespace rps::sim
