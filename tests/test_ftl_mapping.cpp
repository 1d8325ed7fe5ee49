#include "src/ftl/mapping.hpp"

#include <gtest/gtest.h>

#include "src/ftl/config.hpp"
#include "src/util/serialize.hpp"

namespace rps::ftl {
namespace {

constexpr nand::PageAddress kA{0, 1, {2, nand::PageType::kLsb}};
constexpr nand::PageAddress kB{3, 4, {5, nand::PageType::kMsb}};
constexpr nand::Geometry kPaper = nand::Geometry::paper();

TEST(MappingTable, StartsUnmapped) {
  MappingTable m(100, kPaper);
  EXPECT_EQ(m.exported_pages(), 100u);
  EXPECT_EQ(m.mapped_count(), 0u);
  EXPECT_FALSE(m.is_mapped(0));
  EXPECT_EQ(m.lookup(0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(m.lookup(100).code(), ErrorCode::kOutOfRange);
}

TEST(MappingTable, UpdateAndLookup) {
  MappingTable m(100, kPaper);
  EXPECT_FALSE(m.update(7, kA).has_value());
  EXPECT_TRUE(m.is_mapped(7));
  EXPECT_EQ(m.mapped_count(), 1u);
  ASSERT_TRUE(m.lookup(7).is_ok());
  EXPECT_EQ(m.lookup(7).value(), kA);
  EXPECT_TRUE(m.maps_to(7, kA));
  EXPECT_FALSE(m.maps_to(7, kB));
  EXPECT_FALSE(m.maps_to(8, kA));
}

TEST(MappingTable, OverwriteReturnsOldAddress) {
  MappingTable m(100, kPaper);
  m.update(7, kA);
  const auto old = m.update(7, kB);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, kA);
  EXPECT_EQ(m.mapped_count(), 1u);
  EXPECT_TRUE(m.maps_to(7, kB));
}

TEST(MappingTable, Unmap) {
  MappingTable m(100, kPaper);
  m.update(7, kA);
  const auto old = m.unmap(7);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, kA);
  EXPECT_EQ(m.mapped_count(), 0u);
  EXPECT_FALSE(m.is_mapped(7));
  EXPECT_FALSE(m.unmap(7).has_value());
  EXPECT_FALSE(m.unmap(500).has_value());
}

TEST(MappingTable, LpnOfFindsTheFirstLpnMappedToAnAddress) {
  MappingTable m(100, kPaper);
  EXPECT_FALSE(m.lpn_of(kA).has_value());
  m.update(40, kA);
  m.update(9, kA);
  m.update(3, kB);
  EXPECT_EQ(m.lpn_of(kA), std::optional<Lpn>(9));
  EXPECT_EQ(m.lpn_of(kB), std::optional<Lpn>(3));
  m.unmap(9);
  EXPECT_EQ(m.lpn_of(kA), std::optional<Lpn>(40));
  // A prefetch hint past the table (a parity record's XOR'd LPN) is a no-op.
  m.prefetch(kInvalidLpn);
  m.prefetch(100);
}

/// Value `v` of a field of `count` values, moved by one and kept in
/// range (unmoved when the field has one value).
std::uint32_t neighbour(std::uint32_t v, std::uint32_t count) {
  if (v + 1 < count) return v + 1;
  return v > 0 ? v - 1 : v;
}

/// Every combination of the first and last unit, block and word line with
/// every page type the cells have: each maps, reads back, survives a
/// save/load, and no address one field away matches it.
void check_round_trip(const nand::Geometry& g) {
  SCOPED_TRACE(testing::Message() << g.num_units() << " units, " << g.blocks_per_chip
                                  << " blocks, " << g.wordlines_per_block
                                  << " word lines, " << g.bits_per_cell << " bits");
  const std::uint32_t bits = g.bits_per_cell;
  const std::uint32_t units = g.num_units();
  std::vector<nand::PageAddress> addrs;
  for (const std::uint32_t unit : {0u, units - 1}) {
    for (const std::uint32_t block : {0u, g.blocks_per_chip - 1}) {
      for (const std::uint32_t wl : {0u, g.wordlines_per_block - 1}) {
        for (std::uint32_t pass = 0; pass < bits; ++pass) {
          addrs.push_back({unit, block, {wl, nand::type_of_pass(pass, bits)}});
        }
      }
    }
  }
  MappingTable m(addrs.size(), g);
  for (Lpn lpn = 0; lpn < addrs.size(); ++lpn) {
    const nand::PageAddress& a = addrs[lpn];
    SCOPED_TRACE(a.to_string());
    m.update(lpn, a);
    ASSERT_TRUE(m.lookup(lpn).is_ok());
    EXPECT_EQ(m.lookup(lpn).value(), a);
    EXPECT_TRUE(m.maps_to(lpn, a));
    const nand::PageType other_type =
        nand::type_of_pass((nand::pass_of(a.pos.type, bits) + 1) % bits, bits);
    const nand::PageAddress neighbours[] = {
        {neighbour(a.chip, units), a.block, a.pos},
        {a.chip, neighbour(a.block, g.blocks_per_chip), a.pos},
        {a.chip, a.block, {neighbour(a.pos.wordline, g.wordlines_per_block), a.pos.type}},
        {a.chip, a.block, {a.pos.wordline, other_type}},
    };
    for (const nand::PageAddress& n : neighbours) {
      if (n == a) continue;  // a one-unit geometry has no unit neighbour
      EXPECT_FALSE(m.maps_to(lpn, n)) << n.to_string();
    }
  }
  const std::vector<std::uint8_t> stream = ser::encode([&](ser::Writer& w) { m.save(w); });
  MappingTable loaded(addrs.size(), g);
  ser::Reader r(stream);
  loaded.load(r, units, g.blocks_per_chip, g);
  ASSERT_TRUE(r.ok() && r.at_end());
  EXPECT_EQ(loaded.mapped_count(), addrs.size());
  for (Lpn lpn = 0; lpn < addrs.size(); ++lpn) {
    EXPECT_EQ(loaded.lookup(lpn).value(), addrs[lpn]);
  }
}

TEST(MappingTable, PackedEntriesRoundTripOnEveryGeometry) {
  nand::Geometry one_unit = nand::Geometry::tiny();
  one_unit.channels = 1;
  one_unit.chips_per_channel = 1;
  ASSERT_EQ(one_unit.num_units(), 1u);
  for (const nand::Geometry& g :
       {nand::Geometry::tiny(), nand::Geometry::paper(), nand::Geometry::paper16x(),
        FtlConfig::tlc_tiny().geometry, one_unit}) {
    check_round_trip(g);
  }
}

TEST(MappingTable, UnmappedEntryNeverMapsToAnyAddress) {
  // Every page of a small device, against every entry of a fresh table
  // and of one whose entries were mapped and then dropped.
  for (const nand::Geometry& g : {nand::Geometry::tiny(), FtlConfig::tlc_tiny().geometry}) {
    MappingTable m(8, g);
    for (Lpn lpn = 4; lpn < 8; ++lpn) {
      m.update(lpn, {g.num_units() - 1, g.blocks_per_chip - 1,
                     {g.wordlines_per_block - 1, nand::PageType::kMsb}});
      m.unmap(lpn);
    }
    for (std::uint32_t unit = 0; unit < g.num_units(); ++unit) {
      for (std::uint32_t block = 0; block < g.blocks_per_chip; ++block) {
        for (std::uint32_t wl = 0; wl < g.wordlines_per_block; ++wl) {
          for (std::uint32_t pass = 0; pass < g.bits_per_cell; ++pass) {
            const nand::PageAddress a{unit, block,
                                      {wl, nand::type_of_pass(pass, g.bits_per_cell)}};
            for (Lpn lpn = 0; lpn < 8; ++lpn) ASSERT_FALSE(m.maps_to(lpn, a));
            ASSERT_FALSE(m.lpn_of(a).has_value());
          }
        }
      }
    }
  }
  // A geometry that fills all 32 bits: its last page (CSB is type 2)
  // packs to every bit but bit 0, one short of the unmapped sentinel.
  const nand::Geometry full{.channels = 32,
                            .chips_per_channel = 32,
                            .blocks_per_chip = 1024,
                            .wordlines_per_block = 1024,
                            .bits_per_cell = 3};
  MappingTable m(2, full);
  const nand::PageAddress last{full.num_units() - 1, full.blocks_per_chip - 1,
                               {full.wordlines_per_block - 1, nand::PageType::kCsb}};
  EXPECT_FALSE(m.maps_to(0, last));
  EXPECT_FALSE(m.lpn_of(last).has_value());
  m.update(1, last);
  EXPECT_FALSE(m.maps_to(0, last));
  EXPECT_TRUE(m.maps_to(1, last));
  EXPECT_EQ(m.lookup(1).value(), last);
}

}  // namespace
}  // namespace rps::ftl
