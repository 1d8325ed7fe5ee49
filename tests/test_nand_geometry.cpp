#include "src/nand/geometry.hpp"
#include "src/nand/timing.hpp"

#include <gtest/gtest.h>

namespace rps::nand {
namespace {

TEST(Geometry, PaperConfiguration) {
  // Section 4.1: 16 GB, 8 channels x 4 chips, 512 blocks/chip,
  // 256 x 4 KB pages per block.
  constexpr Geometry g = Geometry::paper();
  EXPECT_EQ(g.channels, 8u);
  EXPECT_EQ(g.chips_per_channel, 4u);
  EXPECT_EQ(g.num_chips(), 32u);
  EXPECT_EQ(g.blocks_per_chip, 512u);
  EXPECT_EQ(g.pages_per_block(), 256u);
  EXPECT_EQ(g.page_size_bytes, 4096u);
  EXPECT_EQ(g.capacity_bytes(), 16ull << 30);
  EXPECT_TRUE(g.valid());
}

TEST(Geometry, DerivedQuantities) {
  constexpr Geometry g = Geometry::tiny();
  EXPECT_EQ(g.num_chips(), 4u);
  EXPECT_EQ(g.pages_per_block(), 8u);
  EXPECT_EQ(g.pages_per_chip(), 128u);
  EXPECT_EQ(g.total_blocks(), 64u);
  EXPECT_EQ(g.total_pages(), 512u);
  EXPECT_TRUE(g.valid());
  Geometry tlc = g;
  tlc.bits_per_cell = 3;  // three pages (LSB, CSB, MSB) per word line
  EXPECT_EQ(tlc.pages_per_block(), 12u);
  EXPECT_EQ(tlc.total_pages(), 768u);
  EXPECT_TRUE(tlc.valid());
}

TEST(Geometry, ChannelOfChip) {
  constexpr Geometry g = Geometry::paper();
  EXPECT_EQ(g.channel_of_chip(0), 0u);
  EXPECT_EQ(g.channel_of_chip(3), 0u);
  EXPECT_EQ(g.channel_of_chip(4), 1u);
  EXPECT_EQ(g.channel_of_chip(31), 7u);
}

TEST(Geometry, InvalidConfigurations) {
  Geometry g = Geometry::tiny();
  g.channels = 0;
  EXPECT_FALSE(g.valid());
  g = Geometry::tiny();
  g.wordlines_per_block = 1;  // a single word line cannot satisfy C3
  EXPECT_FALSE(g.valid());
  g = Geometry::tiny();
  g.planes_per_chip = 0;
  EXPECT_FALSE(g.valid());
  for (const std::uint32_t bits : {0u, 1u, 4u}) {  // MLC and TLC only
    g = Geometry::tiny();
    g.bits_per_cell = bits;
    EXPECT_FALSE(g.valid()) << bits;
  }
}

TEST(Geometry, PlanePresets) {
  constexpr Geometry g4 = Geometry::paper4x();
  EXPECT_EQ(g4.planes_per_chip, 4u);
  EXPECT_EQ(g4.num_units(), 4 * Geometry::paper().num_chips());
  EXPECT_EQ(g4.capacity_bytes(), 4 * Geometry::paper().capacity_bytes());
  EXPECT_TRUE(g4.valid());
  constexpr Geometry g16 = Geometry::paper16x();
  EXPECT_EQ(g16.capacity_bytes(), 16 * Geometry::paper().capacity_bytes());
  EXPECT_TRUE(g16.valid());
}

TEST(Geometry, UnitAddressing) {
  constexpr Geometry g = Geometry::paper4x();
  EXPECT_EQ(g.unit_of(5, 3), 23u);
  EXPECT_EQ(g.chip_of_unit(23), 5u);
  EXPECT_EQ(g.plane_of_unit(23), 3u);
  EXPECT_EQ(g.channel_of_unit(23), g.channel_of_chip(5));
  EXPECT_EQ(g.pages_per_chip(), 4 * g.pages_per_unit());
}

// Overflow guards: valid() must reject geometries whose derived counts
// would wrap, instead of silently truncating addresses downstream.
TEST(Geometry, OverflowGuards) {
  Geometry g = Geometry::tiny();
  // num_units overflows u32.
  g.channels = 1u << 16;
  g.chips_per_channel = 1u << 15;
  g.planes_per_chip = 4;
  EXPECT_FALSE(g.valid());

  // pages_per_unit / total_pages overflow u64.
  g = Geometry::tiny();
  g.blocks_per_chip = 1u << 31;
  g.wordlines_per_block = 1u << 31;
  EXPECT_FALSE(g.valid());

  // capacity_bytes overflows u64: a huge page size on a huge array.
  g = Geometry::paper();
  g.page_size_bytes = 0xffffffffu;
  g.blocks_per_chip = 0x7fffffffu;
  g.wordlines_per_block = 0x7fffffffu;
  EXPECT_FALSE(g.valid());

  // The real presets sit comfortably inside every bound.
  EXPECT_TRUE(Geometry::paper().valid());
  EXPECT_TRUE(Geometry::paper4x().valid());
  EXPECT_TRUE(Geometry::paper16x().valid());
}

TEST(TimingSpec, PaperLatencies) {
  // Section 1: 500 us LSB vs 2000 us MSB program on 2X-nm MLC; Section 3.3
  // uses 40 us page reads.
  constexpr TimingSpec t = TimingSpec::paper();
  EXPECT_EQ(t.program_lsb_us, 500);
  EXPECT_EQ(t.program_msb_us, 2000);
  EXPECT_EQ(t.read_us, 40);
  EXPECT_EQ(t.program_msb_us / t.program_lsb_us, 4);
}

}  // namespace
}  // namespace rps::nand
