// Physical organization of the simulated NAND storage system.
//
// The paper's testbed (BlueDBM, 16 GB slice) is 8 channels x 4 chips per
// channel, 512 blocks per chip, 256 pages (128 word lines) per block,
// 4 KB pages. `Geometry::paper()` reproduces that; tests and examples use
// smaller instances. `bits_per_cell` selects the cell type: 2 (MLC, the
// paper's device) or 3 (TLC, the projection of the paper's Section 1);
// a word line holds one page per bit.
//
// Planes. A chip (die) is subdivided into `planes_per_chip` planes, each
// an independent block array with its own cell timeline. The simulator's
// scheduling granule is the *unit* — one (chip, plane) pair — indexed
// flat as `unit = chip * planes_per_chip + plane`. `blocks_per_chip`
// counts blocks *per plane* so that `planes_per_chip = 1` (the default)
// reproduces the original chip-granular model bit for bit: every unit
// index equals its chip index and every derived quantity is unchanged.
// Planes of one die share the die's channel attachment; the die-level
// coupling (multi-plane command windows, bad-block spares) is modeled in
// NandDevice.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace rps::nand {

struct Geometry {
  std::uint32_t channels = 8;
  std::uint32_t chips_per_channel = 4;
  std::uint32_t planes_per_chip = 1;
  std::uint32_t blocks_per_chip = 512;      // blocks per plane (see header note)
  std::uint32_t wordlines_per_block = 128;  // bits_per_cell pages per word line
  std::uint32_t page_size_bytes = 4096;
  std::uint32_t spare_bytes = 128;  // out-of-band area per page
  std::uint32_t bits_per_cell = 2;  // 2 = MLC (LSB, MSB), 3 = TLC (+ CSB)

  /// The configuration used in the paper's evaluation (Section 4.1).
  static constexpr Geometry paper() { return Geometry{}; }

  /// The paper's testbed at 4x effective parallelism: every die exposes
  /// four planes (the common organization of the chips BlueDBM carries).
  static constexpr Geometry paper4x() {
    Geometry g;
    g.planes_per_chip = 4;
    return g;
  }

  /// 16x the paper's parallelism: twice the channels, twice the chips per
  /// channel, four planes per die.
  static constexpr Geometry paper16x() {
    Geometry g;
    g.channels = 16;
    g.chips_per_channel = 8;
    g.planes_per_chip = 4;
    return g;
  }

  /// A small configuration for unit tests (fast, still multi-chip).
  static constexpr Geometry tiny() {
    return Geometry{.channels = 2,
                    .chips_per_channel = 2,
                    .planes_per_chip = 1,
                    .blocks_per_chip = 16,
                    .wordlines_per_block = 4,
                    .page_size_bytes = 512,
                    .spare_bytes = 16};
  }

  [[nodiscard]] constexpr std::uint32_t num_chips() const {
    return channels * chips_per_channel;
  }
  /// Total scheduling units: one per (chip, plane).
  [[nodiscard]] constexpr std::uint32_t num_units() const {
    return num_chips() * planes_per_chip;
  }
  [[nodiscard]] constexpr std::uint32_t pages_per_block() const {
    return wordlines_per_block * bits_per_cell;
  }
  /// Pages per unit (per plane).
  [[nodiscard]] constexpr std::uint64_t pages_per_unit() const {
    return static_cast<std::uint64_t>(blocks_per_chip) * pages_per_block();
  }
  /// Pages per die (all planes).
  [[nodiscard]] constexpr std::uint64_t pages_per_chip() const {
    return pages_per_unit() * planes_per_chip;
  }
  [[nodiscard]] constexpr std::uint64_t total_blocks() const {
    return static_cast<std::uint64_t>(num_units()) * blocks_per_chip;
  }
  [[nodiscard]] constexpr std::uint64_t total_pages() const {
    return static_cast<std::uint64_t>(num_units()) * pages_per_unit();
  }
  [[nodiscard]] constexpr std::uint64_t capacity_bytes() const {
    return total_pages() * page_size_bytes;
  }

  /// Structural and overflow validity: every field positive (word lines
  /// >= 2 so the canonical orders exist), an MLC or TLC cell, unit counts
  /// fit their u32 indices, and total_pages() / capacity_bytes() fit u64
  /// without wrapping.
  [[nodiscard]] constexpr bool valid() const {
    if (channels == 0 || chips_per_channel == 0 || planes_per_chip == 0 ||
        blocks_per_chip == 0 || wordlines_per_block < 2 || page_size_bytes == 0 ||
        bits_per_cell < 2 || bits_per_cell > 3) {
      return false;
    }
    constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t chips =
        static_cast<std::uint64_t>(channels) * chips_per_channel;
    if (chips > kMax32) return false;  // num_chips() returns u32
    const std::uint64_t units = chips * planes_per_chip;  // < 2^64 (u32 * u32)
    if (units > kMax32) return false;  // num_units() returns u32
    const std::uint64_t block_pages =
        static_cast<std::uint64_t>(wordlines_per_block) * bits_per_cell;
    if (block_pages > kMax64 / blocks_per_chip) return false;
    const std::uint64_t unit_pages = block_pages * blocks_per_chip;
    if (unit_pages > kMax64 / units) return false;
    const std::uint64_t pages = unit_pages * units;  // == total_pages()
    if (pages > kMax64 / page_size_bytes) return false;
    return true;
  }

  /// Channel that a (global) chip index is attached to.
  /// Precondition: chip < num_chips().
  [[nodiscard]] constexpr std::uint32_t channel_of_chip(std::uint32_t chip) const {
    assert(chip < num_chips());
    return chip / chips_per_channel;
  }

  /// Decompose / compose the flat unit index.
  [[nodiscard]] constexpr std::uint32_t chip_of_unit(std::uint32_t unit) const {
    return unit / planes_per_chip;
  }
  [[nodiscard]] constexpr std::uint32_t plane_of_unit(std::uint32_t unit) const {
    return unit % planes_per_chip;
  }
  [[nodiscard]] constexpr std::uint32_t unit_of(std::uint32_t chip,
                                                std::uint32_t plane) const {
    return chip * planes_per_chip + plane;
  }

  /// Channel a unit's die is attached to. Precondition: unit < num_units().
  [[nodiscard]] constexpr std::uint32_t channel_of_unit(std::uint32_t unit) const {
    return channel_of_chip(chip_of_unit(unit));
  }

  friend constexpr bool operator==(const Geometry&, const Geometry&) = default;
};

}  // namespace rps::nand
