// Page addressing for the NAND model.
//
// A physical page is identified word-line-centrically: (chip, block,
// word line, page type). This makes the program-order constraints —
// which are all phrased over word lines and page types — direct to express.
//
// A word line of a b-bit cell holds b pages, written in b passes: the LSB
// page first, the MSB page last, and on TLC (b = 3) the CSB page between
// them. The page type names a page; its pass index (pass_of) depends on
// the cell's bit count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/nand/geometry.hpp"

namespace rps::nand {

/// Which bit of the cell a page maps to. kCsb exists on TLC only; it
/// follows kMsb so MLC page types keep their 0/1 encoding.
enum class PageType : std::uint8_t { kLsb = 0, kMsb = 1, kCsb = 2 };

constexpr const char* to_string(PageType type) {
  switch (type) {
    case PageType::kLsb: return "LSB";
    case PageType::kMsb: return "MSB";
    case PageType::kCsb: return "CSB";
  }
  return "?";
}

/// Pass index of `type` on a `bits`-bit cell: LSB is pass 0, MSB pass
/// bits - 1, CSB pass 1. A type the cell lacks (CSB on MLC) maps to
/// `bits`, one past the last pass.
constexpr std::uint32_t pass_of(PageType type, std::uint32_t bits) {
  switch (type) {
    case PageType::kLsb: return 0;
    case PageType::kMsb: return bits - 1;
    case PageType::kCsb: return bits == 3 ? 1 : bits;
  }
  return bits;
}

/// The page type written by pass `pass` (< bits) of a `bits`-bit cell.
constexpr PageType type_of_pass(std::uint32_t pass, std::uint32_t bits) {
  if (pass == 0) return PageType::kLsb;
  return pass + 1 == bits ? PageType::kMsb : PageType::kCsb;
}

/// Position of a page within a block.
struct PagePos {
  std::uint32_t wordline = 0;
  PageType type = PageType::kLsb;

  /// Flat index within a block of `bits`-bit cells: word line k's pages
  /// occupy bits*k .. bits*k + bits - 1 in pass order (MLC: LSB(k) -> 2k,
  /// MSB(k) -> 2k+1). A storage index, unrelated to any program order.
  [[nodiscard]] constexpr std::uint32_t flat_index(std::uint32_t bits = 2) const {
    return wordline * bits + pass_of(type, bits);
  }
  static constexpr PagePos from_flat(std::uint32_t index, std::uint32_t bits = 2) {
    return PagePos{index / bits, type_of_pass(index % bits, bits)};
  }

  [[nodiscard]] std::string to_string() const {
    return std::string(nand::to_string(type)) + "(" + std::to_string(wordline) + ")";
  }

  friend constexpr bool operator==(const PagePos&, const PagePos&) = default;
};

/// Fully-qualified physical page address. `chip` is the flat *unit*
/// index — one (die, plane) pair, see Geometry — so with one plane per
/// die it is exactly the global chip index. `block` is FTL-visible: the
/// device's bad-block table may remap it to a spare physical block.
struct PageAddress {
  std::uint32_t chip = 0;   // flat unit index (die * planes + plane)
  std::uint32_t block = 0;  // block index within the unit
  PagePos pos;

  [[nodiscard]] std::string to_string() const {
    return "chip" + std::to_string(chip) + "/blk" + std::to_string(block) +
           "/" + pos.to_string();
  }

  friend constexpr bool operator==(const PageAddress&, const PageAddress&) = default;
};

/// Physical block address (`chip` is a flat unit index, like PageAddress).
struct BlockAddress {
  std::uint32_t chip = 0;
  std::uint32_t block = 0;

  friend constexpr bool operator==(const BlockAddress&, const BlockAddress&) = default;
  friend constexpr auto operator<=>(const BlockAddress&, const BlockAddress&) = default;
};

/// The fully-decomposed (channel, die, plane) coordinates that a flat
/// PageAddress encodes. The hot paths stay on the flat unit index; this
/// form is for boundaries where physical layout matters — trace lanes,
/// bad-block records, log output.
struct PhysicalAddress {
  std::uint32_t channel = 0;
  std::uint32_t chip = 0;   // die index within the device
  std::uint32_t plane = 0;  // plane index within the die
  std::uint32_t block = 0;
  PagePos pos;

  static constexpr PhysicalAddress from_page(const Geometry& g,
                                             const PageAddress& addr) {
    const std::uint32_t die = g.chip_of_unit(addr.chip);
    return PhysicalAddress{g.channel_of_chip(die), die, g.plane_of_unit(addr.chip),
                           addr.block, addr.pos};
  }

  [[nodiscard]] constexpr PageAddress to_page(const Geometry& g) const {
    return PageAddress{g.unit_of(chip, plane), block, pos};
  }

  [[nodiscard]] std::string to_string() const {
    return "ch" + std::to_string(channel) + "/chip" + std::to_string(chip) +
           "/pl" + std::to_string(plane) + "/blk" + std::to_string(block) + "/" +
           pos.to_string();
  }

  friend constexpr bool operator==(const PhysicalAddress&, const PhysicalAddress&) = default;
};

}  // namespace rps::nand

template <>
struct std::hash<rps::nand::BlockAddress> {
  std::size_t operator()(const rps::nand::BlockAddress& a) const noexcept {
    return (static_cast<std::size_t>(a.chip) << 32) ^ a.block;
  }
};
