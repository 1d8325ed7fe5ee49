// Page-level logical-to-physical mapping table.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/nand/address.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::ftl {

/// Dense LPN -> physical page map. All four FTLs in the paper are
/// page-level mapping FTLs; they differ in allocation policy, not mapping.
///
/// Each entry is one packed u32 so the table stays cache-resident (4
/// bytes per LPN): the page type in the low 2 bits, then the word line,
/// the block and the unit, each at the bit width the geometry needs. All
/// ones means unmapped; no address encodes to it, since page type 3 does
/// not exist. Addresses handed in must name a page of the geometry.
class MappingTable {
 public:
  /// Asserts that the geometry's addresses fit 32 bits: 2 + the bit
  /// widths of (word lines - 1), (blocks - 1) and (units - 1).
  MappingTable(Lpn exported_pages, const nand::Geometry& geometry);

  [[nodiscard]] Lpn exported_pages() const { return static_cast<Lpn>(entries_.size()); }

  [[nodiscard]] bool is_mapped(Lpn lpn) const {
    return lpn < entries_.size() && entries_[lpn] != kUnmapped;
  }

  [[nodiscard]] Result<nand::PageAddress> lookup(Lpn lpn) const {
    if (lpn >= entries_.size()) return ErrorCode::kOutOfRange;
    if (entries_[lpn] == kUnmapped) return ErrorCode::kNotFound;
    return decode(entries_[lpn]);
  }

  /// Map `lpn` to `addr`, returning the previous address if one existed
  /// (the caller invalidates it in its block bookkeeping).
  std::optional<nand::PageAddress> update(Lpn lpn, const nand::PageAddress& addr) {
    assert(lpn < entries_.size());
    std::uint32_t& e = entries_[lpn];
    std::optional<nand::PageAddress> old;
    if (e != kUnmapped) {
      old = decode(e);
    } else {
      ++mapped_count_;
    }
    e = encode(addr);
    return old;
  }

  /// Drop the mapping (TRIM). Returns the old address if mapped.
  std::optional<nand::PageAddress> unmap(Lpn lpn) {
    if (!is_mapped(lpn)) return std::nullopt;
    const nand::PageAddress old = decode(entries_[lpn]);
    entries_[lpn] = kUnmapped;
    --mapped_count_;
    return old;
  }

  /// True iff `lpn` currently maps exactly to `addr` — the GC validity test.
  [[nodiscard]] bool maps_to(Lpn lpn, const nand::PageAddress& addr) const {
    return lpn < entries_.size() && entries_[lpn] == encode(addr);
  }

  /// The first LPN mapped to `addr`, if any (one scan; recovery only).
  [[nodiscard]] std::optional<Lpn> lpn_of(const nand::PageAddress& addr) const {
    const auto it = std::find(entries_.begin(), entries_.end(), encode(addr));
    if (it == entries_.end()) return std::nullopt;
    return static_cast<Lpn>(it - entries_.begin());
  }

  /// Start loading `lpn`'s entry into cache ahead of a maps_to. LPNs past
  /// the table are ignored: the record a caller takes the LPN from may be
  /// a parity page's, whose LPN field is an XOR.
  void prefetch(Lpn lpn) const {
    if (lpn < entries_.size()) __builtin_prefetch(&entries_[lpn]);
  }

  [[nodiscard]] Lpn mapped_count() const { return mapped_count_; }

  /// Snapshot support: the entries in one pass. load() rejects addresses
  /// outside `units` x `blocks` x the geometry's word lines (GC and
  /// recovery index device arrays with them) and page types the
  /// geometry's cells lack (CSB on MLC).
  void save(ser::Writer& w) const;
  void load(ser::Reader& r, std::uint32_t units, std::uint32_t blocks,
            const nand::Geometry& geometry);

 private:
  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  // Each field is shifted in by its own width, so no shift reaches 32,
  // even where a field has width 0 (one unit).
  [[nodiscard]] std::uint32_t encode(const nand::PageAddress& addr) const {
    assert(addr.chip >> unit_bits_ == 0 && addr.block >> block_bits_ == 0 &&
           addr.pos.wordline >> wordline_bits_ == 0);
    std::uint32_t code = addr.chip;
    code = (code << block_bits_) | addr.block;
    code = (code << wordline_bits_) | addr.pos.wordline;
    return (code << 2) | static_cast<std::uint32_t>(addr.pos.type);
  }
  [[nodiscard]] nand::PageAddress decode(std::uint32_t code) const {
    nand::PageAddress addr;
    addr.pos.type = static_cast<nand::PageType>(code & 3u);
    code >>= 2;
    addr.pos.wordline = code & ((1u << wordline_bits_) - 1);
    code >>= wordline_bits_;
    addr.block = code & ((1u << block_bits_) - 1);
    addr.chip = code >> block_bits_;
    return addr;
  }

  std::vector<std::uint32_t> entries_;
  std::uint32_t wordline_bits_;  // field widths, from the geometry
  std::uint32_t block_bits_;
  std::uint32_t unit_bits_;
  Lpn mapped_count_ = 0;
};

}  // namespace rps::ftl
