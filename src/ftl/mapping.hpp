// Page-level logical-to-physical mapping table.
#pragma once

#include <cassert>
#include <cstdint>
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
class MappingTable {
 public:
  explicit MappingTable(Lpn exported_pages);

  [[nodiscard]] Lpn exported_pages() const { return static_cast<Lpn>(entries_.size()); }

  [[nodiscard]] bool is_mapped(Lpn lpn) const {
    return lpn < entries_.size() && entries_[lpn].mapped;
  }

  [[nodiscard]] Result<nand::PageAddress> lookup(Lpn lpn) const {
    if (lpn >= entries_.size()) return ErrorCode::kOutOfRange;
    if (!entries_[lpn].mapped) return ErrorCode::kNotFound;
    return entries_[lpn].addr;
  }

  /// Map `lpn` to `addr`, returning the previous address if one existed
  /// (the caller invalidates it in its block bookkeeping).
  std::optional<nand::PageAddress> update(Lpn lpn, const nand::PageAddress& addr) {
    assert(lpn < entries_.size());
    Entry& e = entries_[lpn];
    std::optional<nand::PageAddress> old;
    if (e.mapped) {
      old = e.addr;
    } else {
      ++mapped_count_;
    }
    e.addr = addr;
    e.mapped = true;
    return old;
  }

  /// Drop the mapping (TRIM). Returns the old address if mapped.
  std::optional<nand::PageAddress> unmap(Lpn lpn) {
    if (lpn >= entries_.size() || !entries_[lpn].mapped) return std::nullopt;
    entries_[lpn].mapped = false;
    --mapped_count_;
    return entries_[lpn].addr;
  }

  /// True iff `lpn` currently maps exactly to `addr` — the GC validity test.
  [[nodiscard]] bool maps_to(Lpn lpn, const nand::PageAddress& addr) const {
    return lpn < entries_.size() && entries_[lpn].mapped && entries_[lpn].addr == addr;
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
  struct Entry {
    nand::PageAddress addr;
    bool mapped = false;
  };
  std::vector<Entry> entries_;
  Lpn mapped_count_ = 0;
};

}  // namespace rps::ftl
