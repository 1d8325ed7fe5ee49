#include "src/ftl/mapping.hpp"

#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

namespace {

/// A mapped entry's address: chip, block, word line (u32 each), page type.
constexpr std::size_t kAddressBytes = 3 * sizeof(std::uint32_t) + 1;

}  // namespace

MappingTable::MappingTable(Lpn exported_pages) : entries_(exported_pages) {}

void MappingTable::save(ser::Writer& w) const {
  w.u64(entries_.size());
  std::uint8_t* p = w.extend(entries_.size() + mapped_count_ * kAddressBytes);
  if (p == nullptr) return;  // sizing pass
  for (const Entry& e : entries_) {
    *p++ = e.mapped ? 1 : 0;
    if (!e.mapped) continue;
    ser::store_le(p, e.addr.chip);
    ser::store_le(p + 4, e.addr.block);
    ser::store_le(p + 8, e.addr.pos.wordline);
    p[12] = static_cast<std::uint8_t>(e.addr.pos.type);
    p += kAddressBytes;
  }
}

void MappingTable::load(ser::Reader& r, std::uint32_t units, std::uint32_t blocks,
                        const nand::Geometry& geometry) {
  const std::uint32_t bits = geometry.bits_per_cell;
  if (r.u64() != entries_.size()) {
    r.fail();
    return;
  }
  mapped_count_ = 0;
  for (Entry& e : entries_) {
    const std::uint8_t* p = r.take(1);
    if (p == nullptr) return;
    e = Entry{};
    if (*p == 0) continue;
    p = r.take(kAddressBytes);
    if (p == nullptr) return;
    e.addr.chip = ser::load_le<std::uint32_t>(p);
    e.addr.block = ser::load_le<std::uint32_t>(p + 4);
    e.addr.pos.wordline = ser::load_le<std::uint32_t>(p + 8);
    e.addr.pos.type = static_cast<nand::PageType>(p[12]);
    if (e.addr.chip >= units || e.addr.block >= blocks ||
        e.addr.pos.wordline >= geometry.wordlines_per_block ||
        p[12] > static_cast<std::uint8_t>(nand::PageType::kCsb) ||
        nand::pass_of(e.addr.pos.type, bits) >= bits) {
      r.fail();
      return;
    }
    e.mapped = true;
    ++mapped_count_;
  }
}

}  // namespace rps::ftl
