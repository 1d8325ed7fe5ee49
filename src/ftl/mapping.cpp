#include "src/ftl/mapping.hpp"

#include <bit>
#include <cassert>

#include "src/util/serialize.hpp"

namespace rps::ftl {

namespace {

/// A mapped entry's address: chip, block, word line (u32 each), page type.
constexpr std::size_t kAddressBytes = 3 * sizeof(std::uint32_t) + 1;

/// Bits that hold every index below `count`: 0 for a count of 1.
std::uint32_t index_bits(std::uint32_t count) {
  return static_cast<std::uint32_t>(std::bit_width(count - 1));
}

}  // namespace

MappingTable::MappingTable(Lpn exported_pages, const nand::Geometry& geometry)
    : entries_(exported_pages, kUnmapped),
      wordline_bits_(index_bits(geometry.wordlines_per_block)),
      block_bits_(index_bits(geometry.blocks_per_chip)),
      unit_bits_(index_bits(geometry.num_units())) {
  assert(2 + wordline_bits_ + block_bits_ + unit_bits_ <= 32);
}

void MappingTable::save(ser::Writer& w) const {
  w.u64(entries_.size());
  std::uint8_t* p = w.extend(entries_.size() + mapped_count_ * kAddressBytes);
  if (p == nullptr) return;  // sizing pass
  for (const std::uint32_t e : entries_) {
    *p++ = e != kUnmapped ? 1 : 0;
    if (e == kUnmapped) continue;
    const nand::PageAddress addr = decode(e);
    ser::store_le(p, addr.chip);
    ser::store_le(p + 4, addr.block);
    ser::store_le(p + 8, addr.pos.wordline);
    p[12] = static_cast<std::uint8_t>(addr.pos.type);
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
  for (std::uint32_t& e : entries_) {
    const std::uint8_t* p = r.take(1);
    if (p == nullptr) return;
    e = kUnmapped;
    if (*p == 0) continue;
    p = r.take(kAddressBytes);
    if (p == nullptr) return;
    nand::PageAddress addr;
    addr.chip = ser::load_le<std::uint32_t>(p);
    addr.block = ser::load_le<std::uint32_t>(p + 4);
    addr.pos.wordline = ser::load_le<std::uint32_t>(p + 8);
    addr.pos.type = static_cast<nand::PageType>(p[12]);
    if (addr.chip >= units || addr.block >= blocks ||
        addr.pos.wordline >= geometry.wordlines_per_block ||
        p[12] > static_cast<std::uint8_t>(nand::PageType::kCsb) ||
        nand::pass_of(addr.pos.type, bits) >= bits) {
      r.fail();
      return;
    }
    e = encode(addr);
    ++mapped_count_;
  }
}

}  // namespace rps::ftl
