#include "src/nand/page.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/util/serialize.hpp"

namespace rps::nand {

namespace {

/// Encoded size of a valid slot's record plus its payload length word.
constexpr std::size_t kRecordBytes = 5 * sizeof(std::uint64_t);

std::uint8_t* store_record(std::uint8_t* p, const PageData& d, std::uint64_t payload) {
  ser::store_le(p, d.lpn);
  ser::store_le(p + 8, d.signature);
  ser::store_le(p + 16, d.spare);
  ser::store_le(p + 24, d.version);
  ser::store_le(p + 32, payload);
  return p + kRecordBytes;
}

PageData load_record(const std::uint8_t* p) {
  PageData d;
  d.lpn = ser::load_le<std::uint64_t>(p);
  d.signature = ser::load_le<std::uint64_t>(p + 8);
  d.spare = ser::load_le<std::uint64_t>(p + 16);
  d.version = ser::load_le<std::uint64_t>(p + 24);
  return d;
}

}  // namespace

void PageImage::xor_with(const PageData& other, std::span<const std::uint8_t> other_bytes) {
  record.xor_with(other);
  if (bytes.size() < other_bytes.size()) bytes.resize(other_bytes.size(), 0);
  for (std::size_t i = 0; i < other_bytes.size(); ++i) bytes[i] ^= other_bytes[i];
}

void save(ser::Writer& w, const PageImage& image) {
  if (std::uint8_t* p = w.extend(kRecordBytes)) store_record(p, image.record, image.bytes.size());
  w.bytes(image.bytes.data(), image.bytes.size());
}

void load(ser::Reader& r, PageImage& image) {
  const std::uint8_t* p = r.take(kRecordBytes);
  if (p == nullptr) {
    image = PageImage{};
    return;
  }
  image.record = load_record(p);
  const std::uint64_t n = ser::load_le<std::uint64_t>(p + 32);
  if (n > r.remaining()) {
    r.fail();
    image.bytes.clear();
    return;
  }
  image.bytes.resize(static_cast<std::size_t>(n));
  r.bytes(image.bytes.data(), image.bytes.size());
}

bool PayloadTable::retain(std::uint64_t signature, std::span<const std::uint8_t> bytes) {
  const auto it = entries_.find(signature);
  if (it != entries_.end()) {
    ++it->second.refs;
    return std::equal(bytes.begin(), bytes.end(), it->second.bytes.begin(),
                      it->second.bytes.end());
  }
  if (bytes.empty()) return true;
  entries_.emplace(signature, Entry{1, std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
  return true;
}

void PayloadTable::release(std::uint64_t signature) {
  if (entries_.empty()) return;
  const auto it = entries_.find(signature);
  if (it == entries_.end()) return;
  assert(it->second.refs > 0);
  if (--it->second.refs == 0) entries_.erase(it);
}

void PayloadTable::release_valid(std::span<const PageSlot> slots) {
  if (entries_.empty()) return;
  for (const PageSlot& slot : slots) {
    if (slot.state == PageState::kValid) release(slot.record.signature);
  }
}

void save_pages(ser::Writer& w, std::span<const PageSlot> slots, std::uint32_t valid,
                const PayloadTable* payloads) {
  const bool has_payloads = payloads != nullptr && !payloads->empty();
  std::size_t size = slots.size() + std::size_t{valid} * kRecordBytes;
  if (has_payloads) {
    for (const PageSlot& slot : slots) {
      if (slot.state == PageState::kValid) size += payloads->find(slot.record.signature).size();
    }
  }
  std::uint8_t* p = w.extend(size);
  if (p == nullptr) return;  // sizing pass
  for (const PageSlot& slot : slots) {
    *p++ = static_cast<std::uint8_t>(slot.state);
    if (slot.state != PageState::kValid) continue;
    // Erased and corrupted slots carry no record: only valid pages do.
    const std::span<const std::uint8_t> bytes =
        has_payloads ? payloads->find(slot.record.signature) : std::span<const std::uint8_t>{};
    p = store_record(p, slot.record, bytes.size());
    if (!bytes.empty()) {
      std::memcpy(p, bytes.data(), bytes.size());
      p += bytes.size();
    }
  }
}

void load_pages(ser::Reader& r, std::span<PageSlot> slots, PayloadTable* payloads) {
  if (payloads != nullptr) payloads->release_valid(slots);
  for (PageSlot& slot : slots) {
    const std::uint8_t* p = r.take(1);
    if (p == nullptr) return;
    if (*p > static_cast<std::uint8_t>(PageState::kCorrupted)) {
      r.fail();
      return;
    }
    slot = PageSlot{};
    slot.state = static_cast<PageState>(*p);
    if (slot.state != PageState::kValid) continue;
    p = r.take(kRecordBytes);
    if (p == nullptr) return;
    slot.record = load_record(p);
    const std::uint64_t n = ser::load_le<std::uint64_t>(p + 32);
    if (n == 0) {
      // A signature some other slot carries bytes for must carry them here.
      if (payloads != nullptr && !payloads->empty() &&
          !payloads->retain(slot.record.signature, {})) {
        r.fail();
        return;
      }
      continue;
    }
    const std::uint8_t* bytes = n > r.remaining() ? nullptr : r.take(static_cast<std::size_t>(n));
    if (bytes == nullptr || payloads == nullptr ||
        !payloads->retain(slot.record.signature, {bytes, static_cast<std::size_t>(n)})) {
      r.fail();
      return;
    }
  }
}

}  // namespace rps::nand
