// What a NAND page stores: a fixed 32-byte record, plus optional payload
// bytes kept beside the records in a sparse table the device owns.
//
// The record (PageData) is what every layer moves: the logical page
// number, the write's unique signature (it stands in for the 4 KB of
// data), the spare (OOB) word and the host-write version. Real payload
// bytes are optional — only tests, examples and the host block-device
// adapter carry them — so a page slot never pays for them. A device's
// PayloadTable maps a write's signature to its bytes and holds an entry
// only while some valid page (or a write being placed) carries it.
//
// Keying by signature is what lets payloads ride along for free: a GC
// relocation, a backup copy or a recovery rewrite programs the same
// record, so it finds the same bytes. A parity page is the XOR of the
// records it covers; its bytes are the XOR of their payloads, accumulated
// in a PageImage and stored under the parity record's own signature, so a
// reconstruction XORs payloads exactly as it XORs records.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

/// Spare-area flag marking a page as FTL metadata (parity or paired-page
/// backup), not host data. Mapping reconstruction after a reboot skips
/// flagged pages; host pages never set it.
inline constexpr std::uint64_t kNonHostSpareFlag = 1ull << 63;

/// Low spare bits of a *host* page carry its write-stream tag (the
/// FDP-style placement hint the multi-queue frontend assigns per tenant).
/// Tag 0 is the default stream; GC copies inherit the tag with the rest
/// of the page, so stream ownership survives relocation. Metadata pages
/// (kNonHostSpareFlag) reuse these bits for their own purposes.
inline constexpr std::uint64_t kStreamSpareMask = 0xffffull;

/// The stream tag stored in a host page's spare word.
[[nodiscard]] inline constexpr std::uint32_t stream_of_spare(std::uint64_t spare) {
  return static_cast<std::uint32_t>(spare & kStreamSpareMask);
}

/// The record a program operation stores into a page.
///
/// `spare` models the out-of-band area; FTLs use it for the reverse map
/// (LPN) and flexFTL's parity backup stores the fast-block number there.
/// `version` is the host-write sequence number, the tie-breaker mapping
/// reconstruction uses when several physical copies of an LPN exist.
struct PageData {
  Lpn lpn = kInvalidLpn;
  std::uint64_t signature = 0;  // stands in for the 4 KB payload
  std::uint64_t spare = 0;      // OOB metadata word
  std::uint64_t version = 0;    // host-write sequence number

  /// XOR combine, the primitive behind every parity-backup scheme here.
  void xor_with(const PageData& other) {
    lpn ^= other.lpn;
    signature ^= other.signature;
    spare ^= other.spare;
    version ^= other.version;
  }

  friend bool operator==(const PageData&, const PageData&) = default;
};

// Page slots hold records by value and snapshots copy them in bulk.
static_assert(sizeof(PageData) == 32 && std::is_trivially_copyable_v<PageData>);

/// Lifecycle state of a stored page.
enum class PageState : std::uint8_t {
  kErased = 0,
  kValid,         // programmed, data intact
  kCorrupted,     // programmed but destroyed (power loss) — ECC-uncorrectable
};

/// One page of a block: its lifecycle state and, while valid, its record
/// (40 bytes). A host read never loads it: Block::sense takes the outcome
/// from the block's word-line program state, and looks at a slot only
/// while the block holds a corrupted page. Reads that move data (GC
/// scans, backups, recovery, payload reads) load the slot for the record.
struct PageSlot {
  PageData record;  // default unless kValid
  PageState state = PageState::kErased;
};

/// A record together with its payload bytes: what the payload paths carry
/// (FtlBase::write_data/read_data, parity accumulators, recovery).
struct PageImage {
  PageData record;
  std::vector<std::uint8_t> bytes;  // empty = no payload

  /// XOR combine record and payload; the shorter payload is zero-extended.
  void xor_with(const PageData& other, std::span<const std::uint8_t> other_bytes);
  void xor_with(const PageImage& other) { xor_with(other.record, other.bytes); }

  friend bool operator==(const PageImage&, const PageImage&) = default;
};

/// Canonical encoding of a page image (the same bytes a valid page slot
/// encodes to): the record's four words, then payload length and bytes.
void save(ser::Writer& w, const PageImage& image);
void load(ser::Reader& r, PageImage& image);

/// Payload bytes by write signature, reference-counted by the valid page
/// slots that carry the signature and by PayloadPins. A run that never
/// writes a payload leaves it empty, and every hook on the page paths is
/// then one branch.
class PayloadTable {
 public:
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// The payload carried under `signature`; empty when there is none.
  [[nodiscard]] std::span<const std::uint8_t> find(std::uint64_t signature) const {
    if (entries_.empty()) return {};
    const auto it = entries_.find(signature);
    if (it == entries_.end()) return {};
    return it->second.bytes;
  }

  /// `record` with its payload.
  [[nodiscard]] PageImage image(const PageData& record) const {
    const std::span<const std::uint8_t> bytes = find(record.signature);
    return PageImage{record, std::vector<std::uint8_t>(bytes.begin(), bytes.end())};
  }

  /// Take a reference on `signature`'s entry, creating it from `bytes`
  /// when there is none (empty `bytes` then creates nothing). Returns
  /// false when an entry exists with different bytes; the existing bytes
  /// stay.
  bool retain(std::uint64_t signature, std::span<const std::uint8_t> bytes);

  /// Page-slot hooks: a slot that became valid takes a reference on its
  /// signature's entry, if there is one; a slot that stopped being valid
  /// (erased, corrupted) drops it.
  void retain_existing(std::uint64_t signature) {
    if (entries_.empty()) return;
    const auto it = entries_.find(signature);
    if (it != entries_.end()) ++it->second.refs;
  }
  void release(std::uint64_t signature);
  /// release() for every valid slot of a block.
  void release_valid(std::span<const PageSlot> slots);

 private:
  struct Entry {
    std::uint64_t refs = 0;
    std::vector<std::uint8_t> bytes;
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// Keeps a payload alive while its write is placed: retains the entry on
/// construction (an existing entry keeps its bytes) and releases it on
/// destruction, which drops the entry if no page took it (a failed
/// program). An empty payload pins nothing.
class PayloadPin {
 public:
  PayloadPin(PayloadTable& table, std::uint64_t signature,
             std::span<const std::uint8_t> bytes)
      : table_(bytes.empty() ? nullptr : &table), signature_(signature) {
    if (table_ != nullptr) table_->retain(signature, bytes);
  }
  ~PayloadPin() {
    if (table_ != nullptr) table_->release(signature_);
  }
  PayloadPin(const PayloadPin&) = delete;
  PayloadPin& operator=(const PayloadPin&) = delete;

 private:
  PayloadTable* table_;
  std::uint64_t signature_;
};

/// The page slots of one block, encoded in one pass: a state byte per
/// slot and, for each valid slot, its record words plus payload length
/// and bytes (read from / retained into `payloads`, which may be null).
/// `valid` is the number of valid slots. load_pages replaces the slots
/// (releasing the old ones' payload references) and rejects unknown state
/// bytes and payload bytes that disagree with an existing entry.
void save_pages(ser::Writer& w, std::span<const PageSlot> slots, std::uint32_t valid,
                const PayloadTable* payloads);
void load_pages(ser::Reader& r, std::span<PageSlot> slots, PayloadTable* payloads);

}  // namespace rps::nand
