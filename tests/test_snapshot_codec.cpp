// Snapshot codec against a reference model of the codec it replaced.
//
// The codec moves whole little-endian words, encodes a block's page slots
// and the mapping table in one pass, and writes each capture into one
// exactly-sized buffer. This file keeps the per-field, byte-at-a-time
// encoder and decoder it replaced as a test-only reference model and
// checks, for the five MLC FTLs x planes 1/2/4 and flexFTL on TLC, in states
// the steady-state goldens miss — pages corrupted by a power cut, pending
// (voidable) erases, bad-block remaps, pages carrying payload bytes:
//   - the reference decoder parses the captured stream, and the pages it
//     decodes equal the live FTL's;
//   - the reference encoder re-encodes the live state to exactly the
//     captured bytes, block by block and for the mapping table;
//   - a restore through the new decoder holds what the reference decoded
//     and captures the identical stream again.
//
// The loader-validation tests mutate one decoded field of a real capture,
// recompute the FNV-1a trailer so the stream passes from_bytes, and
// expect restore() to reject it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ftl/ftl_base.hpp"
#include "src/nand/attribution.hpp"
#include "src/nand/bad_block.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::sim {
namespace {

// ---- Reference model: the per-field codec the bulk codec replaced ------

/// Byte-at-a-time little-endian writer.
class RefWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const std::vector<std::uint8_t>& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Byte-at-a-time little-endian reader; underflow poisons the stream.
class RefReader {
 public:
  explicit RefReader(const std::vector<std::uint8_t>& data) : data_(data) {}

  std::uint8_t u8() { return take(1) ? data_[pos_++] : 0; }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::vector<std::uint8_t> bytes(std::uint64_t n) {
    if (!take(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  /// A count about to drive a loop of at least `unit` bytes per step.
  std::uint64_t count(std::size_t unit) {
    const std::uint64_t n = u64();
    if (n > (data_.size() - pos_) / unit) ok_ = false;
    return ok_ ? n : 0;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || data_.size() - pos_ < n) ok_ = false;
    return ok_;
  }

  const std::vector<std::uint8_t>& data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

struct RefPage {
  nand::PageState state = nand::PageState::kErased;
  nand::PageData record;            // default unless valid
  std::vector<std::uint8_t> bytes;  // payload, valid pages only

  friend bool operator==(const RefPage&, const RefPage&) = default;
};

/// One block as the stream carries it; begin/end locate the block's
/// bytes in the stream.
struct RefBlock {
  std::uint8_t kind = 0;
  std::uint64_t erase_count = 0;
  std::uint64_t reads = 0;
  bool slc = false;
  std::vector<RefPage> pages;
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool same_content(const RefBlock& o) const {
    return kind == o.kind && erase_count == o.erase_count && reads == o.reads &&
           slc == o.slc && pages == o.pages;
  }
};

RefPage ref_load_page(RefReader& r) {
  RefPage p;
  p.state = static_cast<nand::PageState>(r.u8());
  if (p.state == nand::PageState::kValid) {
    p.record.lpn = r.u64();
    p.record.signature = r.u64();
    p.record.spare = r.u64();
    p.record.version = r.u64();
    p.bytes = r.bytes(r.u64());
  }
  return p;
}

RefBlock ref_load_block(RefReader& r) {
  RefBlock b;
  b.begin = r.pos();
  b.kind = r.u8();
  b.erase_count = r.u64();
  b.reads = r.u64();
  b.slc = r.boolean();
  const std::uint64_t pages = r.count(1);
  for (std::uint64_t i = 0; i < pages && r.ok(); ++i) b.pages.push_back(ref_load_page(r));
  b.end = r.pos();
  return b;
}

std::vector<std::uint8_t> ref_save_block(const RefBlock& b) {
  RefWriter w;
  w.u8(b.kind);
  w.u64(b.erase_count);
  w.u64(b.reads);
  w.boolean(b.slc);
  w.u64(b.pages.size());
  for (const RefPage& p : b.pages) {
    w.u8(static_cast<std::uint8_t>(p.state));
    if (p.state != nand::PageState::kValid) continue;
    w.u64(p.record.lpn);
    w.u64(p.record.signature);
    w.u64(p.record.spare);
    w.u64(p.record.version);
    w.u64(p.bytes.size());
    w.bytes(p.bytes);
  }
  return w.data();
}

/// A live block in reference form. Reads the counters before peeking
/// (a peek counts as a sensing pass).
RefBlock ref_of(const nand::Block& block, const nand::PayloadTable& payloads) {
  RefBlock b;
  b.kind = static_cast<std::uint8_t>(block.sequence_kind());
  b.erase_count = block.erase_count();
  b.reads = block.reads_since_erase();
  b.slc = block.slc_mode();
  for (std::uint32_t i = 0; i < block.num_pages(); ++i) {
    const nand::PagePos pos = nand::PagePos::from_flat(i, block.bits());
    RefPage p;
    p.state = block.page_state(pos);
    if (p.state == nand::PageState::kValid) {
      p.record = *block.peek(pos);
      const auto bytes = payloads.find(p.record.signature);
      p.bytes.assign(bytes.begin(), bytes.end());
    }
    b.pages.push_back(std::move(p));
  }
  return b;
}

std::vector<std::uint8_t> ref_save_mapping(const ftl::MappingTable& mapping) {
  RefWriter w;
  w.u64(mapping.exported_pages());
  for (Lpn lpn = 0; lpn < mapping.exported_pages(); ++lpn) {
    const Result<nand::PageAddress> addr = mapping.lookup(lpn);
    w.boolean(addr.is_ok());
    if (!addr.is_ok()) continue;
    w.u32(addr.value().chip);
    w.u32(addr.value().block);
    w.u32(addr.value().pos.wordline);
    w.u8(static_cast<std::uint8_t>(addr.value().pos.type));
  }
  return w.data();
}

/// The reference decoder's view of a capture: every block (by unit and
/// physical block), pending erases, the mapping table, and the offsets of
/// the fields the loader-validation tests mutate.
struct RefStream {
  std::size_t payload_begin = 0;
  std::vector<std::vector<RefBlock>> blocks;
  std::vector<std::set<std::uint32_t>> pending;  // blocks with a pending erase
  std::size_t first_last_program_block = 0;       // offset of a u32, 0 = none
  std::size_t first_pending_block = 0;            // offset of a u32, 0 = none
  std::size_t mapping_begin = 0;
  std::size_t mapping_end = 0;
  std::size_t first_mapped_address = 0;  // offset of a mapped entry's chip u32
  std::size_t first_block_counts = 0;    // offset of block 0's valid-count u32
  std::size_t first_free_block = 0;      // offset of a free-list u32, 0 = none
  // Block pools, per unit: the offset of each block's use byte (its valid
  // and written u32s follow), of each free-list u32 and of the unit's
  // valid-page total (a u64).
  std::vector<std::vector<std::size_t>> block_use;
  std::vector<std::vector<std::size_t>> free_entries;
  std::vector<std::size_t> valid_total;
  std::size_t extra_begin = 0;           // offset of the policy's own state
  // Bad-block table, per unit: the offset of each remap pair (visible
  // u32, then physical u32), of each spare-pool u32 and of the retired
  // flags; then the offsets of the any-remap and any-retired flag bytes.
  std::vector<std::vector<std::size_t>> remap_pairs;
  std::vector<std::vector<std::size_t>> spare_pool;
  std::vector<std::size_t> retired_flags;
  std::size_t any_remap_flag = 0;
  std::size_t any_retired_flag = 0;

  [[nodiscard]] std::size_t corrupted_pages() const {
    std::size_t n = 0;
    for (const auto& unit : blocks) {
      for (const RefBlock& b : unit) {
        for (const RefPage& p : b.pages) n += p.state == nand::PageState::kCorrupted;
      }
    }
    return n;
  }
  [[nodiscard]] std::size_t pending_erases() const {
    std::size_t n = 0;
    for (const auto& unit : pending) n += unit.size();
    return n;
  }
  /// Distinct payload-carrying signatures among valid pages.
  [[nodiscard]] std::size_t payload_entries() const {
    std::set<std::uint64_t> signatures;
    for (const auto& unit : blocks) {
      for (const RefBlock& b : unit) {
        for (const RefPage& p : b.pages) {
          if (!p.bytes.empty()) signatures.insert(p.record.signature);
        }
      }
    }
    return signatures.size();
  }
};

void ref_skip_header(RefReader& r) {
  (void)r.u64();  // magic
  (void)r.u32();  // version
  (void)r.bytes(r.u64());
  for (int i = 0; i < 8; ++i) (void)r.u32();  // geometry echo
  (void)r.u64();  // payload size
}

std::size_t attribution_bytes() {
  ser::Writer sizer;
  nand::save(sizer, nand::AttributionCounters{});
  return sizer.size();
}

/// Parse the device section every payload opens with.
void ref_parse_device(RefReader& r, RefStream& s) {
  const std::uint64_t units = r.count(8);
  s.blocks.resize(units);
  s.pending.resize(units);
  for (std::uint64_t u = 0; u < units && r.ok(); ++u) {
    const std::uint64_t blocks = r.count(1);
    for (std::uint64_t b = 0; b < blocks && r.ok(); ++b) {
      s.blocks[u].push_back(ref_load_block(r));
    }
    (void)r.i64();  // busy_until
    (void)r.i64();  // busy_total
    for (int i = 0; i < 4; ++i) (void)r.u64();  // op counters
    if (r.boolean()) {  // in-flight program
      if (s.first_last_program_block == 0) s.first_last_program_block = r.pos();
      (void)r.u32();
      (void)r.u32();
      (void)r.u8();
      (void)r.i64();
      (void)r.i64();
    }
    const std::uint64_t pending = r.count(21);
    for (std::uint64_t i = 0; i < pending && r.ok(); ++i) {
      if (s.first_pending_block == 0) s.first_pending_block = r.pos();
      s.pending[u].insert(r.u32());
      (void)r.i64();
      (void)r.u8();
      (void)r.i64();
    }
    for (std::uint64_t b = 0; b < blocks; ++b) {
      (void)r.u64();
      (void)r.u64();
      (void)r.i64();
    }
  }
  const std::uint64_t channels = r.count(8);
  for (std::uint64_t i = 0; i < channels; ++i) (void)r.i64();
  const std::uint64_t bad_units = r.count(32);
  s.remap_pairs.resize(bad_units);
  s.spare_pool.resize(bad_units);
  for (std::uint64_t u = 0; u < bad_units && r.ok(); ++u) {
    const std::uint64_t remaps = r.count(8);
    for (std::uint64_t i = 0; i < remaps; ++i) {
      s.remap_pairs[u].push_back(r.pos());
      (void)r.bytes(8);
    }
    const std::uint64_t spares = r.count(4);
    for (std::uint64_t i = 0; i < spares; ++i) {
      s.spare_pool[u].push_back(r.pos());
      (void)r.u32();
    }
    (void)r.bytes(r.count(1));  // bad flags
    const std::uint64_t retired = r.count(1);
    s.retired_flags.push_back(r.pos());
    (void)r.bytes(retired);
  }
  for (int i = 0; i < 4; ++i) (void)r.u64();
  s.any_remap_flag = r.pos();
  (void)r.boolean();
  s.any_retired_flag = r.pos();
  (void)r.boolean();
  (void)r.boolean();  // cache program
  (void)r.u64();      // power losses
  (void)r.bytes(attribution_bytes());
}

/// Parse the mapping table.
void ref_parse_mapping(RefReader& r, RefStream& s) {
  s.mapping_begin = r.pos();
  const std::uint64_t lpns = r.count(1);
  for (std::uint64_t lpn = 0; lpn < lpns && r.ok(); ++lpn) {
    if (!r.boolean()) continue;
    if (s.first_mapped_address == 0) s.first_mapped_address = r.pos();
    (void)r.bytes(13);  // chip, block, word line, page type
  }
  s.mapping_end = r.pos();
}

/// Parse a capture per field: header, device, mapping, block pools.
RefStream ref_parse(const std::vector<std::uint8_t>& bytes) {
  RefStream s;
  RefReader r(bytes);
  ref_skip_header(r);
  s.payload_begin = r.pos();
  ref_parse_device(r, s);
  ref_parse_mapping(r, s);
  const std::uint64_t pool_chips = r.count(8);
  s.block_use.resize(pool_chips);
  s.free_entries.resize(pool_chips);
  for (std::uint64_t c = 0; c < pool_chips && r.ok(); ++c) {
    const std::uint64_t blocks = r.count(9);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      s.block_use[c].push_back(r.pos());
      (void)r.u8();
      if (s.first_block_counts == 0) s.first_block_counts = r.pos();
      (void)r.u32();
      (void)r.u32();
    }
    const std::uint64_t free = r.count(4);
    for (std::uint64_t i = 0; i < free; ++i) {
      if (s.first_free_block == 0) s.first_free_block = r.pos();
      s.free_entries[c].push_back(r.pos());
      (void)r.u32();
    }
    s.valid_total.push_back(r.pos());
    (void)r.u64();
  }
  (void)r.bytes(sizeof(ftl::FtlStats));  // one u64 per counter
  (void)r.bytes(3 * 4 + 8 + 4);          // round robins, write version, stream
  s.extra_begin = r.pos();
  EXPECT_TRUE(r.ok()) << "reference decoder ran off the stream";
  return s;
}

/// One block cursor in a capture: the offset of its (valid, block, next)
/// triple and the length of the order its `next` indexes.
struct RefCursor {
  std::size_t offset = 0;
  bool valid = false;
  std::uint32_t order = 0;
};

/// The policy state the cursor tests mutate: every active and backup
/// cursor, parityFTL's first pending LSB address, and the fast block of
/// the first flexFTL chip that has one (offsets; 0 = none).
struct RefPolicy {
  std::vector<RefCursor> active;
  std::vector<RefCursor> backup;
  std::size_t first_pending_address = 0;
  std::size_t first_fast_block = 0;

  /// The first valid cursor of `cursors`, if any.
  static std::optional<RefCursor> first_valid(const std::vector<RefCursor>& cursors) {
    for (const RefCursor& c : cursors) {
      if (c.valid) return c;
    }
    return std::nullopt;
  }
};

void ref_cursors(RefReader& r, std::uint32_t order, std::vector<RefCursor>& out) {
  const std::uint64_t n = r.count(9);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::size_t at = r.pos();
    out.push_back({at, r.boolean(), order});
    (void)r.u32();  // block
    (void)r.u32();  // next
  }
}

/// Parse the head of `kind`'s policy state (save_extra) as far as the
/// fields RefPolicy locates.
RefPolicy ref_parse_policy(const std::vector<std::uint8_t>& bytes, const RefStream& s,
                           FtlKind kind, const nand::Geometry& g) {
  RefReader r(bytes);
  (void)r.bytes(s.extra_begin);
  const std::uint32_t fps = 2 * g.wordlines_per_block;  // pages in FPS order
  const std::uint32_t slc = g.wordlines_per_block;      // LSB pages only
  RefPolicy p;
  switch (kind) {
    case FtlKind::kPage:
      ref_cursors(r, fps, p.active);
      break;
    case FtlKind::kParity: {
      ref_cursors(r, fps, p.active);
      (void)r.bytes(32);         // accumulator record
      (void)r.bytes(r.u64());    // accumulator payload
      const std::uint64_t pending = r.count(13);
      if (pending > 0) p.first_pending_address = r.pos();
      (void)r.bytes(13 * pending);
      (void)r.bytes(16 * r.count(16));  // coverage durability map
      ref_cursors(r, slc, p.backup);
      break;
    }
    case FtlKind::kRtf: {
      const std::uint64_t chips = r.count(8);
      for (std::uint64_t c = 0; c < chips && r.ok(); ++c) ref_cursors(r, fps, p.active);
      ref_cursors(r, slc, p.backup);
      break;
    }
    case FtlKind::kSlc:
      ref_cursors(r, slc, p.active);
      break;
    case FtlKind::kFlex: {
      const std::uint32_t lower = g.bits_per_cell - 1;  // passes with parity
      const std::uint64_t chips = r.count(9);
      for (std::uint64_t c = 0; c < chips && r.ok() && p.first_fast_block == 0; ++c) {
        if (r.boolean()) p.first_fast_block = r.pos();
        (void)r.u32();
        for (std::uint32_t q = 0; q < lower; ++q) (void)r.bytes(4 * r.count(4));  // queues
        for (std::uint32_t q = 0; q < lower; ++q) {
          (void)r.bytes(32);       // accumulator record
          (void)r.bytes(r.u64());  // accumulator payload
        }
        if (r.boolean()) (void)r.bytes(12);  // backup block
        (void)r.bytes(12 * r.count(12));     // retiring backup blocks
        (void)r.bytes(12 * r.count(12));     // parity durability
        for (std::uint32_t q = 0; q < lower; ++q) (void)r.bytes(17 * r.count(17));
        for (std::uint32_t q = 0; q < lower; ++q) (void)r.bytes(25 * r.count(25));
      }
      break;
    }
  }
  EXPECT_TRUE(r.ok()) << "reference decoder ran off the stream";
  return p;
}

// ---- Scenario ---------------------------------------------------------

std::vector<std::uint8_t> payload_for(std::uint64_t lpn, int i) {
  // Varying lengths make parity XOR zero-extend payloads.
  std::vector<std::uint8_t> bytes(1 + (lpn + static_cast<std::uint64_t>(i)) % 9);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    bytes[k] = static_cast<std::uint8_t>(lpn * 31 + static_cast<std::uint64_t>(i) + k);
  }
  return bytes;
}

ftl::FtlConfig codec_config(std::uint32_t planes) {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.planes_per_chip = planes;
  config.bad_blocks.spare_blocks_per_unit = 2;
  config.bad_blocks.factory_bad_ppm = 100'000;
  return config;
}

/// Overwrites at time 0 run every chip's timeline far ahead of the clock,
/// so GC erases stay pending (charged, not yet applied); every fifth
/// write carries payload bytes.
void drive(ftl::FtlBase& ftl, Lpn span, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 900; ++i) {
    const Lpn lpn = i < static_cast<int>(span) ? static_cast<Lpn>(i) : rng.next_below(span);
    if (i % 5 == 0) {
      ASSERT_TRUE(ftl.write_data(lpn, payload_for(lpn, i), 0, 0.5).is_ok()) << i;
    } else {
      ASSERT_TRUE(ftl.write(lpn, 0, 0.5).is_ok()) << i;
    }
  }
}

/// Cut power halfway through the charged timeline: each unit's last
/// program is destroyed (and the lower pages of its word line with it).
void cut_power(nand::NandDevice& device) {
  ASSERT_FALSE(device.inject_power_loss(device.all_idle_at() / 2).empty());
}

/// Keep writing until some unit holds a pending erase (GC erases stay
/// pending until their block is touched again).
void write_until_pending_erase(ftl::FtlBase& ftl, std::uint64_t seed) {
  Rng rng(seed);
  const Lpn span = ftl.exported_pages() * 6 / 10;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(span), 0, 0.5).is_ok());
    if (ref_parse(Snapshot::capture(ftl).bytes()).pending_erases() > 0) return;
  }
  FAIL() << "no pending erase after 2000 writes";
}

Snapshot rechecksum(std::vector<std::uint8_t> bytes, std::size_t payload_begin) {
  const std::size_t payload = bytes.size() - 8 - payload_begin;
  ser::store_le(bytes.data() + bytes.size() - 8,
                ser::fnv1a(bytes.data() + payload_begin, payload));
  return Snapshot::from_bytes(std::move(bytes));
}

// ---- Codec equivalence ------------------------------------------------

/// Check one capture of `original` against the reference model.
void check_capture(FtlKind kind, const ftl::FtlConfig& config, ftl::FtlBase& original) {
  const Snapshot snapshot = Snapshot::capture(original);
  const std::vector<std::uint8_t>& bytes = snapshot.bytes();
  const RefStream ref = ref_parse(bytes);
  ASSERT_EQ(ref.blocks.size(), original.device().num_units());
  EXPECT_EQ(original.device().payloads().size(), ref.payload_entries());

  // Reference re-encode of the decoded pieces reproduces their bytes.
  for (const auto& unit : ref.blocks) {
    for (const RefBlock& b : unit) {
      const std::vector<std::uint8_t> expected(bytes.begin() + static_cast<std::ptrdiff_t>(b.begin),
                                               bytes.begin() + static_cast<std::ptrdiff_t>(b.end));
      ASSERT_EQ(ref_save_block(b), expected);
    }
  }

  // Restore through the new decoder: same stream, same content.
  std::unique_ptr<ftl::FtlBase> restored = make_ftl(kind, config);
  ASSERT_TRUE(snapshot.restore(*restored));
  EXPECT_EQ(restored->device().payloads().size(), ref.payload_entries());
  EXPECT_EQ(Snapshot::capture(*restored).bytes(), bytes);
  const std::vector<std::uint8_t> mapping(bytes.begin() + static_cast<std::ptrdiff_t>(ref.mapping_begin),
                                          bytes.begin() + static_cast<std::ptrdiff_t>(ref.mapping_end));
  EXPECT_EQ(ref_save_mapping(restored->mapping()), mapping);
  EXPECT_EQ(ref_save_mapping(original.mapping()), mapping);

  // Block by block: the reference encoder over the live state writes the
  // captured bytes, and both live FTLs hold what the reference decoded.
  // Touching a block applies its pending erase, so those are compared at
  // the byte level only (above, and by the identical re-capture).
  for (std::uint32_t u = 0; u < ref.blocks.size(); ++u) {
    for (std::uint32_t b = 0; b < ref.blocks[u].size(); ++b) {
      if (ref.pending[u].count(b) != 0) continue;
      const RefBlock& decoded = ref.blocks[u][b];
      const RefBlock live = ref_of(restored->device().chip(u).block(b),
                                   restored->device().payloads());
      ASSERT_TRUE(live.same_content(decoded)) << "unit " << u << " block " << b;
      const std::vector<std::uint8_t> expected(
          bytes.begin() + static_cast<std::ptrdiff_t>(decoded.begin),
          bytes.begin() + static_cast<std::ptrdiff_t>(decoded.end));
      ASSERT_EQ(ref_save_block(live), expected) << "unit " << u << " block " << b;
      ASSERT_TRUE(ref_of(original.device().chip(u).block(b), original.device().payloads())
                      .same_content(decoded))
          << "unit " << u << " block " << b;
    }
  }
}

struct Case {
  FtlKind kind;
  std::uint32_t planes;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(to_string(info.param.kind)) + "_planes" +
         std::to_string(info.param.planes);
}

class SnapshotCodecReference : public testing::TestWithParam<Case> {};

TEST_P(SnapshotCodecReference, PendingErasesRemapsAndPayloads) {
  const Case param = GetParam();
  const ftl::FtlConfig config = codec_config(param.planes);
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(param.kind, config);
  ASSERT_GT(ftl->device().bad_blocks().counters().remapped, 0u);
  drive(*ftl, ftl->exported_pages() * 6 / 10, 0xc0dec + param.planes);
  write_until_pending_erase(*ftl, 0xe5a5e);
  ASSERT_FALSE(ftl->device().payloads().empty());
  check_capture(param.kind, config, *ftl);
}

TEST_P(SnapshotCodecReference, PagesCorruptedByPowerCut) {
  const Case param = GetParam();
  const ftl::FtlConfig config = codec_config(param.planes);
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(param.kind, config);
  drive(*ftl, ftl->exported_pages() * 6 / 10, 0xc0dec + param.planes);
  cut_power(ftl->device());
  EXPECT_GT(ref_parse(Snapshot::capture(*ftl).bytes()).corrupted_pages(), 0u);
  check_capture(param.kind, config, *ftl);
}

INSTANTIATE_TEST_SUITE_P(
    AllFtlsAllPlanes, SnapshotCodecReference,
    testing::Values(Case{FtlKind::kPage, 1}, Case{FtlKind::kPage, 2},
                    Case{FtlKind::kPage, 4}, Case{FtlKind::kParity, 1},
                    Case{FtlKind::kParity, 2}, Case{FtlKind::kParity, 4},
                    Case{FtlKind::kRtf, 1}, Case{FtlKind::kRtf, 2},
                    Case{FtlKind::kRtf, 4}, Case{FtlKind::kFlex, 1},
                    Case{FtlKind::kFlex, 2}, Case{FtlKind::kFlex, 4},
                    Case{FtlKind::kSlc, 1}, Case{FtlKind::kSlc, 2},
                    Case{FtlKind::kSlc, 4}),
    case_name);

TEST(SnapshotCodecReferenceTlc, PayloadsAndPowerCut) {
  const ftl::FtlConfig config = ftl::FtlConfig::tlc_tiny();
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(FtlKind::kFlex, config);
  drive(*ftl, ftl->exported_pages() * 6 / 10, 0x71c);
  ASSERT_FALSE(ftl->device().payloads().empty());
  check_capture(FtlKind::kFlex, config, *ftl);
  cut_power(ftl->device());
  EXPECT_GT(ref_parse(Snapshot::capture(*ftl).bytes()).corrupted_pages(), 0u);
  check_capture(FtlKind::kFlex, config, *ftl);
}

TEST(SnapshotCodecPrimitives, WordsMatchByteAtATimeReference) {
  // Random field sequences through both writers, read back through both
  // readers: identical bytes, identical values.
  Rng rng(0x5eed);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<int, std::uint64_t>> fields;
    for (int i = 0; i < 64; ++i) fields.emplace_back(static_cast<int>(rng.next_below(4)), rng.next_u64());
    const auto save = [&](auto& w) {
      for (const auto& [kind, v] : fields) {
        switch (kind) {
          case 0: w.u8(static_cast<std::uint8_t>(v)); break;
          case 1: w.u32(static_cast<std::uint32_t>(v)); break;
          case 2: w.u64(v); break;
          default: w.boolean((v & 1) != 0); break;
        }
      }
    };
    RefWriter ref;
    save(ref);
    const std::vector<std::uint8_t> bytes = ser::encode([&](ser::Writer& w) { save(w); });
    ASSERT_EQ(bytes, ref.data());

    ser::Reader r(bytes);
    RefReader rr(bytes);
    for (const auto& [kind, v] : fields) {
      switch (kind) {
        case 0: ASSERT_EQ(r.u8(), rr.u8()); break;
        case 1: ASSERT_EQ(r.u32(), rr.u32()); break;
        case 2: ASSERT_EQ(r.u64(), rr.u64()); break;
        default: ASSERT_EQ(r.boolean(), rr.boolean()); break;
      }
    }
    EXPECT_TRUE(r.ok() && r.at_end());
  }
}

TEST(SnapshotCodecPrimitives, PageImageMatchesPageSlotEncoding) {
  // Parity accumulators encode exactly like a valid page slot's record.
  const nand::PageImage image{{7, 0xfeed, 0x42, 9}, {1, 2, 3}};
  RefBlock one;
  one.pages.push_back(RefPage{nand::PageState::kValid, image.record, image.bytes});
  const std::vector<std::uint8_t> slot = ref_save_block(one);
  const std::vector<std::uint8_t> bytes =
      ser::encode([&](ser::Writer& w) { nand::save(w, image); });
  // Block framing (kind, erase count, reads, SLC flag, page count, state
  // byte) = 27 bytes.
  ASSERT_EQ(bytes, std::vector<std::uint8_t>(slot.begin() + 27, slot.end()));
  ser::Reader r(bytes);
  nand::PageImage back;
  nand::load(r, back);
  EXPECT_TRUE(r.ok() && r.at_end());
  EXPECT_EQ(back, image);
}

TEST(SnapshotCodecPrimitives, OverflowingWriterStoresNothingPastTheEnd) {
  std::vector<std::uint8_t> out(6, 0xaa);
  ser::Writer w(std::span<std::uint8_t>(out.data(), 4));
  w.u32(0x01020304);
  w.u8(5);  // past the end
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(out, (std::vector<std::uint8_t>{4, 3, 2, 1, 0xaa, 0xaa}));
}

// ---- Loader validation --------------------------------------------------

/// A capture of `kind` (flexFTL by default) holding pending erases, an
/// in-flight program, mapped pages, free blocks and open cursors, with its
/// reference parse. Two spare blocks per unit make the FTL-visible range
/// end before the device's; `bad_block_seed` picks the factory marks, so
/// which units hold remaps, free spares and retired blocks.
struct MutableCapture {
  FtlKind kind;
  ftl::FtlConfig config = codec_config(1);
  std::uint32_t visible_blocks = 0;
  std::vector<std::uint8_t> bytes;
  RefStream ref;
  RefPolicy policy;

  explicit MutableCapture(FtlKind ftl_kind = FtlKind::kFlex,
                          std::uint64_t bad_block_seed = nand::BadBlockConfig{}.seed)
      : kind(ftl_kind) {
    config.bad_blocks.seed = bad_block_seed;
    std::unique_ptr<ftl::FtlBase> ftl = make_ftl(kind, config);
    visible_blocks = ftl->device().visible_blocks();
    drive(*ftl, ftl->exported_pages() / 2, 0x1ead);
    write_until_pending_erase(*ftl, 0x1ead);
    bytes = Snapshot::capture(*ftl).bytes();
    ref = ref_parse(bytes);
    policy = ref_parse_policy(bytes, ref, kind, config.geometry);
  }

  /// Overwrite u32 fields (offset, value), re-checksum, and try to restore.
  [[nodiscard]] bool restores_with_u32s(
      const std::vector<std::pair<std::size_t, std::uint32_t>>& fields) const {
    std::vector<std::uint8_t> mutated = bytes;
    for (const auto& [offset, value] : fields) {
      EXPECT_NE(offset, 0u);
      ser::store_le(mutated.data() + offset, value);
    }
    const Snapshot snapshot = rechecksum(std::move(mutated), ref.payload_begin);
    EXPECT_FALSE(snapshot.empty()) << "trailer recomputation failed";
    std::unique_ptr<ftl::FtlBase> target = make_ftl(kind, config);
    return snapshot.restore(*target);
  }
  [[nodiscard]] bool restores_with_u32(std::size_t offset, std::uint32_t value) const {
    return restores_with_u32s({{offset, value}});
  }
  [[nodiscard]] bool restores_with_u8(std::size_t offset, std::uint8_t value) const {
    EXPECT_NE(offset, 0u);
    std::vector<std::uint8_t> mutated = bytes;
    mutated[offset] = value;
    const Snapshot snapshot = rechecksum(std::move(mutated), ref.payload_begin);
    std::unique_ptr<ftl::FtlBase> target = make_ftl(kind, config);
    return snapshot.restore(*target);
  }
  /// Rewriting the u32 at `offset` with its own value restores.
  [[nodiscard]] bool restores_unchanged_u32(std::size_t offset) const {
    return restores_with_u32(offset, ser::load_le<std::uint32_t>(bytes.data() + offset));
  }
  [[nodiscard]] bool restores_unchanged_u8(std::size_t offset) const {
    return restores_with_u8(offset, bytes[offset]);
  }

  [[nodiscard]] std::uint32_t u32_at(std::size_t offset) const {
    return ser::load_le<std::uint32_t>(bytes.data() + offset);
  }
  /// The first unit with at least `remaps` remap pairs and `spares`
  /// spare-pool entries.
  [[nodiscard]] std::optional<std::size_t> unit_with(std::size_t remaps,
                                                     std::size_t spares) const {
    for (std::size_t u = 0; u < ref.remap_pairs.size(); ++u) {
      if (ref.remap_pairs[u].size() >= remaps && ref.spare_pool[u].size() >= spares) return u;
    }
    return std::nullopt;
  }
};

TEST(SnapshotLoaderValidation, UnmutatedCaptureRestores) {
  const MutableCapture capture;
  ASSERT_NE(capture.ref.first_mapped_address, 0u);
  // Rewriting a field with its own value must still restore: the tests
  // below then fail only for the value they plant.
  EXPECT_TRUE(capture.restores_with_u32(
      capture.ref.first_mapped_address,
      ser::load_le<std::uint32_t>(capture.bytes.data() + capture.ref.first_mapped_address)));
}

TEST(SnapshotLoaderValidation, MappingRejectsOutOfRangeAddress) {
  const MutableCapture capture;
  const std::size_t at = capture.ref.first_mapped_address;
  const nand::Geometry& g = capture.config.geometry;
  EXPECT_FALSE(capture.restores_with_u32(at, g.num_units()));                // chip
  EXPECT_FALSE(capture.restores_with_u32(at + 4, g.blocks_per_chip));        // block
  EXPECT_FALSE(capture.restores_with_u32(at + 8, g.wordlines_per_block));    // word line
  EXPECT_FALSE(capture.restores_with_u8(at + 12, 2));                        // page type
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsOutOfRangeCountsAndFreeBlocks) {
  const MutableCapture capture;
  const std::uint32_t pages = capture.config.geometry.pages_per_block();
  EXPECT_FALSE(capture.restores_with_u32(capture.ref.first_block_counts, pages + 1));
  EXPECT_FALSE(capture.restores_with_u32(capture.ref.first_block_counts + 4, pages + 1));
  ASSERT_NE(capture.ref.first_free_block, 0u);
  EXPECT_FALSE(capture.restores_with_u32(capture.ref.first_free_block,
                                         capture.config.geometry.blocks_per_chip));
}

// The block pools against the blocks they list: every free-list entry
// names a kFree block, once; every kFree block is listed; kFree and
// kRetired blocks hold no pages; no block has more valid than written
// pages; a unit's valid total is the sum of its blocks'. Each plant stays
// in range, so only these cross-checks can reject it.
constexpr auto kFullUse = static_cast<std::uint8_t>(ftl::BlockUse::kFull);
constexpr auto kFreeUse = static_cast<std::uint8_t>(ftl::BlockUse::kFree);

/// The use byte of the capture's one retired block (a factory-bad block
/// the device had no spare for).
std::size_t retired_block_use(const MutableCapture& capture) {
  std::vector<std::size_t> retired;
  for (const std::vector<std::size_t>& unit : capture.ref.block_use) {
    for (const std::size_t at : unit) {
      if (capture.bytes[at] == static_cast<std::uint8_t>(ftl::BlockUse::kRetired)) {
        retired.push_back(at);
      }
    }
  }
  EXPECT_EQ(retired.size(), 1u);
  return retired.empty() ? 0 : retired.front();
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsAFreeListEntryInUse) {
  const MutableCapture capture;
  // Unit 0's block 0 is full and holds valid pages: allocating it from the
  // free list would hand out live data.
  const std::size_t use = capture.ref.block_use[0][0];
  ASSERT_EQ(capture.bytes[use], kFullUse);
  ASSERT_GT(capture.u32_at(use + 1), 0u);
  ASSERT_FALSE(capture.ref.free_entries[0].empty());
  const std::size_t entry = capture.ref.free_entries[0].front();
  EXPECT_TRUE(capture.restores_unchanged_u32(entry));
  EXPECT_FALSE(capture.restores_with_u32(entry, 0));
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsABlockListedTwice) {
  const MutableCapture capture;
  const std::vector<std::size_t>& free = capture.ref.free_entries[0];
  ASSERT_GE(free.size(), 2u);
  EXPECT_TRUE(capture.restores_unchanged_u32(free[1]));
  EXPECT_FALSE(capture.restores_with_u32(free[1], capture.u32_at(free[0])));
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsAFreeBlockMissingFromTheList) {
  const MutableCapture capture;
  // A retired block holds no pages; as a kFree block it is off the list.
  const std::size_t retired = retired_block_use(capture);
  ASSERT_NE(retired, 0u);
  EXPECT_TRUE(capture.restores_unchanged_u8(retired));
  EXPECT_FALSE(capture.restores_with_u8(retired, kFreeUse));
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsPagesOnAFreeOrRetiredBlock) {
  const MutableCapture capture;
  const std::size_t free = capture.ref.block_use[0][capture.u32_at(
      capture.ref.free_entries[0].front())];
  ASSERT_EQ(capture.bytes[free], kFreeUse);
  const std::size_t retired = retired_block_use(capture);
  ASSERT_NE(retired, 0u);
  for (const std::size_t use : {free, retired}) {
    const std::size_t written = use + 5;
    EXPECT_TRUE(capture.restores_unchanged_u32(written));
    EXPECT_FALSE(capture.restores_with_u32(written, 1));
  }
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsMoreValidThanWrittenPages) {
  const MutableCapture capture;
  const std::size_t use = capture.ref.block_use[0][0];
  const std::uint32_t valid = capture.u32_at(use + 1);
  ASSERT_GT(valid, 0u);
  EXPECT_TRUE(capture.restores_unchanged_u32(use + 5));
  EXPECT_TRUE(capture.restores_with_u32(use + 5, valid));
  EXPECT_FALSE(capture.restores_with_u32(use + 5, valid - 1));
}

TEST(SnapshotLoaderValidation, BlockManagerRejectsAValidTotalOffTheBlocksSum) {
  const MutableCapture capture;
  const std::size_t total = capture.ref.valid_total[0];
  const std::uint32_t low = capture.u32_at(total);
  ASSERT_GT(low, 0u);
  EXPECT_TRUE(capture.restores_unchanged_u32(total));
  EXPECT_FALSE(capture.restores_with_u32(total, low + 1));
  EXPECT_FALSE(capture.restores_with_u32(total, low - 1));
}

TEST(SnapshotLoaderValidation, ChipRejectsOutOfRangeBlockIndices) {
  const MutableCapture capture;
  const std::uint32_t blocks = capture.config.geometry.blocks_per_chip;
  ASSERT_NE(capture.ref.first_pending_block, 0u);
  EXPECT_FALSE(capture.restores_with_u32(capture.ref.first_pending_block, blocks));
  ASSERT_NE(capture.ref.first_last_program_block, 0u);
  EXPECT_FALSE(capture.restores_with_u32(capture.ref.first_last_program_block, blocks));
}

constexpr FtlKind kCursorFtls[] = {FtlKind::kPage, FtlKind::kParity, FtlKind::kRtf,
                                   FtlKind::kSlc};

TEST(SnapshotLoaderValidation, CursorsRejectBlocksOutsideTheVisibleRange) {
  for (const FtlKind kind : kCursorFtls) {
    SCOPED_TRACE(to_string(kind));
    const MutableCapture capture(kind);
    ASSERT_LT(capture.visible_blocks, capture.config.geometry.blocks_per_chip);
    std::vector<RefCursor> planted{capture.policy.active.front()};
    if (kind == FtlKind::kParity || kind == FtlKind::kRtf) {
      ASSERT_FALSE(capture.policy.backup.empty());
      planted.push_back(capture.policy.backup.front());
    }
    for (const RefCursor& cursor : planted) {
      const std::size_t block = cursor.offset + 1;
      EXPECT_TRUE(capture.restores_unchanged_u32(block));
      // The first spare block: on the device, but not the FTL's to write.
      EXPECT_FALSE(capture.restores_with_u32(block, capture.visible_blocks));
    }
  }
}

TEST(SnapshotLoaderValidation, CursorsRejectANextPastTheirOrder) {
  for (const FtlKind kind : kCursorFtls) {
    SCOPED_TRACE(to_string(kind));
    const MutableCapture capture(kind);
    std::vector<std::optional<RefCursor>> planted{
        RefPolicy::first_valid(capture.policy.active)};
    if (kind == FtlKind::kParity || kind == FtlKind::kRtf) {
      planted.push_back(RefPolicy::first_valid(capture.policy.backup));
    }
    for (const std::optional<RefCursor>& cursor : planted) {
      ASSERT_TRUE(cursor.has_value());
      const std::size_t next = cursor->offset + 5;
      EXPECT_TRUE(capture.restores_unchanged_u32(next));
      // A valid cursor always has a page left (rtfFTL reads order_[next]).
      EXPECT_FALSE(capture.restores_with_u32(next, cursor->order));
      EXPECT_FALSE(capture.restores_with_u32(next, cursor->order + 1));
    }
  }
}

TEST(SnapshotLoaderValidation, FlexRejectsAFastBlockOutsideTheVisibleRange) {
  const MutableCapture capture;
  ASSERT_EQ(capture.config.bad_blocks.spare_blocks_per_unit, 2u);
  ASSERT_NE(capture.policy.first_fast_block, 0u);
  EXPECT_TRUE(capture.restores_unchanged_u32(capture.policy.first_fast_block));
  EXPECT_FALSE(
      capture.restores_with_u32(capture.policy.first_fast_block, capture.visible_blocks));
}

TEST(SnapshotLoaderValidation, ParityRejectsAPendingAddressOffTheDevice) {
  const MutableCapture capture(FtlKind::kParity);
  const std::size_t at = capture.policy.first_pending_address;
  ASSERT_NE(at, 0u);
  EXPECT_TRUE(capture.restores_unchanged_u8(at + 12));
  EXPECT_FALSE(capture.restores_with_u8(at + 12, 3));  // page type
  EXPECT_FALSE(capture.restores_with_u32(at + 4, capture.visible_blocks));
}

// The bad-block table: a remap pair maps a visible block onto a block of
// the spare range, no block sits in two pairs, the spare pool holds unused
// spare-range blocks in ascending order, and the fast-path flags agree
// with the maps. The default capture's units hold two remaps, two free
// spares and a retired block between them.
TEST(SnapshotLoaderValidation, BadBlockTableRejectsARemapOutsideItsRange) {
  const MutableCapture capture;
  const std::optional<std::size_t> unit = capture.unit_with(1, 0);
  ASSERT_TRUE(unit.has_value());
  const std::size_t at = capture.ref.remap_pairs[*unit].front();
  EXPECT_TRUE(capture.restores_unchanged_u32(at));
  EXPECT_TRUE(capture.restores_unchanged_u32(at + 4));
  EXPECT_FALSE(capture.restores_with_u32(at, capture.visible_blocks));  // a spare
  EXPECT_FALSE(capture.restores_with_u32(at + 4, capture.visible_blocks - 1));  // visible
  EXPECT_FALSE(capture.restores_with_u32(at + 4, capture.config.geometry.blocks_per_chip));
}

TEST(SnapshotLoaderValidation, BadBlockTableRejectsABlockInTwoRemaps) {
  const MutableCapture capture;
  const std::optional<std::size_t> unit = capture.unit_with(2, 0);
  ASSERT_TRUE(unit.has_value());
  const std::vector<std::size_t>& pairs = capture.ref.remap_pairs[*unit];
  EXPECT_TRUE(capture.restores_unchanged_u32(pairs[1]));
  EXPECT_FALSE(capture.restores_with_u32(pairs[1], capture.u32_at(pairs[0])));
  EXPECT_FALSE(capture.restores_with_u32(pairs[1] + 4, capture.u32_at(pairs[0] + 4)));
}

TEST(SnapshotLoaderValidation, BadBlockTableRejectsASparePoolOutOfRangeOrOrder) {
  const MutableCapture capture;
  const std::optional<std::size_t> unit = capture.unit_with(0, 2);
  ASSERT_TRUE(unit.has_value());
  const std::vector<std::size_t>& pool = capture.ref.spare_pool[*unit];
  const std::uint32_t first = capture.u32_at(pool[0]);
  const std::uint32_t second = capture.u32_at(pool[1]);
  EXPECT_TRUE(capture.restores_with_u32s({{pool[0], first}, {pool[1], second}}));
  EXPECT_FALSE(capture.restores_with_u32(pool[0], capture.visible_blocks - 1));
  EXPECT_FALSE(capture.restores_with_u32(pool[1], capture.config.geometry.blocks_per_chip));
  EXPECT_FALSE(capture.restores_with_u32(pool[1], first));  // twice
  EXPECT_FALSE(capture.restores_with_u32s({{pool[0], second}, {pool[1], first}}));
}

TEST(SnapshotLoaderValidation, BadBlockTableRejectsASpareThatBacksABlock) {
  // Factory marks under this seed leave a unit with a remap and a free
  // spare; the default capture has none.
  const MutableCapture capture(FtlKind::kFlex, /*bad_block_seed=*/7);
  const std::optional<std::size_t> unit = capture.unit_with(1, 1);
  ASSERT_TRUE(unit.has_value());
  const std::size_t spare = capture.ref.spare_pool[*unit].front();
  const std::uint32_t target = capture.u32_at(capture.ref.remap_pairs[*unit].front() + 4);
  EXPECT_TRUE(capture.restores_unchanged_u32(spare));
  EXPECT_FALSE(capture.restores_with_u32(spare, target));
}

TEST(SnapshotLoaderValidation, BadBlockTableRejectsFlagsThatDisagreeWithTheMaps) {
  const MutableCapture capture;
  const std::size_t remap_flag = capture.ref.any_remap_flag;
  const std::size_t retired_flag = capture.ref.any_retired_flag;
  ASSERT_EQ(capture.bytes[remap_flag], 1);
  ASSERT_EQ(capture.bytes[retired_flag], 1);
  EXPECT_TRUE(capture.restores_unchanged_u8(remap_flag));
  EXPECT_TRUE(capture.restores_unchanged_u8(retired_flag));
  EXPECT_FALSE(capture.restores_with_u8(remap_flag, 0));
  EXPECT_FALSE(capture.restores_with_u8(retired_flag, 0));
  // Un-retire the one retired block: the flag then announces nothing.
  std::vector<std::size_t> retired;
  for (const std::size_t flags : capture.ref.retired_flags) {
    for (std::uint32_t b = 0; b < capture.visible_blocks; ++b) {
      if (capture.bytes[flags + b] != 0) retired.push_back(flags + b);
    }
  }
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_TRUE(capture.restores_unchanged_u8(retired.front()));
  EXPECT_FALSE(capture.restores_with_u8(retired.front(), 0));
}

TEST(SnapshotLoaderValidation, TlcRejectsOutOfRangeAddressesAndBlocks) {
  const ftl::FtlConfig config = ftl::FtlConfig::tlc_tiny();
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(FtlKind::kFlex, config);
  drive(*ftl, ftl->exported_pages() / 2, 0x71d);
  const std::vector<std::uint8_t> bytes = Snapshot::capture(*ftl).bytes();
  const RefStream ref = ref_parse(bytes);
  ASSERT_NE(ref.first_mapped_address, 0u);
  ASSERT_NE(ref.first_free_block, 0u);
  const auto restores = [&](std::size_t offset, std::uint32_t value, std::size_t width) {
    std::vector<std::uint8_t> mutated = bytes;
    if (width == 1) {
      mutated[offset] = static_cast<std::uint8_t>(value);
    } else {
      ser::store_le(mutated.data() + offset, value);
    }
    const Snapshot snapshot = rechecksum(std::move(mutated), ref.payload_begin);
    EXPECT_FALSE(snapshot.empty()) << "trailer recomputation failed";
    std::unique_ptr<ftl::FtlBase> target = make_ftl(FtlKind::kFlex, config);
    return snapshot.restore(*target);
  };
  const std::size_t at = ref.first_mapped_address;
  EXPECT_TRUE(restores(at, ser::load_le<std::uint32_t>(bytes.data() + at), 4));
  EXPECT_FALSE(restores(at, 1'000'000, 4));                                 // chip
  EXPECT_FALSE(restores(at + 4, config.geometry.blocks_per_chip, 4));       // block
  EXPECT_FALSE(restores(at + 8, config.geometry.wordlines_per_block, 4));   // word line
  EXPECT_TRUE(restores(at + 12, 2, 1));   // a CSB page exists on TLC...
  EXPECT_FALSE(restores(at + 12, 3, 1));  // ...no fourth page type does
  EXPECT_FALSE(restores(ref.first_free_block, config.geometry.blocks_per_chip, 4));
}

}  // namespace
}  // namespace rps::sim
