#include "src/sim/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/ftl/ftl_base.hpp"

namespace rps::sim {

namespace {

constexpr int kGeometryWords = 8;

void write_header(ser::Writer& w, std::string_view name) {
  w.u64(Snapshot::kMagic);
  w.u32(Snapshot::kVersion);
  w.str(name);
}

void write_geometry(ser::Writer& w, const nand::Geometry& g) {
  w.u32(g.channels);
  w.u32(g.chips_per_channel);
  w.u32(g.planes_per_chip);
  w.u32(g.blocks_per_chip);
  w.u32(g.wordlines_per_block);
  w.u32(g.page_size_bytes);
  w.u32(g.spare_bytes);
  w.u32(g.bits_per_cell);
}

bool geometry_matches(ser::Reader& r, const nand::Geometry& g) {
  return r.u32() == g.channels && r.u32() == g.chips_per_channel &&
         r.u32() == g.planes_per_chip && r.u32() == g.blocks_per_chip &&
         r.u32() == g.wordlines_per_block && r.u32() == g.page_size_bytes &&
         r.u32() == g.spare_bytes && r.u32() == g.bits_per_cell;
}

/// One capture: header and payload written into one buffer sized exactly
/// up front by a sizing pass over the same save code — no growth, no
/// second copy of the payload, and no hashing: the trailer slot stays
/// zero until the stream is exported (write_sealed).
std::vector<std::uint8_t> encode_snapshot(const ftl::FtlBase& ftl) {
  ser::Writer sizer;
  write_header(sizer, ftl.name());
  write_geometry(sizer, ftl.device().geometry());
  const std::size_t header = sizer.size() + 8;  // + the payload size word
  ftl.save_state(sizer);
  const std::size_t payload = sizer.size() + 8 - header;

  std::vector<std::uint8_t> bytes(header + payload + 8);
  ser::Writer w(bytes);
  write_header(w, ftl.name());
  write_geometry(w, ftl.device().geometry());
  w.u64(payload);
  ftl.save_state(w);
  w.u64(0);  // the trailer slot
  // Both passes run the same save code over the same state.
  assert(w.ok() && w.size() == bytes.size());
  return bytes;
}

/// Where the payload lies in a stream: after the magic, version, a name,
/// the geometry echo and a size word that covers exactly the bytes up to
/// the 8-byte trailer. nullopt when any of that is off.
struct Frame {
  std::size_t begin = 0;
  std::size_t size = 0;
};

std::optional<Frame> frame(const std::vector<std::uint8_t>& bytes) {
  ser::Reader r(bytes);
  if (r.u64() != Snapshot::kMagic) return std::nullopt;
  if (r.u32() != Snapshot::kVersion) return std::nullopt;
  if (r.str().empty()) return std::nullopt;
  for (int i = 0; i < kGeometryWords; ++i) (void)r.u32();  // geometry echo
  const std::uint64_t size = r.u64();
  if (!r.ok() || r.remaining() < 8 || size != r.remaining() - 8) return std::nullopt;
  return Frame{r.pos(), static_cast<std::size_t>(size)};
}

/// Parse + validate the header against the restore target; on success
/// returns a Reader covering exactly the payload. The checksum trailer is
/// NOT checked here (in memory it is zero): restore() runs on every
/// warm-started trial (a 64-seed sweep forks thousands of times from one
/// snapshot), and hashing a multi-megabyte payload per fork would cost as
/// much as the fill phase it replaces. Integrity is checked once, where
/// untrusted bytes enter a Snapshot (from_bytes / load_file); capture()
/// output is correct by construction.
std::optional<ser::Reader> open_payload(const std::vector<std::uint8_t>& bytes,
                                        std::string_view name,
                                        const nand::Geometry& geometry) {
  const std::optional<Frame> f = frame(bytes);
  if (!f) return std::nullopt;
  ser::Reader r(bytes);
  (void)r.u64();  // magic and version: frame() checked them
  (void)r.u32();
  if (r.str() != name || !geometry_matches(r, geometry)) return std::nullopt;
  return ser::Reader(bytes.data() + f->begin, f->size);
}

/// Full structural + checksum verification of an exported byte stream:
/// magic, version, payload framing, FNV-1a trailer.
bool verify_stream(const std::vector<std::uint8_t>& bytes) {
  const std::optional<Frame> f = frame(bytes);
  return f && ser::load_le<std::uint64_t>(bytes.data() + f->begin + f->size) ==
                  ser::fnv1a(bytes.data() + f->begin, f->size);
}

/// The exported stream's trailer (FNV-1a over the payload) and digest
/// (FNV-1a over header, payload and trailer) in one pass over a stream
/// whose trailer slot may hold anything: the two chains are independent,
/// so interleaved they run in the time of one.
struct Seal {
  std::uint64_t trailer = 0;
  std::uint64_t digest = 0;
};

Seal seal(const std::vector<std::uint8_t>& bytes) {
  const std::optional<Frame> f = frame(bytes);
  if (!f) return {0, ser::fnv1a(bytes)};  // an empty snapshot
  std::uint64_t digest = ser::fnv1a(bytes.data(), f->begin);
  std::uint64_t trailer = ser::kFnvBasis;
  const std::uint8_t* const end = bytes.data() + f->begin + f->size;
  for (const std::uint8_t* p = bytes.data() + f->begin; p != end; ++p) {
    digest = (digest ^ *p) * ser::kFnvPrime;
    trailer = (trailer ^ *p) * ser::kFnvPrime;
  }
  std::uint8_t word[8];
  ser::store_le(word, trailer);
  return {trailer, ser::fnv1a(word, sizeof word, digest)};
}

}  // namespace

Snapshot Snapshot::capture(const ftl::FtlBase& ftl) {
  Snapshot s;
  s.bytes_ = encode_snapshot(ftl);
  return s;
}

bool Snapshot::restore(ftl::FtlBase& ftl) const {
  std::optional<ser::Reader> payload =
      open_payload(bytes_, ftl.name(), ftl.device().geometry());
  if (!payload) return false;
  ftl.load_state(*payload);
  return payload->ok() && payload->at_end();
}

bool Snapshot::valid() const {
  ser::Reader r(bytes_);
  return r.u64() == kMagic && r.u32() == kVersion && r.ok();
}

std::string Snapshot::ftl_name() const {
  ser::Reader r(bytes_);
  if (r.u64() != kMagic || r.u32() != kVersion) return {};
  std::string name = r.str();
  return r.ok() ? name : std::string{};
}

std::uint64_t Snapshot::digest() const { return seal(bytes_).digest; }

std::uint64_t Snapshot::write_sealed(ser::Writer& w) const {
  std::uint8_t* out = w.extend(bytes_.size());
  if (out == nullptr) return 0;  // a sizing pass
  const Seal s = seal(bytes_);
  if (!bytes_.empty()) {
    std::memcpy(out, bytes_.data(), bytes_.size());
    ser::store_le(out + bytes_.size() - 8, s.trailer);
  }
  return s.digest;
}

Snapshot Snapshot::from_bytes(std::vector<std::uint8_t> bytes) {
  // The one trust boundary: bytes from outside (a file, a peer process)
  // get the full checksum verification here, exactly once. A snapshot
  // that fails comes back empty — restore() on it returns false. One that
  // passes drops its trailer, so bytes() holds what a capture holds.
  Snapshot s;
  if (verify_stream(bytes)) {
    std::fill(bytes.end() - 8, bytes.end(), std::uint8_t{0});
    s.bytes_ = std::move(bytes);
  }
  return s;
}

bool Snapshot::save_file(const std::string& path) const {
  return ser::write_file(path, ser::encode([this](ser::Writer& w) { (void)write_sealed(w); }));
}

std::optional<Snapshot> Snapshot::load_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes = ser::read_file(path);
  if (!bytes) return std::nullopt;
  Snapshot s = from_bytes(std::move(*bytes));
  if (!s.valid()) return std::nullopt;
  return s;
}

}  // namespace rps::sim
