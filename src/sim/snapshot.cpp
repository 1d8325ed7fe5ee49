#include "src/sim/snapshot.hpp"

#include <cassert>

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

/// One capture: header, payload and FNV-1a trailer written into one
/// buffer sized exactly up front by a sizing pass over the same save code
/// — no growth and no second copy of the payload.
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
  w.u64(ser::fnv1a(bytes.data() + header, payload));
  // Both passes run the same save code over the same state.
  assert(w.ok() && w.size() == bytes.size());
  return bytes;
}

/// Parse + validate the header; on success returns a Reader positioned at
/// the payload covering exactly `payload size` bytes. The checksum trailer
/// is NOT re-verified here: restore() runs on every warm-started trial (a
/// 64-seed sweep forks thousands of times from one snapshot), and hashing
/// a multi-megabyte payload per fork would cost as much as the fill phase
/// it replaces. Integrity is checked once, where untrusted bytes enter a
/// Snapshot (from_bytes / load_file); capture() output is correct by
/// construction.
std::optional<ser::Reader> open_payload(const std::vector<std::uint8_t>& bytes,
                                        std::string_view name,
                                        const nand::Geometry& geometry) {
  ser::Reader r(bytes);
  if (r.u64() != Snapshot::kMagic) return std::nullopt;
  if (r.u32() != Snapshot::kVersion) return std::nullopt;
  if (r.str() != name) return std::nullopt;
  if (!geometry_matches(r, geometry)) return std::nullopt;
  const std::uint64_t size = r.u64();
  if (!r.ok() || r.remaining() < 8 || size != r.remaining() - 8) return std::nullopt;
  return ser::Reader(bytes.data() + r.pos(), static_cast<std::size_t>(size));
}

/// Full structural + checksum verification of an untrusted byte stream:
/// magic, version, payload framing, FNV-1a trailer.
bool verify_stream(const std::vector<std::uint8_t>& bytes) {
  ser::Reader r(bytes);
  if (r.u64() != Snapshot::kMagic) return false;
  if (r.u32() != Snapshot::kVersion) return false;
  if (r.str().empty()) return false;
  for (int i = 0; i < kGeometryWords; ++i) (void)r.u32();  // geometry echo
  const std::uint64_t size = r.u64();
  if (!r.ok() || r.remaining() < 8 || size != r.remaining() - 8) return false;
  const std::size_t start = r.pos();
  ser::Reader trailer(bytes.data() + start + size, 8);
  return trailer.u64() ==
         ser::fnv1a(bytes.data() + start, static_cast<std::size_t>(size));
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

Snapshot Snapshot::from_bytes(std::vector<std::uint8_t> bytes) {
  // The one trust boundary: bytes from outside (a file, a peer process)
  // get the full checksum verification here, exactly once. A snapshot
  // that fails comes back empty — restore() on it returns false.
  Snapshot s;
  if (verify_stream(bytes)) s.bytes_ = std::move(bytes);
  return s;
}

bool Snapshot::save_file(const std::string& path) const {
  return ser::write_file(path, bytes_);
}

std::optional<Snapshot> Snapshot::load_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes = ser::read_file(path);
  if (!bytes) return std::nullopt;
  Snapshot s = from_bytes(std::move(*bytes));
  if (!s.valid()) return std::nullopt;
  return s;
}

}  // namespace rps::sim
