// Byte-level serialization primitives for device/FTL snapshots.
//
// The encoding is deliberately boring: fixed little-endian integers,
// doubles as their IEEE-754 bit patterns, length-prefixed byte strings.
// No varints, no alignment, no endianness detection — the canonical byte
// stream must be identical on every platform because Snapshot::digest()
// hashes it and tests pin those digests. Anything order-sensitive
// (unordered_map contents) is the *caller's* job to canonicalize (sort by
// key) before writing.
//
// Writer never grows a buffer: a stream is encoded in two passes over the
// same save code — a sizing pass (a default-constructed Writer only counts
// bytes) and a write pass into a buffer of exactly that size (encode()).
// Integers move as whole little-endian words; bulk encoders (a block's
// page records, the mapping table) reserve their whole span with extend()
// and fill it in one pass.
//
// Reader never throws: an underflow or explicit fail() poisons the stream
// (all further reads return zeros) and the caller checks ok() once at the
// top level. That keeps per-field load code branch-free.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rps::ser {

/// Store / load one little-endian word at `p` (any alignment).
template <typename T>
inline void store_le(std::uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  } else {
    std::memcpy(p, &v, sizeof(T));
  }
}

template <typename T>
[[nodiscard]] inline T load_le(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  } else {
    std::memcpy(&v, p, sizeof(T));
  }
  return v;
}

class Writer {
 public:
  /// A sizing pass: stores nothing, counts the bytes a save would write.
  Writer() = default;

  /// A write pass into `out`, which a sizing pass sized exactly. Writing
  /// past its end stores nothing more and clears ok().
  explicit Writer(std::span<std::uint8_t> out) : data_(out.data()), capacity_(out.size()) {}

  void u8(std::uint8_t v) {
    if (std::uint8_t* p = extend(1)) *p = v;
  }
  void u32(std::uint32_t v) {
    if (std::uint8_t* p = extend(4)) store_le(p, v);
  }
  void u64(std::uint64_t v) {
    if (std::uint8_t* p = extend(8)) store_le(p, v);
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const void* p, std::size_t n) {
    if (std::uint8_t* out = extend(n); out != nullptr && n != 0) std::memcpy(out, p, n);
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  /// Append `n` bytes and return where the caller writes them: nullptr in
  /// a sizing pass (the bytes are only counted) and on overflow.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = size_;
    size_ += n;
    if (data_ == nullptr) return nullptr;
    if (capacity_ - at < n) {
      // The sizing pass disagreed with the write pass: a program bug the
      // caller detects through ok() (nothing past the end is touched).
      data_ = nullptr;
      overflow_ = true;
      return nullptr;
    }
    return data_ + at;
  }

  /// Bytes written (or, in a sizing pass, counted) so far.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool ok() const { return !overflow_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  bool overflow_ = false;
};

/// Encode `save(Writer&)`'s stream into one exactly-sized buffer: a sizing
/// pass, then the write pass — no growth and no second copy.
template <typename Save>
[[nodiscard]] std::vector<std::uint8_t> encode(const Save& save) {
  Writer sizer;
  save(sizer);
  std::vector<std::uint8_t> out(sizer.size());
  Writer w(out);
  save(w);
  return out;
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& data)
      : Reader(data.data(), data.size()) {}

  std::uint8_t u8() {
    const std::uint8_t* p = take(1);
    return p == nullptr ? 0 : *p;
  }
  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    return p == nullptr ? 0 : load_le<std::uint32_t>(p);
  }
  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    return p == nullptr ? 0 : load_le<std::uint64_t>(p);
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  void bytes(void* out, std::size_t n) {
    const std::uint8_t* p = take(n);
    if (p == nullptr) {
      std::memset(out, 0, n);
      return;
    }
    if (n != 0) std::memcpy(out, p, n);
  }

  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      fail();
      return {};
    }
    const std::uint8_t* p = take(static_cast<std::size_t>(n));
    if (p == nullptr) return {};
    return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  }

  /// Consume `n` bytes and return where they start; nullptr (and a
  /// poisoned stream) when fewer remain. Bulk decoders parse from it.
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// Poison the stream: a shape/invariant mismatch was detected. All
  /// subsequent reads return zeros; the top-level caller rejects the load.
  void fail() { ok_ = false; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// 64-bit FNV-1a's offset basis and prime.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over a byte range — the digest primitive every determinism check
/// in this repo uses (faultsim replay, bench_simcore matrix, snapshots).
[[nodiscard]] inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                                         std::uint64_t h = kFnvBasis) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& data,
                                         std::uint64_t h = kFnvBasis) {
  return fnv1a(data.data(), data.size(), h);
}

/// A whole file's bytes, read once into a buffer sized from the file's
/// length; nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Write `bytes` as the whole content of `path`; false on any I/O failure.
[[nodiscard]] bool write_file(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace rps::ser
