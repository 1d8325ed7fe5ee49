#include "src/util/serialize.hpp"

#include <cstdio>

namespace rps::ser {

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> out;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long length = std::ftell(f);
    if (length >= 0 && std::fseek(f, 0, SEEK_SET) == 0) {
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(length));
      const std::size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
      // A file that changed length under us reads short (or leaves bytes
      // behind): reject it rather than hand back a torn buffer.
      if (got == bytes.size() && std::fgetc(f) == EOF && std::ferror(f) == 0) {
        out = std::move(bytes);
      }
    }
  }
  std::fclose(f);
  return out;
}

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0 && written == bytes.size();
}

}  // namespace rps::ser
