// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), used to checksum
// durable state — model checkpoints, io blobs, and usage-journal records — so
// corrupted bytes are caught on read instead of being loaded as garbage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace eugene {
namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace detail

/// CRC-32 of `n` bytes starting at `data`.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = detail::kCrc32Table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace eugene
