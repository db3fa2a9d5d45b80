// ckpt/crc32.hpp
//
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) used for every
// integrity check in the checkpoint format: file header, section table and
// each section payload carry their own CRC so restore can tell *where* a
// file was damaged (docs/CHECKPOINT.md failure matrix) instead of feeding
// corrupt bytes back into the simulation.
//
// Two loops compute the same values. crc32_portable is slicing-by-8: eight
// tables derived from the bytewise IEEE table fold one 8-byte word per
// iteration, and a bytewise tail finishes the buffer (tests/test_ckpt.cpp
// keeps the bytewise loop as its reference). crc32 (crc32.cpp) folds 64
// bytes per iteration with carry-less multiplies (PCLMULQDQ) when the CPU
// has them, chosen at run time, so a build without -march=native runs it
// too; elsewhere, and for short buffers, it is crc32_portable.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vpic::ckpt {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Table 0 is the bytewise IEEE table; table k advances a byte's
/// contribution past k further zero bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Advance the CRC register `c` (the pre-inverted running value) over `n`
/// bytes, slicing by 8.
inline std::uint32_t crc32_update(std::uint32_t c, const unsigned char* p,
                                  std::size_t n) {
  const auto& t = kCrc32Tables;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

}  // namespace detail

/// The portable slicing-by-8 CRC, with crc32's contract.
inline std::uint32_t crc32_portable(const void* data, std::size_t n,
                                    std::uint32_t seed = 0) {
  return detail::crc32_update(seed ^ 0xFFFFFFFFu,
                              static_cast<const unsigned char*>(data), n) ^
         0xFFFFFFFFu;
}

/// Incremental form: pass the previous return value as `seed` to extend a
/// CRC over discontiguous buffers. The default seed is the standard
/// initial value.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace vpic::ckpt
