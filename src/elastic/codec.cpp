// elastic/codec.cpp — DeltaPack encode/decode (see codec.hpp).
//
// Stream layout, per 4-byte record field f in [0, elem_size/4):
//
//   control block: ceil(nrec / 4) bytes, 2 bits per record in record
//                  order (bit pair k of byte k/4), code -> stored width:
//                  0 -> 0 bytes (XOR == 0), 1 -> 1, 2 -> 2, 3 -> 4
//   data block:    the low `width` bytes of each nonzero-width XOR word,
//                  little-endian, concatenated in record order
//
// Blocks for field f+1 follow immediately after field f's data block.
// The decoder recomputes every block size from the control bits, so the
// stream needs no explicit lengths beyond (raw_bytes, elem_size) which
// the chain manifest records.

#include "elastic/codec.hpp"

#include <bit>
#include <cstring>

namespace vpic::elastic {

const char* to_string(Codec c) noexcept {
  switch (c) {
    case Codec::None:
      return "none";
    case Codec::DeltaPack:
      return "deltapack";
  }
  return "?";
}

namespace {

inline std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline void store_u32(std::byte* p, std::uint32_t v) noexcept {
  std::memcpy(p, &v, 4);
}

/// Store `v` as four little-endian bytes (the stream's byte order).
inline void store_u32_le(std::byte* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    store_u32(p, v);
  } else {
    for (unsigned b = 0; b < 4; ++b)
      p[b] = static_cast<std::byte>((v >> (8 * b)) & 0xFFu);
  }
}

inline unsigned width_code(std::uint32_t x) noexcept {
  if (x == 0) return 0;
  if (x <= 0xFFu) return 1;
  if (x <= 0xFFFFu) return 2;
  return 3;
}

constexpr unsigned kCodeBytes[4] = {0, 1, 2, 4};

}  // namespace

std::size_t deltapack_bound(std::size_t n, std::uint32_t elem_size) noexcept {
  if (n == 0 || elem_size == 0 || elem_size % 4 != 0 || n % elem_size != 0)
    return 0;
  return elem_size / 4 * ((n / elem_size + 3) / 4) + n;
}

std::size_t deltapack_encode(const std::byte* data, std::size_t n,
                             std::uint32_t elem_size, std::byte* out,
                             std::size_t cap) noexcept {
  if (deltapack_bound(n, elem_size) == 0) return 0;
  const std::size_t nrec = n / elem_size;
  const std::size_t nfields = elem_size / 4;
  const std::size_t ctrl_bytes = (nrec + 3) / 4;

  // Encode through a cursor, so each data word is one 4-byte store that
  // advances the cursor by its width; bytes past the width are
  // overwritten by the next store or lie past the end of the stream. The
  // last three bytes of `out` take the word bytewise.
  std::byte* at = out;
  std::byte* const end = out + cap;
  for (std::size_t f = 0; f < nfields; ++f) {
    if (static_cast<std::size_t>(end - at) < ctrl_bytes) return 0;
    std::byte* ctrl = at;
    at += ctrl_bytes;
    std::uint32_t prev = 0;
    unsigned codes = 0;
    for (std::size_t r = 0; r < nrec; ++r) {
      const std::uint32_t v = load_u32(data + r * elem_size + f * 4);
      const std::uint32_t x = v ^ prev;
      prev = v;
      const unsigned code = width_code(x);
      codes |= code << (2 * (r % 4));
      if (r % 4 == 3) {
        ctrl[r / 4] = static_cast<std::byte>(codes);
        codes = 0;
      }
      const std::size_t left = static_cast<std::size_t>(end - at);
      if (left >= 4) {
        store_u32_le(at, x);
      } else {
        if (left < kCodeBytes[code]) return 0;
        for (unsigned b = 0; b < kCodeBytes[code]; ++b)
          at[b] = static_cast<std::byte>((x >> (8 * b)) & 0xFFu);
      }
      at += kCodeBytes[code];
    }
    if (nrec % 4 != 0) ctrl[nrec / 4] = static_cast<std::byte>(codes);
  }
  return static_cast<std::size_t>(at - out);
}

bool deltapack_decode(const std::byte* src, std::size_t src_bytes,
                      std::byte* dst, std::size_t raw_bytes,
                      std::uint32_t elem_size) {
  if (raw_bytes == 0 || elem_size == 0 || elem_size % 4 != 0 ||
      raw_bytes % elem_size != 0)
    return false;
  const std::size_t nrec = raw_bytes / elem_size;
  const std::size_t nfields = elem_size / 4;
  const std::size_t ctrl_bytes = (nrec + 3) / 4;

  std::size_t at = 0;
  for (std::size_t f = 0; f < nfields; ++f) {
    if (at + ctrl_bytes > src_bytes) return false;
    const std::byte* ctrl = src + at;
    at += ctrl_bytes;
    std::uint32_t prev = 0;
    for (std::size_t r = 0; r < nrec; ++r) {
      const unsigned code =
          (static_cast<unsigned>(ctrl[r / 4]) >> (2 * (r % 4))) & 0x3u;
      const unsigned w = kCodeBytes[code];
      if (at + w > src_bytes) return false;
      std::uint32_t x = 0;
      for (unsigned b = 0; b < w; ++b)
        x |= static_cast<std::uint32_t>(src[at + b]) << (8 * b);
      at += w;
      prev ^= x;
      store_u32(dst + r * elem_size + f * 4, prev);
    }
  }
  return at == src_bytes;  // trailing garbage is corruption, not slack
}

}  // namespace vpic::elastic
