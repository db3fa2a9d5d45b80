// ckpt/crc32.cpp — CRC-32 with a carry-less-multiply folding path (see
// crc32.hpp).
//
// The folding loop follows Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of the IEEE polynomial: four 128-bit lanes absorb 64
// bytes per iteration, fold into one lane, absorb the remaining 16-byte
// blocks, and a Barrett reduction takes the 64-bit remainder to 32 bits.
// The constants are x^k mod P(x) for the fold distances (k1..k4), the
// 64-to-32-bit step (k5), P(x) itself and floor(x^64 / P(x)), all
// bit-reflected.

#include "ckpt/crc32.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define VPIC_CRC32_FOLD 1
#endif

namespace vpic::ckpt {

#ifdef VPIC_CRC32_FOLD

namespace {

/// Buffers shorter than this take the table loop: the fold needs 64 bytes
/// to start, and below a few hundred bytes its setup is not repaid.
constexpr std::size_t kFoldMin = 256;

#define VPIC_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

VPIC_CRC32_TARGET inline __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// `x` folded forward by the distance `k` encodes (512 bits across four
/// lanes, or 128 bits within one), plus `next`.
VPIC_CRC32_TARGET inline __m128i fold16(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advance the register `c` over `n` bytes, `n` a multiple of 16 and at
/// least 64.
VPIC_CRC32_TARGET std::uint32_t fold(std::uint32_t c, const unsigned char* p,
                                     std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16), x3 = load16(p + 32), x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits by Barrett reduction.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00),
      _mm_srli_si128(x, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

// A crc32 call from a static initializer that runs before this one sees
// false and takes the table loop, which gives the same values.
const bool kHasFold = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (kHasFold && n >= kFoldMin) {
    const std::size_t body = n & ~std::size_t{15};
    c = fold(c, p, body);
    p += body;
    n -= body;
  }
  return detail::crc32_update(c, p, n) ^ 0xFFFFFFFFu;
}

#else

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  return crc32_portable(data, n, seed);
}

#endif

}  // namespace vpic::ckpt
