// elastic/codec.hpp
//
// Lossless streaming codec for checkpoint particle payloads
// (docs/ELASTIC.md). The canonical on-disk particle record is the 32-byte
// packed AoS Particle (dx, dy, dz, i, ux, uy, uz, w); DeltaPack exploits
// its redundancy without ever rounding a bit:
//
//   * the payload is transposed into one stream per 4-byte record field
//     (positions, voxel index, momenta, weight), so values with the same
//     statistics are adjacent,
//   * each stream is XOR-delta coded against its previous value — cell
//     offsets are already cell-base-relative (VPIC keeps dx,dy,dz in
//     [-1,1], i.e. delta-encoded against the cell base coordinate by
//     construction), so neighboring particles share sign/exponent bytes;
//     sorted voxel indices differ by small integers; uniform weights XOR
//     to exactly zero,
//   * every XOR word is stored in its minimal byte width (0, 1, 2 or 4
//     low-order bytes) selected by a 2-bit control code packed into a
//     separate control stream.
//
// Decoding reverses the three steps exactly: the round trip is
// bit-identical for every input (asserted by tests/test_elastic.cpp),
// which is what lets the incremental checkpoint path compress particle
// sections while keeping the bit-identical-restore guarantee of
// docs/CHECKPOINT.md. Encoders never lose data on hostile input either:
// callers fall back to the raw payload when the packed stream is not
// smaller (the chain's staging pass, elastic::DeltaTracker::plan, asks
// the encoder for a stream shorter than the payload and stores the
// payload raw when there is none).
#pragma once

#include <cstddef>
#include <cstdint>

namespace vpic::elastic {

/// Per-section codec tag recorded in the chain manifest (delta.hpp).
enum class Codec : std::uint8_t {
  None = 0,      // payload stored verbatim
  DeltaPack = 1, // field-transposed XOR-delta byte packing (this header)
};

const char* to_string(Codec c) noexcept;

/// The most bytes a stream of `n` bytes of `elem_size`-byte records can
/// take (every word stored at 4 bytes). 0 when the records cannot be
/// encoded: `elem_size` must be a non-zero multiple of 4 that divides a
/// non-zero `n`.
std::size_t deltapack_bound(std::size_t n, std::uint32_t elem_size) noexcept;

/// Encode `n` bytes of `elem_size`-byte records into `out`, which holds
/// `cap` bytes, and return the stream length. Returns 0 when the records
/// cannot be encoded or the stream would not fit in `cap` bytes (it may
/// then have written any of them); callers then store the records raw.
/// A `cap` of deltapack_bound(n, elem_size) always fits. The stream is
/// self-delimiting given (n, elem_size).
std::size_t deltapack_encode(const std::byte* data, std::size_t n,
                             std::uint32_t elem_size, std::byte* out,
                             std::size_t cap) noexcept;

/// Decode a deltapack stream back into exactly `raw_bytes` bytes at
/// `dst`. Returns false (without touching `dst` past the failure point)
/// when the stream is malformed or disagrees with (raw_bytes, elem_size):
/// a corrupt stream is a typed restore failure, never UB.
bool deltapack_decode(const std::byte* src, std::size_t src_bytes,
                      std::byte* dst, std::size_t raw_bytes,
                      std::uint32_t elem_size);

}  // namespace vpic::elastic
