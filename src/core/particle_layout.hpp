// core/particle_layout.hpp
//
// The ParticleLayout policy: how a Species stores its particles in memory.
// The paper's portability argument (Section 2.3, after Cabana and LLAMA)
// is that layout must be a per-container *decision*, not a hard-coded
// struct — the CPU-friendly AoS record and the GPU-coalescing SoA planes
// are two strided relabelings of the same logical (particle, field)
// array, and each wins a measured kernel (docs/LAYOUT.md). This header is
// deliberately tiny and dependency-free so both the storage layer
// (ParticleStore) and the GPU traffic model (gpusim/push_model.hpp) can
// name layouts without pulling in the engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace vpic::core {

enum class ParticleLayout : std::uint8_t {
  AoS,  ///< one packed 32-byte Particle record per particle (seed layout)
  SoA,  ///< one contiguous plane per field
};

inline constexpr ParticleLayout kAllParticleLayouts[] = {ParticleLayout::AoS,
                                                         ParticleLayout::SoA};
inline constexpr int kNumParticleLayouts = 2;

inline const char* to_string(ParticleLayout l) noexcept {
  switch (l) {
    case ParticleLayout::AoS:
      return "aos";
    case ParticleLayout::SoA:
      return "soa";
  }
  return "?";
}

inline std::optional<ParticleLayout> parse_particle_layout(
    std::string_view s) noexcept {
  if (s == "aos") return ParticleLayout::AoS;
  if (s == "soa") return ParticleLayout::SoA;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Streaming-traffic accounting (gpusim model + fig benches).
//
// The analytic GPU model charges DRAM traffic per particle touched. How
// many bytes a touch costs depends on the layout, because DRAM moves
// whole transactions:
//
//  * record bytes — a full read-modify-write of one particle (push,
//    sort scatter). Both layouts store the same 8 fields x 4 bytes,
//    so a full touch streams 32 B regardless of where the fields live.
//  * key-read bytes — reading ONLY the cell index (cell_keys extraction,
//    run probing, histogram passes). AoS drags the whole 32 B record
//    through the memory system for its 4 useful bytes (the record fills
//    a transaction-granular stride); SoA keeps cell indices densely
//    packed in a dedicated plane, so a streaming key sweep pays ~4 B per
//    particle.
// ---------------------------------------------------------------------------

/// Bytes streamed per particle for a full-record touch.
inline constexpr int particle_record_bytes(ParticleLayout) noexcept {
  return 32;
}

/// Bytes streamed per particle when only the cell index is read.
inline constexpr int particle_key_read_bytes(ParticleLayout l) noexcept {
  return l == ParticleLayout::AoS ? 32 : 4;
}

}  // namespace vpic::core
