// ckpt/serialize.hpp
//
// pk-level View serialization: encode_view() snapshots any pk::View into a
// stable in-memory section (dtype size, extents, layout tag + payload
// bytes) via a host mirror, and view_shape() gives the same section
// without its payload, for a writer that fills it later
// (FileWriter::defer_view); decode_view() rebuilds a View from a section,
// validating shape metadata before touching the bytes. These are the
// primitives the checkpoint writer/reader compose (docs/CHECKPOINT.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/format.hpp"
#include "pk/pk.hpp"

namespace vpic::ckpt {

using pk::index_t;

namespace detail {

template <class Layout>
constexpr std::uint8_t layout_tag() noexcept {
  if constexpr (std::is_same_v<Layout, pk::LayoutLeft>)
    return kLayoutLeft;
  else
    return kLayoutRight;
}

}  // namespace detail

/// One named section: shape metadata plus an owned payload copy. The
/// writer turns these into SectionRecords + payload bytes; the reader
/// hands them back after CRC validation.
struct EncodedSection {
  std::string name;
  std::uint32_t elem_size = 1;
  std::uint32_t rank = 0;  // 0: raw bytes / pod
  std::array<std::int64_t, 4> extents{};
  std::uint8_t layout = kLayoutRaw;
  std::vector<std::byte> payload;
};

/// The shape a section encoding view `v` carries, with no payload. For
/// rank-1 views `count` restricts the section to the first `count`
/// elements (a particle array's live prefix); the default -1 takes the
/// full extent.
template <class T, int R, class L, class M>
EncodedSection view_shape(std::string_view name, const pk::View<T, R, L, M>& v,
                          index_t count = -1) {
  if (name.size() > kSectionNameMax)
    throw std::invalid_argument("ckpt::encode_view: section name too long: " +
                                std::string(name));
  EncodedSection s;
  s.name = std::string(name);
  s.elem_size = sizeof(T);
  s.rank = R;
  s.layout = detail::layout_tag<L>();
  for (int d = 0; d < R; ++d) s.extents[static_cast<std::size_t>(d)] = v.extent(d);
  if constexpr (R == 1) {
    if (count >= 0) {
      assert(count <= v.extent(0));
      s.extents[0] = count;
    }
  } else {
    assert(count < 0 && "prefix encoding is rank-1 only");
  }
  return s;
}

/// Snapshot a view into an EncodedSection shaped by view_shape. The copy
/// goes through a host mirror for non-host memory spaces, mirroring how a
/// Kokkos build would stage device Views for I/O. `payload` is a buffer
/// to copy into (FileWriter::stage() hands one over already sized, so
/// the resize below does nothing); by default a fresh one.
template <class T, int R, class L, class M>
EncodedSection encode_view(std::string_view name,
                           const pk::View<T, R, L, M>& v,
                           index_t count = -1,
                           std::vector<std::byte> payload = {}) {
  EncodedSection s = view_shape(name, v, count);
  const index_t n = R == 1 && count >= 0 ? count : v.size();
  s.payload = std::move(payload);
  s.payload.resize(static_cast<std::size_t>(n) * sizeof(T));
  if constexpr (std::is_same_v<M, pk::HostSpace>) {
    std::memcpy(s.payload.data(), v.data(), s.payload.size());
  } else {
    // Stage through a host mirror (deep copy); prefix encodings then take
    // the mirror's leading bytes — the mirror is contiguous by layout.
    auto host = pk::create_mirror_copy(v);
    std::memcpy(s.payload.data(), host.data(), s.payload.size());
  }
  return s;
}

/// Validate a section's metadata against the target view type; throws
/// RestoreError{ShapeMismatch} naming the first disagreement.
template <class T, int R, class L>
void check_view_shape(const EncodedSection& s) {
  if (s.elem_size != sizeof(T))
    throw RestoreError(RestoreErrorKind::ShapeMismatch,
                       "section '" + s.name + "' element size " +
                           std::to_string(s.elem_size) + " != expected " +
                           std::to_string(sizeof(T)));
  if (s.rank != static_cast<std::uint32_t>(R))
    throw RestoreError(RestoreErrorKind::ShapeMismatch,
                       "section '" + s.name + "' rank " +
                           std::to_string(s.rank) + " != expected " +
                           std::to_string(R));
  if (s.layout != detail::layout_tag<L>())
    throw RestoreError(RestoreErrorKind::ShapeMismatch,
                       "section '" + s.name + "' layout tag mismatch");
  std::int64_t n = 1;
  for (int d = 0; d < R; ++d) n *= s.extents[static_cast<std::size_t>(d)];
  if (s.payload.size() != static_cast<std::size_t>(n) * sizeof(T))
    throw RestoreError(RestoreErrorKind::ShapeMismatch,
                       "section '" + s.name + "' payload size " +
                           std::to_string(s.payload.size()) +
                           " disagrees with extents");
}

/// Rebuild a freshly allocated view from a section.
template <class T, int R, class L = pk::LayoutRight>
pk::View<T, R, L> decode_view(const EncodedSection& s,
                              const std::string& label = "") {
  check_view_shape<T, R, L>(s);
  const std::string lab = label.empty() ? s.name : label;
  const auto& e = s.extents;
  pk::View<T, R, L> v = [&] {
    if constexpr (R == 1)
      return pk::View<T, R, L>(lab, e[0]);
    else if constexpr (R == 2)
      return pk::View<T, R, L>(lab, e[0], e[1]);
    else if constexpr (R == 3)
      return pk::View<T, R, L>(lab, e[0], e[1], e[2]);
    else
      return pk::View<T, R, L>(lab, e[0], e[1], e[2], e[3]);
  }();
  std::memcpy(v.data(), s.payload.data(), s.payload.size());
  return v;
}

/// Decode into an existing allocation. Extents must match exactly, except
/// that a rank-1 destination may be *larger* than the encoded prefix (a
/// particle array restored into its capacity buffer).
template <class T, int R, class L, class M>
void decode_view_into(const EncodedSection& s,
                      const pk::View<T, R, L, M>& dst) {
  check_view_shape<T, R, L>(s);
  for (int d = 0; d < R; ++d) {
    const std::int64_t have = dst.extent(d);
    const std::int64_t want = s.extents[static_cast<std::size_t>(d)];
    const bool ok = (R == 1 && d == 0) ? have >= want : have == want;
    if (!ok)
      throw RestoreError(RestoreErrorKind::ShapeMismatch,
                         "section '" + s.name + "' extent(" +
                             std::to_string(d) + ")=" + std::to_string(want) +
                             " does not fit destination extent " +
                             std::to_string(have));
  }
  // Host-only build: both memory spaces are host-accessible, so the
  // restore lands directly (a device build would stage via a mirror).
  std::memcpy(dst.data(), s.payload.data(), s.payload.size());
}

}  // namespace vpic::ckpt
