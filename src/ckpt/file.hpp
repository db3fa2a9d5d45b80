// ckpt/file.hpp
//
// Checkpoint file writer/reader over the format in format.hpp.
//
// write_file is the one routine that lays out and writes a checkpoint
// file: it reserves the header and the section table in `<path>.tmp`,
// writes each section's payload behind its zero padding, writes the table
// and the header in place, fsyncs, and atomically renames onto `path`. It
// asks for one section at a time, and each arrives with its payload CRC:
// write_file computes none, so the thread that commits a file (the async
// checkpoint writer) only writes. A crash mid-write leaves at worst a
// stale .tmp, never a half-written committed file.
//
// Writer: accumulate named sections, then seal() gives each its file bytes
// and CRC on the calling thread's kernel team, and commit() writes them
// through write_file. A section is copied in when it is added (add,
// add_bytes, add_pod, add_vector, add_view), or, added through defer_view
// or add_deferred, staged at its size and read from the caller's memory
// only when the writer is sealed: a snapshot then reads the live state
// once, on the team. A sealed writer is a self-contained snapshot
// independent of the live simulation — the unit the async checkpoint path
// hands to its background writer. A writer built from a committed
// writer's released sections stages its payloads in their buffers, so
// periodic checkpoints of one state shape reallocate and zero-fill
// nothing.
//
// Reader: reads the header and section table at open and validates header
// CRC, magic, version, total size and table CRC up front. Each payload is
// read from the file on first access and CRC-validated then, so a caller
// that needs one section (a prune reading "ela.meta", a chain resolving
// the sections a sibling generation stores) reads only that section's
// bytes; take() moves a payload out instead of caching it. Every failure
// is a typed RestoreError (format.hpp), which is what the generation-ring
// fallback dispatches on. Bytes read count into the "ckpt.read_bytes"
// prof counter.
//
// SectionSource is the abstract read surface both FileReader and the
// elastic chain reader (src/elastic, docs/ELASTIC.md) implement: restore
// code written against it consumes a plain single file and a resolved
// base+delta generation chain identically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/serialize.hpp"

namespace vpic::ckpt {

namespace detail {
struct CloseFile {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
}  // namespace detail

/// How much of a sealed section's payload the file holds (all of it, or a
/// shorter encoded stream at its front) and the CRC-32 of those bytes.
struct Sealed {
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

/// One section as write_file writes it: the shape its table record
/// carries, a view of its payload bytes and their CRC-32.
struct SectionRef {
  std::string_view name;
  std::uint32_t elem_size = 1;
  std::uint32_t rank = 0;
  std::array<std::int64_t, 4> extents{};
  std::uint8_t layout = kLayoutRaw;
  std::span<const std::byte> payload;
  std::uint32_t crc = 0;

  SectionRef() = default;
  /// Section `s` as it is, holding the bytes `sealed` describes.
  SectionRef(const EncodedSection& s, Sealed sealed)
      : name(s.name),
        elem_size(s.elem_size),
        rank(s.rank),
        extents(s.extents),
        layout(s.layout),
        payload(s.payload.data(), static_cast<std::size_t>(sealed.bytes)),
        crc(sealed.crc) {}

  /// `n` raw bytes, shaped as FileWriter::add_bytes shapes them, with
  /// their CRC computed here (for small sections).
  static SectionRef bytes(std::string_view name, const void* data,
                          std::size_t n);
};

/// Write a checkpoint file of `count` sections to `path`: `section(i)`
/// gives section i, in file order, and its payload must stay valid until
/// the next call. The file is written to `<path>.tmp`, fsynced, renamed
/// onto `path`, and the directory is fsynced. Returns the committed file
/// size. Throws std::invalid_argument on a bad section name and
/// RestoreError{IoError} on any filesystem failure; on any throw,
/// including one from `section`, the temp file is removed best-effort.
std::uint64_t write_file(
    const std::string& path, std::uint64_t fingerprint, std::int64_t step,
    std::size_t count,
    const std::function<SectionRef(std::size_t)>& section);

/// Run body(i) for every section i on the calling thread's kernel team,
/// one section per league member, largest payload first, so the dynamic
/// schedule ends with small ones and the team finishes together. `name`
/// names the kernel.
void for_each_section(const char* name,
                      const std::vector<EncodedSection>& sections,
                      const std::function<void(std::size_t)>& body);

class FileWriter {
 public:
  FileWriter() = default;

  /// A writer that stages its payloads in the buffers of `spent`, the
  /// sections a committed writer released: the k-th payload staged takes
  /// the k-th spent buffer, so a snapshot shaped like the last one
  /// neither allocates nor zero-fills a payload.
  explicit FileWriter(std::vector<EncodedSection> spent)
      : spent_(std::move(spent)) {}

  /// Add a section; throws std::invalid_argument on duplicate names.
  void add(EncodedSection section);

  /// Add `section`, whose payload is already staged at its full size, to
  /// be filled from the `section.payload.size()` bytes at `src` when the
  /// writer is sealed. The caller keeps those bytes alive and unchanged
  /// until then.
  void add_deferred(EncodedSection section, const std::byte* src);

  /// A `bytes`-long payload buffer for the next section: the next spent
  /// buffer resized (zero-filling only what it grows by), else a fresh
  /// one. Every buffer that has to allocate counts into the
  /// "ckpt.stage_alloc" prof counter. The caller writes every byte.
  [[nodiscard]] std::vector<std::byte> stage(std::size_t bytes);

  /// Move the sections out, leaving the writer empty: the buffers the
  /// next snapshot stages in.
  [[nodiscard]] std::vector<EncodedSection> release_sections() noexcept {
    sources_.clear();
    sealed_.clear();
    return std::exchange(sections_, {});
  }

  template <class T, int R, class L, class M>
  void add_view(std::string_view name, const pk::View<T, R, L, M>& v,
                index_t count = -1) {
    const index_t n = R == 1 && count >= 0 ? count : v.size();
    add(encode_view(name, v, count,
                    stage(static_cast<std::size_t>(n) * sizeof(T))));
  }

  /// add_view, read from the view when the writer is sealed (add_deferred).
  template <class T, int R, class L>
  void defer_view(std::string_view name,
                  const pk::View<T, R, L, pk::HostSpace>& v,
                  index_t count = -1) {
    const index_t n = R == 1 && count >= 0 ? count : v.size();
    EncodedSection s = view_shape(name, v, count);
    s.payload = stage(static_cast<std::size_t>(n) * sizeof(T));
    add_deferred(std::move(s), reinterpret_cast<const std::byte*>(v.data()));
  }

  void add_bytes(std::string_view name, const void* data, std::size_t n);

  template <class Pod>
  void add_pod(std::string_view name, const Pod& v) {
    static_assert(std::is_trivially_copyable_v<Pod>);
    add_bytes(name, &v, sizeof(Pod));
  }

  template <class Pod>
  void add_vector(std::string_view name, const std::vector<Pod>& v) {
    static_assert(std::is_trivially_copyable_v<Pod>);
    EncodedSection s;
    s.name = std::string(name);
    s.elem_size = sizeof(Pod);
    s.rank = 1;
    s.extents[0] = static_cast<std::int64_t>(v.size());
    s.layout = kLayoutRight;
    s.payload = stage(v.size() * sizeof(Pod));
    if (!v.empty()) std::memcpy(s.payload.data(), v.data(), s.payload.size());
    add(std::move(s));
  }

  [[nodiscard]] std::size_t section_count() const noexcept {
    return sections_.size();
  }

  /// The accumulated sections, in add() order. A deferred section's
  /// payload holds its bytes only once the writer is sealed.
  [[nodiscard]] const std::vector<EncodedSection>& sections() const noexcept {
    return sections_;
  }

  /// Section i's raw bytes where they are now: the caller's memory for a
  /// deferred section not yet sealed, else its payload.
  [[nodiscard]] std::span<const std::byte> source(std::size_t i) const {
    const EncodedSection& s = sections_[i];
    return {sources_[i] != nullptr ? sources_[i] : s.payload.data(),
            s.payload.size()};
  }

  /// fill(i, src, dst) may write section i's file bytes, encoded from its
  /// raw bytes `src`, into `dst` (its payload, as long as `src`) and
  /// return how many it wrote; 0 has the raw bytes stored.
  using Fill = std::function<std::size_t(
      std::size_t i, std::span<const std::byte> src, std::byte* dst)>;

  /// Give every section its file bytes and their CRC on the calling
  /// thread's kernel team (for_each_section): `fill`'s bytes when it
  /// writes some, else the raw bytes, copied in from a deferred section's
  /// source. Deferred sources are not read again afterwards. The team
  /// runs it as the "ckpt_seal" kernel.
  void seal(const Fill& fill = {});

  /// Per section, what seal() left in its payload; empty until sealed.
  [[nodiscard]] const std::vector<Sealed>& sealed() const noexcept {
    return sealed_;
  }

  /// Seal the writer unless it is, then write its sections to `path`
  /// through write_file. Returns the committed file size; throws as
  /// write_file does.
  std::uint64_t commit(const std::string& path, std::uint64_t fingerprint,
                       std::int64_t step);

 private:
  std::vector<EncodedSection> sections_;
  std::vector<const std::byte*> sources_;  // deferred sources, else null
  std::vector<Sealed> sealed_;             // per section once sealed
  std::vector<EncodedSection> spent_;      // payload buffers to stage in
  std::size_t next_spent_ = 0;
};

/// Abstract read surface for restore code: a set of named sections plus
/// the envelope metadata (fingerprint, step). FileReader implements it
/// over a single committed file; elastic::ChainReader implements it over
/// a resolved base+delta generation chain. Everything in
/// core/checkpoint.cpp restores through this interface, so a simulation
/// cannot tell the two apart.
class SectionSource {
 public:
  virtual ~SectionSource() = default;

  [[nodiscard]] virtual bool has(std::string_view name) const = 0;

  /// All section names, sorted. Lets restore code enumerate
  /// name-prefixed groups it does not know statically (module sections,
  /// docs/CHECKPOINT.md).
  [[nodiscard]] virtual std::vector<std::string> section_names() const = 0;

  /// Fetch a section by name (integrity-validated on first access).
  /// Throws RestoreError{MissingSection} / {SectionCorrupt}.
  virtual const EncodedSection& section(std::string_view name) = 0;

  [[nodiscard]] virtual std::uint64_t fingerprint() const noexcept = 0;
  [[nodiscard]] virtual std::int64_t step() const noexcept = 0;

  template <class T, int R, class L = pk::LayoutRight>
  pk::View<T, R, L> view(std::string_view name,
                         const std::string& label = "") {
    return decode_view<T, R, L>(section(name), label);
  }

  template <class T, int R, class L, class M>
  void read_view(std::string_view name, const pk::View<T, R, L, M>& dst) {
    decode_view_into(section(name), dst);
  }

  template <class Pod>
  Pod pod(std::string_view name) {
    static_assert(std::is_trivially_copyable_v<Pod>);
    const EncodedSection& s = section(name);
    if (s.payload.size() != sizeof(Pod))
      throw RestoreError(RestoreErrorKind::ShapeMismatch,
                         "section '" + s.name + "' holds " +
                             std::to_string(s.payload.size()) +
                             " bytes, expected pod of " +
                             std::to_string(sizeof(Pod)));
    Pod v;
    std::memcpy(&v, s.payload.data(), sizeof(Pod));
    return v;
  }

  template <class Pod>
  std::vector<Pod> vector(std::string_view name) {
    static_assert(std::is_trivially_copyable_v<Pod>);
    const EncodedSection& s = section(name);
    if (s.elem_size != sizeof(Pod) || s.payload.size() % sizeof(Pod) != 0)
      throw RestoreError(RestoreErrorKind::ShapeMismatch,
                         "section '" + s.name + "' is not an array of " +
                             std::to_string(sizeof(Pod)) + "-byte elements");
    std::vector<Pod> v(s.payload.size() / sizeof(Pod));
    if (!v.empty()) std::memcpy(v.data(), s.payload.data(), s.payload.size());
    return v;
  }

  /// Throws RestoreError{FingerprintMismatch} unless the source was
  /// written by a matching deck/config.
  void require_fingerprint(std::uint64_t expected) const {
    if (fingerprint() != expected)
      throw RestoreError(RestoreErrorKind::FingerprintMismatch,
                         "checkpoint was written by a different deck/config "
                         "(have " +
                             std::to_string(fingerprint()) + ", expected " +
                             std::to_string(expected) + ")");
  }
};

class FileReader : public SectionSource {
 public:
  /// Open + validate the envelope (header CRC, magic, version, size,
  /// table CRC). The file stays open; each payload is read and
  /// CRC-validated on first access.
  explicit FileReader(const std::string& path);

  [[nodiscard]] std::uint64_t fingerprint() const noexcept override {
    return header_.fingerprint;
  }
  [[nodiscard]] std::int64_t step() const noexcept override {
    return header_.step;
  }
  [[nodiscard]] std::size_t section_count() const noexcept {
    return sections_.size();
  }
  [[nodiscard]] bool has(std::string_view name) const override {
    return index_.count(std::string(name)) != 0;
  }

  /// All section names in the file, sorted (the index is an ordered map).
  [[nodiscard]] std::vector<std::string> section_names() const override;

  /// Fetch a section by name, reading and CRC-validating its payload on
  /// first access. Throws RestoreError{MissingSection} / {SectionCorrupt},
  /// or {Truncated} when the file ends before the payload does.
  const EncodedSection& section(std::string_view name) override;

  /// section(name), moved out of the reader instead of cached: the reader
  /// holds no copy of it afterwards, and a later access reads it again.
  EncodedSection take(std::string_view name);

  /// CRC-validate every payload now. Restore paths call this before
  /// mutating any live state, so a torn/flipped payload anywhere in the
  /// file surfaces before a single byte of the simulation changes.
  void validate_all();

 private:
  struct Slot {
    EncodedSection section;  // payload filled+validated on first access
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    bool loaded = false;
  };

  /// Read `n` bytes at `offset` into `dst`; false on a short read.
  bool read_at(std::uint64_t offset, void* dst, std::size_t n);
  /// The slot of section `name`, its payload read and CRC-validated.
  Slot& load(std::string_view name);

  FileHeader header_{};
  std::unique_ptr<std::FILE, detail::CloseFile> file_;
  std::vector<Slot> sections_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::string path_;
};

}  // namespace vpic::ckpt
