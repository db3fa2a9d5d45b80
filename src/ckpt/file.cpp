#include "ckpt/file.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "ckpt/crc32.hpp"
#include "pk/pk.hpp"
#include "prof/prof.hpp"

namespace vpic::ckpt {

namespace fs = std::filesystem;

void FileWriter::add(EncodedSection section) {
  if (section.name.empty() || section.name.size() > kSectionNameMax)
    throw std::invalid_argument("ckpt: bad section name '" + section.name +
                                "'");
  for (const auto& s : sections_)
    if (s.name == section.name)
      throw std::invalid_argument("ckpt: duplicate section '" + section.name +
                                  "'");
  sections_.push_back(std::move(section));
  sources_.push_back(nullptr);
  sealed_.clear();
}

void FileWriter::add_deferred(EncodedSection section, const std::byte* src) {
  add(std::move(section));
  sources_.back() = src;
}

std::vector<std::byte> FileWriter::stage(std::size_t bytes) {
  std::vector<std::byte> buf;
  if (next_spent_ < spent_.size())
    buf = std::move(spent_[next_spent_++].payload);
  if (buf.capacity() < bytes) prof::counter_add("ckpt.stage_alloc");
  buf.resize(bytes);
  return buf;
}

void FileWriter::add_bytes(std::string_view name, const void* data,
                           std::size_t n) {
  EncodedSection s;
  s.name = std::string(name);
  s.elem_size = 1;
  s.rank = 0;
  s.extents[0] = static_cast<std::int64_t>(n);
  s.layout = kLayoutRaw;
  s.payload = stage(n);
  if (n) std::memcpy(s.payload.data(), data, n);
  add(std::move(s));
}

namespace {

/// Raw payloads are copied and CRC'd in pieces of this many bytes, so each
/// piece is still in cache when the CRC reads it.
constexpr std::size_t kPiece = std::size_t{1} << 18;

}  // namespace

SectionRef SectionRef::bytes(std::string_view name, const void* data,
                             std::size_t n) {
  SectionRef r;
  r.name = name;
  r.extents[0] = static_cast<std::int64_t>(n);
  r.payload = {static_cast<const std::byte*>(data), n};
  r.crc = crc32(data, n);
  return r;
}

void for_each_section(const char* name,
                      const std::vector<EncodedSection>& sections,
                      const std::function<void(std::size_t)>& body) {
  std::vector<std::size_t> order(sections.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sections[a].payload.size() >
                            sections[b].payload.size();
                   });
  pk::parallel_for(name,
                   pk::TeamPolicy<>(static_cast<pk::index_t>(order.size()), 1),
                   [&](const pk::TeamMember& m) {
                     body(order[static_cast<std::size_t>(m.league_rank())]);
                   });
}

void FileWriter::seal(const Fill& fill) {
  sealed_.assign(sections_.size(), Sealed{});
  for_each_section("ckpt_seal", sections_, [&](std::size_t i) {
    const std::span<const std::byte> src = source(i);
    std::byte* const dst = sections_[i].payload.data();
    const std::size_t wrote = fill ? fill(i, src, dst) : 0;
    if (wrote != 0) {
      sealed_[i] = {wrote, crc32(dst, wrote)};
      return;
    }
    std::uint32_t crc = 0;  // crc32's initial seed
    for (std::size_t o = 0; o < src.size(); o += kPiece) {
      const std::size_t n = std::min(kPiece, src.size() - o);
      if (src.data() != dst) std::memcpy(dst + o, src.data() + o, n);
      crc = crc32(dst + o, n, crc);
    }
    sealed_[i] = {src.size(), crc};
  });
  std::fill(sources_.begin(), sources_.end(), nullptr);
}

std::uint64_t write_file(
    const std::string& path, std::uint64_t fingerprint, std::int64_t step,
    std::size_t count,
    const std::function<SectionRef(std::size_t)>& section) {
  prof::ScopedRegion r("ckpt_commit");

  // Layout: header, table, then 8-byte-aligned payloads behind zero
  // padding. The header and the table are reserved first and written
  // again, filled in, once every payload's offset and CRC is known; the
  // rename below is the commit point (POSIX rename atomicity), so a
  // partial temp file is never a committed generation.
  FileHeader h;
  h.fingerprint = fingerprint;
  h.step = step;
  h.section_count = static_cast<std::uint32_t>(count);
  h.table_offset = sizeof(FileHeader);
  std::vector<SectionRecord> table(count);
  const std::size_t table_bytes = count * sizeof(SectionRecord);

  const std::string tmp = path + ".tmp";
  {
    prof::ScopedRegion w("ckpt_write_file");
    std::unique_ptr<std::FILE, detail::CloseFile> f(
        std::fopen(tmp.c_str(), "wb"));
    if (!f)
      throw RestoreError(RestoreErrorKind::IoError,
                         "cannot open '" + tmp + "' for writing");
    const auto put = [&f](const void* p, std::size_t n) {
      return n == 0 || std::fwrite(p, 1, n, f.get()) == n;
    };
    static constexpr std::byte kZeros[kPayloadAlign] = {};
    bool wrote = false, flushed = false;
    try {
      wrote = put(&h, sizeof(h)) && put(table.data(), table_bytes);
      std::uint64_t at = h.table_offset + table_bytes;
      for (std::size_t i = 0; wrote && i < count; ++i) {
        const SectionRef s = section(i);
        if (s.name.empty() || s.name.size() > kSectionNameMax)
          throw std::invalid_argument("ckpt: bad section name '" +
                                      std::string(s.name) + "'");
        SectionRecord& rec = table[i];
        std::memcpy(rec.name, s.name.data(), s.name.size());
        rec.elem_size = s.elem_size;
        rec.rank = s.rank;
        for (std::size_t d = 0; d < 4; ++d) rec.extents[d] = s.extents[d];
        rec.layout = s.layout;
        rec.payload_offset =
            (at + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
        rec.payload_bytes = s.payload.size();
        rec.payload_crc = s.crc;
        wrote = put(kZeros, rec.payload_offset - at) &&
                put(s.payload.data(), s.payload.size());
        at = rec.payload_offset + rec.payload_bytes;
      }
      h.total_bytes = at;
      h.table_crc = crc32(table.data(), table_bytes);
      h.header_crc = crc32(&h, kHeaderCrcBytes);
      wrote = wrote && std::fseek(f.get(), 0, SEEK_SET) == 0 &&
              put(&h, sizeof(h)) && put(table.data(), table_bytes);
      flushed = wrote && std::fflush(f.get()) == 0;
#ifndef _WIN32
      // fflush only reaches the page cache; a power loss (as opposed to a
      // process kill) could leave the renamed "committed" file empty or
      // torn, and all recent generations can share one unflushed window.
      if (flushed) flushed = ::fsync(::fileno(f.get())) == 0;
#endif
    } catch (...) {
      f.reset();
      std::error_code ec;
      fs::remove(tmp, ec);
      throw;
    }
    f.reset();
    if (!wrote || !flushed) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw RestoreError(RestoreErrorKind::IoError,
                         "short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    throw RestoreError(RestoreErrorKind::IoError,
                       "rename '" + tmp + "' -> '" + path +
                           "' failed: " + ec.message());
  }
#ifndef _WIN32
  // The rename itself lives in the directory: fsync the parent so the new
  // name is durable before the generation counts as committed.
  const fs::path parent_path = fs::path(path).parent_path();
  const std::string parent = parent_path.empty() ? "." : parent_path.string();
  const int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    const bool dir_synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!dir_synced)
      throw RestoreError(RestoreErrorKind::IoError,
                         "fsync of directory '" + parent + "' failed");
  }
#endif
  return h.total_bytes;
}

std::uint64_t FileWriter::commit(const std::string& path,
                                 std::uint64_t fingerprint,
                                 std::int64_t step) {
  if (sealed_.size() != sections_.size()) seal();
  return write_file(path, fingerprint, step, sections_.size(),
                    [this](std::size_t i) {
                      return SectionRef(sections_[i], sealed_[i]);
                    });
}

bool FileReader::read_at(std::uint64_t offset, void* dst, std::size_t n) {
  if (n == 0) return true;
  if (std::fseek(file_.get(), static_cast<long>(offset), SEEK_SET) != 0)
    return false;
  const std::size_t got = std::fread(dst, 1, n, file_.get());
  prof::counter_add("ckpt.read_bytes", got);
  return got == n;
}

FileReader::FileReader(const std::string& path) : path_(path) {
  prof::ScopedRegion r("ckpt_open");

  file_.reset(std::fopen(path.c_str(), "rb"));
  if (!file_)
    throw RestoreError(RestoreErrorKind::IoError,
                       "cannot open '" + path + "'");
  // Unbuffered: every read_at is one read of exactly the bytes asked for
  // (a payload goes straight into its section, with no staging copy).
  std::setvbuf(file_.get(), nullptr, _IONBF, 0);
  std::fseek(file_.get(), 0, SEEK_END);
  const long sz = std::ftell(file_.get());
  const std::uint64_t file_bytes = sz > 0 ? static_cast<std::uint64_t>(sz) : 0;

  if (file_bytes < sizeof(FileHeader))
    throw RestoreError(RestoreErrorKind::Truncated,
                       "'" + path + "' is smaller than a header (" +
                           std::to_string(file_bytes) + " bytes)");
  if (!read_at(0, &header_, sizeof(FileHeader)))
    throw RestoreError(RestoreErrorKind::IoError,
                       "short read from '" + path + "'");

  if (header_.magic != kMagic)
    throw RestoreError(RestoreErrorKind::BadMagic,
                       "'" + path + "' is not a vpic checkpoint");
  if (crc32(&header_, kHeaderCrcBytes) != header_.header_crc)
    throw RestoreError(RestoreErrorKind::HeaderCorrupt,
                       "header CRC mismatch in '" + path + "'");
  if (header_.version != kFormatVersion)
    throw RestoreError(RestoreErrorKind::BadVersion,
                       "'" + path + "' has format version " +
                           std::to_string(header_.version) + ", expected " +
                           std::to_string(kFormatVersion));
  if (header_.total_bytes > file_bytes)
    throw RestoreError(RestoreErrorKind::Truncated,
                       "'" + path + "' holds " + std::to_string(file_bytes) +
                           " of " + std::to_string(header_.total_bytes) +
                           " committed bytes");

  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(header_.section_count) *
      sizeof(SectionRecord);
  // Overflow-safe form: "offset + bytes > total" can wrap in uint64 for a
  // crafted file whose CRCs are self-consistent (CRCs are not integrity
  // protection against malicious input), passing the check and reading
  // out of bounds.
  if (table_bytes > header_.total_bytes ||
      header_.table_offset > header_.total_bytes - table_bytes)
    throw RestoreError(RestoreErrorKind::TableCorrupt,
                       "section table out of bounds in '" + path + "'");
  std::vector<SectionRecord> table(header_.section_count);
  if (!read_at(header_.table_offset, table.data(), table_bytes))
    throw RestoreError(RestoreErrorKind::IoError,
                       "short read from '" + path + "'");
  if (crc32(table.data(), table_bytes) != header_.table_crc)
    throw RestoreError(RestoreErrorKind::TableCorrupt,
                       "section table CRC mismatch in '" + path + "'");

  sections_.resize(header_.section_count);
  for (std::uint32_t i = 0; i < header_.section_count; ++i) {
    SectionRecord& rec = table[i];
    Slot& slot = sections_[i];
    // Defensive NUL-termination: name[] is NUL-padded on write.
    rec.name[kSectionNameMax] = '\0';
    slot.section.name = rec.name;
    slot.section.elem_size = rec.elem_size;
    slot.section.rank = rec.rank;
    for (std::size_t d = 0; d < 4; ++d)
      slot.section.extents[d] = rec.extents[d];
    slot.section.layout = rec.layout;
    slot.offset = rec.payload_offset;
    slot.bytes = rec.payload_bytes;
    slot.crc = rec.payload_crc;
    // Same overflow-safe form as the table bound above.
    if (slot.bytes > header_.total_bytes ||
        slot.offset > header_.total_bytes - slot.bytes)
      throw RestoreError(RestoreErrorKind::TableCorrupt,
                         "section '" + slot.section.name +
                             "' payload out of bounds in '" + path + "'");
    if (!index_.emplace(slot.section.name, i).second)
      throw RestoreError(RestoreErrorKind::TableCorrupt,
                         "duplicate section '" + slot.section.name +
                             "' in '" + path + "'");
  }
}

FileReader::Slot& FileReader::load(std::string_view name) {
  auto it = index_.find(name);
  if (it == index_.end())
    throw RestoreError(RestoreErrorKind::MissingSection,
                       "no section '" + std::string(name) + "' in '" +
                           path_ + "'");
  Slot& slot = sections_[it->second];
  if (!slot.loaded) {
    std::vector<std::byte> payload(static_cast<std::size_t>(slot.bytes));
    if (!read_at(slot.offset, payload.data(), payload.size()))
      throw RestoreError(RestoreErrorKind::Truncated,
                         "'" + path_ + "' ends inside section '" +
                             slot.section.name + "'");
    if (crc32(payload.data(), payload.size()) != slot.crc)
      throw RestoreError(RestoreErrorKind::SectionCorrupt,
                         "payload CRC mismatch in section '" +
                             slot.section.name + "' of '" + path_ + "'");
    slot.section.payload = std::move(payload);
    slot.loaded = true;
  }
  return slot;
}

const EncodedSection& FileReader::section(std::string_view name) {
  return load(name).section;
}

EncodedSection FileReader::take(std::string_view name) {
  Slot& slot = load(name);
  std::vector<std::byte> payload = std::move(slot.section.payload);
  slot.section.payload = {};
  slot.loaded = false;
  EncodedSection out = slot.section;  // the shape
  out.payload = std::move(payload);
  return out;
}

std::vector<std::string> FileReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const auto& [name, idx] : index_) {
    (void)idx;
    names.push_back(name);
  }
  return names;
}

void FileReader::validate_all() {
  for (const auto& [name, idx] : index_) {
    (void)idx;
    (void)section(name);
  }
}


}  // namespace vpic::ckpt
