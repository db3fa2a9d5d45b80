// elastic/delta.cpp — VPICELA2 chain planning, commit and resolution
// (see delta.hpp, docs/ELASTIC.md).

#include "elastic/delta.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "ckpt/ring.hpp"

namespace vpic::elastic {

using ckpt::EncodedSection;
using ckpt::RestoreError;
using ckpt::RestoreErrorKind;

// ---------------------------------------------------------------------------
// Payload hashes

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

template <class U>
U load_le(const unsigned char* p) noexcept {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(U));
  } else {
    for (std::size_t b = 0; b < sizeof(U); ++b) v |= U{p[b]} << (8 * b);
  }
  return v;
}

/// One lane absorbing one 8-byte word.
inline std::uint64_t lane(std::uint64_t acc, std::uint64_t word) noexcept {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

}  // namespace

std::uint64_t payload_hash(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = kP5;
  if (n >= 32) {
    // Four independent lanes, one 8-byte word each per 32-byte stripe.
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane(v1, load_le<std::uint64_t>(p));
      v2 = lane(v2, load_le<std::uint64_t>(p + 8));
      v3 = lane(v3, load_le<std::uint64_t>(p + 16));
      v4 = lane(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    for (const std::uint64_t v : {v1, v2, v3, v4})
      h = (h ^ lane(0, v)) * kP1 + kP4;
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane(0, load_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ load_le<std::uint32_t>(p) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

namespace {

/// FNV-1a 64, one byte at a time: the hash of VPICELA1 chains.
std::uint64_t payload_hash_fnv(const void* data, std::size_t n) noexcept {
  ckpt::Fingerprint h;
  h.add_bytes(data, n);
  return h.value();
}

using PayloadHash = std::uint64_t (*)(const void*, std::size_t) noexcept;

/// The hash generation `path`, whose ElaMeta magic is `magic`, records.
/// Throws RestoreError{BadVersion} when the magic is a chain magic this
/// build does not know, {SectionCorrupt} when it is not a chain magic.
PayloadHash chain_hash(std::uint64_t magic, const std::string& path) {
  if (magic == kElaMagic) return payload_hash;
  if (magic == kElaMagicV1) return payload_hash_fnv;
  // "VPICELA" and a version byte this build does not know.
  if (magic >> 8 == kElaMagic >> 8)
    throw RestoreError(RestoreErrorKind::BadVersion,
                       "'" + path + "' is chain version '" +
                           std::string(1, static_cast<char>(magic & 0xFFu)) +
                           "', whose payload hash this build does not know");
  throw RestoreError(RestoreErrorKind::SectionCorrupt,
                     "'" + path + "' has a bad ela.meta magic");
}

}  // namespace

// ---------------------------------------------------------------------------
// Manifest (de)serialization. Fixed little-endian-as-memcpy layout per
// entry after a u32 count:
//   u16 name_len, name bytes, i64 src_gen, u8 codec, u8 layout,
//   u32 elem_size, u32 rank, i64 extents[4], u64 raw_bytes, u64 hash

namespace {

template <class Pod>
void put(std::vector<std::byte>& out, const Pod& v) {
  static_assert(std::is_trivially_copyable_v<Pod>);
  const auto at = out.size();
  out.resize(at + sizeof(Pod));
  std::memcpy(out.data() + at, &v, sizeof(Pod));
}

template <class Pod>
Pod get(const std::byte* data, std::size_t n, std::size_t& at) {
  static_assert(std::is_trivially_copyable_v<Pod>);
  if (at + sizeof(Pod) > n)
    throw RestoreError(RestoreErrorKind::SectionCorrupt,
                       "'ela.manifest' is truncated");
  Pod v;
  std::memcpy(&v, data + at, sizeof(Pod));
  at += sizeof(Pod);
  return v;
}

}  // namespace

std::vector<std::byte> serialize_manifest(
    const std::vector<ManifestEntry>& entries) {
  std::vector<std::byte> out;
  put(out, static_cast<std::uint32_t>(entries.size()));
  for (const ManifestEntry& e : entries) {
    put(out, static_cast<std::uint16_t>(e.name.size()));
    const auto at = out.size();
    out.resize(at + e.name.size());
    if (!e.name.empty()) std::memcpy(out.data() + at, e.name.data(), e.name.size());
    put(out, e.src_gen);
    put(out, static_cast<std::uint8_t>(e.codec));
    put(out, e.layout);
    put(out, e.elem_size);
    put(out, e.rank);
    for (std::int64_t x : e.extents) put(out, x);
    put(out, e.raw_bytes);
    put(out, e.hash);
  }
  return out;
}

std::vector<ManifestEntry> parse_manifest(const std::byte* data,
                                          std::size_t n) {
  std::size_t at = 0;
  const auto count = get<std::uint32_t>(data, n, at);
  std::vector<ManifestEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestEntry e;
    const auto len = get<std::uint16_t>(data, n, at);
    if (at + len > n)
      throw RestoreError(RestoreErrorKind::SectionCorrupt,
                         "'ela.manifest' is truncated");
    e.name.assign(reinterpret_cast<const char*>(data + at), len);
    at += len;
    e.src_gen = get<std::int64_t>(data, n, at);
    e.codec = static_cast<Codec>(get<std::uint8_t>(data, n, at));
    e.layout = get<std::uint8_t>(data, n, at);
    e.elem_size = get<std::uint32_t>(data, n, at);
    e.rank = get<std::uint32_t>(data, n, at);
    for (std::int64_t& x : e.extents) x = get<std::int64_t>(data, n, at);
    e.raw_bytes = get<std::uint64_t>(data, n, at);
    e.hash = get<std::uint64_t>(data, n, at);
    entries.push_back(std::move(e));
  }
  if (at != n)
    throw RestoreError(RestoreErrorKind::SectionCorrupt,
                       "'ela.manifest' has trailing bytes");
  return entries;
}

std::string sibling_generation_path(const std::string& path,
                                    std::int64_t gen) {
  // Ring naming is "<base>.g<digits>" (ckpt/ring.hpp): strip the suffix.
  const auto dot = path.rfind(".g");
  bool ok = dot != std::string::npos && dot + 2 < path.size();
  if (ok)
    for (std::size_t i = dot + 2; i < path.size(); ++i)
      ok = ok && std::isdigit(static_cast<unsigned char>(path[i])) != 0;
  if (!ok)
    throw RestoreError(RestoreErrorKind::ManifestMismatch,
                       "'" + path +
                           "' is not a generation-ring file; delta chains "
                           "require '<base>.g<N>' naming");
  return path.substr(0, dot) + ".g" + std::to_string(gen);
}

// ---------------------------------------------------------------------------
// DeltaTracker

namespace {

/// Whether `codec` may pack section `s`: DeltaPack, on records it can
/// encode, from 64 bytes up.
bool packs(Codec codec, const EncodedSection& s) {
  return codec == Codec::DeltaPack && s.payload.size() >= 64 &&
         deltapack_bound(s.payload.size(), s.elem_size) != 0;
}

}  // namespace

GenerationPlan DeltaTracker::decide(const std::vector<EncodedSection>& sections,
                                    const std::vector<std::uint64_t>& hashes,
                                    std::int64_t generation, Codec codec) {
  // A failed commit anywhere in the chain leaves later deltas nothing to
  // resolve against on disk: start over from a full base.
  if (chain_ && chain_->broken.load(std::memory_order_acquire)) invalidate();
  const bool full = base_ < 0 || full_every_ <= 1 ||
                    static_cast<int>(chain_seq_) + 1 >= full_every_;
  if (full) chain_ = std::make_shared<ChainHealth>();

  GenerationPlan p;
  p.generation = generation;
  p.kind = full ? kKindFull : kKindDelta;
  p.codec = codec;
  p.parent = full ? -1 : last_;
  p.base = full ? generation : base_;
  p.chain_seq = full ? 0 : chain_seq_ + 1;
  p.chain = chain_;
  p.entries.reserve(sections.size());

  for (std::uint32_t i = 0; i < sections.size(); ++i) {
    const EncodedSection& s = sections[i];
    ManifestEntry e;
    e.name = s.name;
    e.src_gen = generation;
    e.codec = Codec::None;  // a stored section's, once it is sealed
    e.layout = static_cast<std::uint8_t>(s.layout);
    e.elem_size = s.elem_size;
    e.rank = s.rank;
    e.extents = s.extents;
    e.raw_bytes = s.payload.size();
    e.hash = hashes[i];

    bool store = true;
    if (!full) {
      const auto it = prev_.find(s.name);
      if (it != prev_.end() && it->second.hash == e.hash &&
          it->second.raw_bytes == e.raw_bytes &&
          it->second.elem_size == e.elem_size &&
          it->second.rank == e.rank && it->second.layout == e.layout &&
          it->second.extents == e.extents) {
        // Unchanged: the storing file's manifest is authoritative.
        store = false;
        e.src_gen = it->second.src_gen;
      }
    }
    if (store) p.store.push_back(i);
    p.entries.push_back(std::move(e));
  }

  // Commit the bookkeeping now: plans are taken in generation order, and
  // a failed commit marks the chain broken, so the next plan goes full.
  base_ = p.base;
  last_ = generation;
  chain_seq_ = p.chain_seq;
  prev_.clear();
  for (const ManifestEntry& e : p.entries) {
    Prev v;
    v.hash = e.hash;
    v.src_gen = e.src_gen;
    v.layout = e.layout;
    v.elem_size = e.elem_size;
    v.rank = e.rank;
    v.extents = e.extents;
    v.raw_bytes = e.raw_bytes;
    prev_[e.name] = v;
  }
  return p;
}

GenerationPlan DeltaTracker::plan(ckpt::FileWriter& w, std::int64_t generation,
                                  Codec codec) {
  const std::vector<EncodedSection>& sections = w.sections();
  std::vector<std::uint64_t> hashes(sections.size());
  ckpt::for_each_section("ckpt_hash", sections, [&](std::size_t i) {
    const std::span<const std::byte> src = w.source(i);
    hashes[i] = payload_hash(src.data(), src.size());
  });
  GenerationPlan p = decide(sections, hashes, generation, codec);

  w.seal([&](std::size_t i, std::span<const std::byte> src, std::byte* dst) {
    // This generation stores the sections whose entries point at it.
    if (p.entries[i].src_gen != generation || !packs(codec, sections[i]))
      return std::size_t{0};
    // Only a stream shorter than the raw payload is stored. A section the
    // writer staged when it was added is its own source: it encodes
    // through a buffer of its own.
    std::vector<std::byte> own;
    std::byte* out = dst;
    if (src.data() == dst) {
      own.resize(src.size() - 1);
      out = own.data();
    }
    const std::size_t n = deltapack_encode(src.data(), src.size(),
                                           sections[i].elem_size, out,
                                           src.size() - 1);
    if (n != 0 && out != dst) std::memcpy(dst, out, n);
    if (n != 0) p.entries[i].codec = Codec::DeltaPack;
    return n;
  });
  p.sealed = w.sealed();
  return p;
}

// ---------------------------------------------------------------------------
// write_generation

namespace {

/// `plan` rewritten as the full base of a new chain: every section stored
/// as it was sealed (a section the delta did not store was staged raw).
/// The hashes are the plan's own.
GenerationPlan as_full(const GenerationPlan& plan) {
  GenerationPlan p = plan;
  p.kind = kKindFull;
  p.parent = -1;
  p.base = p.generation;
  p.chain_seq = 0;
  p.store.resize(p.entries.size());
  std::iota(p.store.begin(), p.store.end(), std::uint32_t{0});
  for (ManifestEntry& e : p.entries) e.src_gen = p.generation;
  return p;
}

GenStats commit_generation(const std::string& path,
                           const std::vector<EncodedSection>& sections,
                           const GenerationPlan& plan,
                           std::uint64_t fingerprint, std::int64_t step) {
  GenStats st;
  st.kind = plan.kind;
  st.sections_total = static_cast<std::uint32_t>(sections.size());
  for (const EncodedSection& s : sections)
    st.logical_bytes += s.payload.size();

  ElaMeta meta;
  meta.kind = plan.kind;
  meta.codec = static_cast<std::uint32_t>(plan.codec);
  meta.generation = plan.generation;
  meta.parent = plan.parent;
  meta.base = plan.base;
  meta.chain_seq = plan.chain_seq;
  const std::vector<std::byte> manifest = serialize_manifest(plan.entries);

  const std::size_t nstored = plan.store.size();
  const auto section = [&](std::size_t k) {
    if (k == nstored)
      return ckpt::SectionRef::bytes(kMetaSection, &meta, sizeof(meta));
    if (k == nstored + 1)
      return ckpt::SectionRef::bytes(kManifestSection, manifest.data(),
                                     manifest.size());
    const std::uint32_t i = plan.store[k];
    const EncodedSection& s = sections[i];
    ckpt::SectionRef out(s, plan.sealed[i]);
    if (plan.entries[i].codec == Codec::DeltaPack) {
      // Packed payloads lose their logical shape on disk; the manifest
      // entry carries it for the decoder.
      out.elem_size = 1;
      out.rank = 1;
      out.extents = {static_cast<std::int64_t>(out.payload.size()), 0, 0, 0};
    }
    st.sections_stored++;
    st.stored_raw_bytes += s.payload.size();
    st.stored_bytes += out.payload.size();
    return out;
  };
  st.file_bytes =
      ckpt::write_file(path, fingerprint, step, nstored + 2, section);
  return st;
}

}  // namespace

GenStats write_generation(const std::string& path,
                          const std::vector<EncodedSection>& sections,
                          const GenerationPlan& plan,
                          std::uint64_t fingerprint, std::int64_t step) {
  try {
    // A delta planned while an earlier generation of its chain was still
    // being committed, by a commit that then failed: its parent is not on
    // disk, so it becomes a full base.
    if (plan.kind == kKindDelta && plan.chain &&
        plan.chain->broken.load(std::memory_order_acquire))
      return commit_generation(path, sections, as_full(plan), fingerprint,
                               step);
    return commit_generation(path, sections, plan, fingerprint, step);
  } catch (...) {
    if (plan.chain) plan.chain->broken.store(true, std::memory_order_release);
    throw;
  }
}

// ---------------------------------------------------------------------------
// ChainReader

ChainReader::ChainReader(ckpt::FileReader& target, const std::string& path) {
  fingerprint_ = target.fingerprint();
  step_ = target.step();

  meta_ = target.pod<ElaMeta>(std::string(kMetaSection));
  const PayloadHash hash = chain_hash(meta_.magic, path);

  const EncodedSection& ms = target.section(kManifestSection);
  const std::vector<ManifestEntry> manifest =
      parse_manifest(ms.payload.data(), ms.payload.size());

  // Group logical sections by the generation that physically stores them,
  // so each sibling file is opened and validated once.
  std::map<std::int64_t, std::vector<const ManifestEntry*>> by_gen;
  for (const ManifestEntry& e : manifest) by_gen[e.src_gen].push_back(&e);

  for (auto& [gen, wanted] : by_gen) {
    ckpt::FileReader* src = nullptr;
    std::unique_ptr<ckpt::FileReader> sibling;
    if (gen == meta_.generation) {
      src = &target;
    } else {
      sibling = std::make_unique<ckpt::FileReader>(
          sibling_generation_path(path, gen));
      if (sibling->fingerprint() != fingerprint_)
        throw RestoreError(
            RestoreErrorKind::FingerprintMismatch,
            "chain generation " + std::to_string(gen) +
                " was written by a different deck/config than '" + path +
                "'");
      src = sibling.get();
    }
    sources_.push_back(gen);

    // How each section is stored in `src` is recorded in src's OWN
    // manifest (codec + raw fallback are decided at its commit).
    const EncodedSection& sms = src->section(kManifestSection);
    std::map<std::string, const ManifestEntry*, std::less<>> stored;
    const std::vector<ManifestEntry> src_manifest =
        parse_manifest(sms.payload.data(), sms.payload.size());
    for (const ManifestEntry& e : src_manifest)
      if (e.src_gen == gen) stored[e.name] = &e;

    for (const ManifestEntry* e : wanted) {
      const auto sit = stored.find(e->name);
      if (sit == stored.end())
        throw RestoreError(RestoreErrorKind::MissingSection,
                           "chain generation " + std::to_string(gen) +
                               " does not store section '" + e->name + "'");
      const ManifestEntry& how = *sit->second;
      // Moved out of the reader: once this section resolves, neither the
      // reader nor `raw` holds a second copy of it.
      EncodedSection raw = src->take(e->name);

      EncodedSection out;
      out.name = e->name;
      out.elem_size = e->elem_size;
      out.rank = e->rank;
      out.extents = e->extents;
      out.layout = e->layout;
      if (how.codec == Codec::None) {
        out.payload = std::move(raw.payload);
      } else if (how.codec == Codec::DeltaPack) {
        out.payload.resize(how.raw_bytes);
        if (!deltapack_decode(raw.payload.data(), raw.payload.size(),
                              out.payload.data(), how.raw_bytes,
                              how.elem_size))
          throw RestoreError(RestoreErrorKind::SectionCorrupt,
                             "section '" + e->name + "' in generation " +
                                 std::to_string(gen) +
                                 " fails deltapack decode");
      } else {
        throw RestoreError(RestoreErrorKind::SectionCorrupt,
                           "section '" + e->name + "' uses unknown codec " +
                               std::to_string(static_cast<int>(how.codec)));
      }

      // The restore target's manifest hash is the end-to-end integrity
      // check: a silently stale or cross-linked sibling payload cannot
      // slip through even with a valid per-file CRC.
      if (hash(out.payload.data(), out.payload.size()) != e->hash ||
          out.payload.size() != e->raw_bytes)
        throw RestoreError(RestoreErrorKind::SectionCorrupt,
                           "section '" + e->name + "' resolved from " +
                               std::to_string(gen) +
                               " does not match the chain manifest hash");
      resolved_[out.name] = std::move(out);
    }
  }

  reassemble_particles();
}

std::vector<std::string> ChainReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(resolved_.size());
  for (const auto& [name, s] : resolved_) names.push_back(name);
  return names;
}

const EncodedSection& ChainReader::section(std::string_view name) {
  const auto it = resolved_.find(name);
  if (it == resolved_.end())
    throw RestoreError(RestoreErrorKind::MissingSection,
                       "chain has no section '" + std::string(name) + "'");
  return it->second;
}

void ChainReader::reassemble_particles() {
  // Incremental snapshots store particles as fixed-range chunks
  // ("sp<i>.c<k>.p" + "sp<i>.nchunks") so a delta only carries the chunks
  // whose payload hash moved. Core's restore reads the canonical
  // "sp<i>.p"; synthesize it by concatenating chunks in k order, dropping
  // each chunk once it is appended, so the resolved set holds one copy of
  // the particles.
  if (!has("nspecies")) return;
  const auto nspecies = pod<std::uint64_t>("nspecies");
  for (std::uint64_t i = 0; i < nspecies; ++i) {
    const std::string prefix = "sp" + std::to_string(i) + ".";
    if (!has(prefix + "nchunks")) continue;
    const auto nchunks = pod<std::uint64_t>(prefix + "nchunks");
    const auto chunk = [&](std::uint64_t k) {
      return prefix + "c" + std::to_string(k) + ".p";
    };

    EncodedSection whole;
    whole.name = prefix + "p";
    whole.rank = 1;
    whole.layout = ckpt::kLayoutRight;
    std::size_t bytes = 0;
    for (std::uint64_t k = 0; k < nchunks; ++k)
      bytes += section(chunk(k)).payload.size();
    whole.payload.reserve(bytes);
    std::int64_t total = 0;
    for (std::uint64_t k = 0; k < nchunks; ++k) {
      const auto it = resolved_.find(chunk(k));
      const EncodedSection& c = it->second;
      if (k == 0) whole.elem_size = c.elem_size;
      if (c.elem_size != whole.elem_size)
        throw RestoreError(RestoreErrorKind::ShapeMismatch,
                           "particle chunks of '" + prefix +
                               "p' disagree on element size");
      whole.payload.insert(whole.payload.end(), c.payload.begin(),
                           c.payload.end());
      total += c.extents[0];
      resolved_.erase(it);
    }
    if (whole.elem_size == 0) whole.elem_size = 1;
    whole.extents[0] = total;
    if (whole.payload.size() !=
        static_cast<std::size_t>(total) * whole.elem_size)
      throw RestoreError(RestoreErrorKind::ShapeMismatch,
                         "particle chunks of '" + prefix +
                             "p' do not add up to their extents");
    resolved_[whole.name] = std::move(whole);
  }
}

// ---------------------------------------------------------------------------
// prune_chains

std::size_t prune_chains(const std::string& ring_base, int keep_chains) {
  if (keep_chains < 1) keep_chains = 1;
  ckpt::GenerationRing ring(ring_base, keep_chains);
  const std::vector<std::uint64_t> gens = ring.generations();

  // Chain id of a generation = its base generation (ela.meta); a plain
  // checkpoint or an unreadable file is its own single-generation chain,
  // so broken junk still ages out.
  std::map<std::int64_t, std::vector<std::uint64_t>> chains;
  for (std::uint64_t g : gens) {
    std::int64_t chain = static_cast<std::int64_t>(g);
    try {
      ckpt::FileReader f(ring.path_for(g));
      if (f.has(kMetaSection)) {
        const auto meta = f.pod<ElaMeta>(std::string(kMetaSection));
        if (meta.magic == kElaMagic || meta.magic == kElaMagicV1)
          chain = meta.base;
      }
    } catch (...) {
      // unreadable: leave it as its own chain
    }
    chains[chain].push_back(g);
  }

  if (chains.size() <= static_cast<std::size_t>(keep_chains)) return 0;
  std::size_t removed = 0;
  std::size_t drop = chains.size() - static_cast<std::size_t>(keep_chains);
  for (const auto& [chain, members] : chains) {
    if (drop == 0) break;
    --drop;
    for (std::uint64_t g : members)
      if (std::remove(ring.path_for(g).c_str()) == 0) ++removed;
  }
  return removed;
}

}  // namespace vpic::elastic
