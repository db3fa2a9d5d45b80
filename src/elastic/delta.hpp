// elastic/delta.hpp
//
// Incremental checkpoint generations (chain format VPICELA2,
// docs/ELASTIC.md). A generation is a normal VPICCKP1 file (ckpt/file.hpp
// envelope, CRCs, atomic commit — all unchanged) that carries two extra
// sections:
//
//   "ela.meta"      ElaMeta pod: magic (which names the manifest's hash),
//                   kind (full/delta), generation number, parent
//                   generation, chain base, position in the chain
//   "ela.manifest"  one entry per *logical* section of the snapshot:
//                   which generation physically stores it (src_gen), how
//                   it is stored there (codec), its logical shape, and a
//                   64-bit hash of its raw payload (payload_hash)
//
// A *full* generation stores every section; a *delta* stores only
// sections whose payload hash changed since the parent, and its manifest
// points unchanged sections back at the generation that last stored them.
// DeltaTracker::plan does all of a generation's byte work on the calling
// thread's kernel team, in two passes over the snapshot's sections: it
// hashes each from where its bytes are (the live state, for a section the
// snapshot deferred), decides what the generation stores (hashing IS the
// dirty detection — there is no event-based skip heuristic, because
// modules may mutate particle state without signalling), then seals the
// snapshot: each stored section is DeltaPack-encoded straight into its
// staged buffer when that is smaller, every other section is staged raw,
// and each gets its CRC. write_generation — safe to run on the background
// checkpoint writer — then only writes the staged bytes through
// ckpt::write_file. A failed commit breaks its chain: the next plan is a
// full base, and a delta planned before the failure surfaced is written as
// a full base instead, from the raw-staged sections it did not store.
//
// VPICELA1 chains, whose manifests hold FNV-1a hashes, still restore and
// prune; a generation whose magic names a hash this build does not know
// is a typed restore failure.
//
// ChainReader resolves a generation back into a flat SectionSource: it
// walks the manifest, opens the sibling ring files each src_gen lives in,
// decodes per-section codecs, verifies every resolved payload's hash
// against the restore target's manifest, and reassembles chunked particle
// sections ("sp<i>.c<k>.p") into the canonical "sp<i>.p" the core restore
// path expects. Every failure is a typed ckpt::RestoreError, so the
// generation-ring fallback in Simulation::restore_latest walks across
// broken deltas and broken chains exactly as it walks across corrupt
// single files.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/file.hpp"
#include "ckpt/format.hpp"
#include "elastic/codec.hpp"

namespace vpic::elastic {

/// "VPICELA2" big-endian, mirroring ckpt::kMagic's "VPICCKP1": a chain
/// generation whose manifest hashes are payload_hash.
inline constexpr std::uint64_t kElaMagic = 0x56504943454C4132ull;
/// "VPICELA1": a generation whose manifest hashes are FNV-1a 64.
inline constexpr std::uint64_t kElaMagicV1 = 0x56504943454C4131ull;

inline constexpr std::string_view kMetaSection = "ela.meta";
inline constexpr std::string_view kManifestSection = "ela.manifest";

/// Generation kind stored in ElaMeta::kind.
inline constexpr std::uint32_t kKindFull = 0;
inline constexpr std::uint32_t kKindDelta = 1;

struct ElaMeta {
  std::uint64_t magic = kElaMagic;
  std::uint32_t kind = kKindFull;
  std::uint32_t codec = 0;        // requested Codec for stored sections
  std::int64_t generation = 0;    // this file's ring generation number
  std::int64_t parent = -1;       // previous generation in chain (-1: base)
  std::int64_t base = 0;          // chain's full generation
  std::uint64_t chain_seq = 0;    // 0 for the base, parent's seq + 1 else
};
static_assert(sizeof(ElaMeta) == 48);

/// One logical section of the snapshot, as recorded in "ela.manifest".
/// `codec` describes how the section is stored in `src_gen`'s file and is
/// authoritative only in the file that physically stores the section
/// (src_gen == that file's generation); carried-forward entries defer to
/// the storing file's own manifest.
struct ManifestEntry {
  std::string name;
  std::int64_t src_gen = 0;
  Codec codec = Codec::None;
  std::uint8_t layout = 0;
  std::uint32_t elem_size = 0;
  std::uint32_t rank = 0;
  std::array<std::int64_t, 4> extents{};
  std::uint64_t raw_bytes = 0;
  std::uint64_t hash = 0;  // of the raw (decoded) payload, per ElaMeta::magic
};

/// The per-section dirty fingerprint of VPICELA2 chains: XXH64 with seed
/// 0, read a word at a time in four lanes over 32-byte stripes. (VPICELA1
/// chains recorded FNV-1a 64; their reader checks that.)
std::uint64_t payload_hash(const void* data, std::size_t n) noexcept;

std::vector<std::byte> serialize_manifest(
    const std::vector<ManifestEntry>& entries);
/// Throws ckpt::RestoreError{SectionCorrupt} on a truncated/garbled blob.
std::vector<ManifestEntry> parse_manifest(const std::byte* data,
                                          std::size_t n);

/// Derive the path of generation `gen` in the same ring as `path`
/// ("<base>.g<N>" naming, ckpt/ring.hpp). Throws
/// ckpt::RestoreError{ManifestMismatch} when `path` is not ring-shaped —
/// a delta chain only makes sense inside a generation ring.
std::string sibling_generation_path(const std::string& path,
                                    std::int64_t gen);

/// Shared by every generation planned into one chain. A failed commit
/// sets `broken`, from whichever thread committed.
struct ChainHealth {
  std::atomic<bool> broken{false};
};

/// The synchronous half of an incremental checkpoint: which sections to
/// physically store in generation `generation`, the full manifest, and
/// what the sealed sections hold for the file. It refers to the sections
/// it was planned over, which must outlive its commit; commit may run
/// later on another thread.
struct GenerationPlan {
  std::int64_t generation = 0;
  std::uint32_t kind = kKindFull;
  Codec codec = Codec::None;
  std::int64_t parent = -1;
  std::int64_t base = 0;
  std::uint64_t chain_seq = 0;
  std::vector<ManifestEntry> entries;  // entries[i] describes sections[i]
  std::vector<std::uint32_t> store;    // indices into entries/sections
  std::vector<ckpt::Sealed> sealed;    // what sections[i] holds for the file
  std::shared_ptr<ChainHealth> chain;  // the chain this generation joins
};

/// Outcome of write_generation, accumulated by the simulation into its
/// checkpoint stats and reported by bench/checkpoint.cpp.
struct GenStats {
  std::uint32_t kind = kKindFull;
  std::uint32_t sections_total = 0;
  std::uint32_t sections_stored = 0;
  std::uint64_t logical_bytes = 0;     // raw bytes of the whole snapshot
  std::uint64_t stored_raw_bytes = 0;  // raw bytes of stored sections
  std::uint64_t stored_bytes = 0;      // post-codec bytes actually written
  std::uint64_t file_bytes = 0;        // committed file size
};

/// Tracks per-section payload hashes across generations and decides, for
/// each new snapshot, full-vs-delta and the per-section store set.
/// plan() must be called in generation order from one thread (the
/// simulation's checkpoint path); the returned plan is immutable and may
/// be committed asynchronously.
class DeltaTracker {
 public:
  /// A full generation is forced every `full_every` generations
  /// (full_every <= 1 disables deltas entirely).
  explicit DeltaTracker(int full_every) : full_every_(full_every) {}

  /// Plan generation `generation` over the sections of `w` and seal `w`
  /// for it, on the calling thread's kernel team: hash every section from
  /// FileWriter::source (the "ckpt_hash" kernel), diff against the
  /// previous plan, then FileWriter::seal, which DeltaPack-encodes each
  /// stored section that `codec` packs smaller into its payload and stages
  /// every other section raw. The plan is a full base when the chain is
  /// new, due to roll over, or broken by a failed commit.
  GenerationPlan plan(ckpt::FileWriter& w, std::int64_t generation,
                      Codec codec);

  /// Forget the chain: the next plan() is a full generation. Called after
  /// restore (on-disk chain no longer matches tracked hashes) and when
  /// checkpoints move to another ring; plan() calls it itself once a
  /// commit of the chain has failed.
  void invalidate() {
    base_ = -1;
    last_ = -1;
    chain_seq_ = 0;
    prev_.clear();
    chain_.reset();
  }

  [[nodiscard]] int full_every() const noexcept { return full_every_; }

 private:
  struct Prev {
    std::uint64_t hash = 0;
    std::int64_t src_gen = 0;
    std::uint8_t layout = 0;
    std::uint32_t elem_size = 0;
    std::uint32_t rank = 0;
    std::array<std::int64_t, 4> extents{};
    std::uint64_t raw_bytes = 0;
  };

  /// The plan for sections shaped as `sections` with payload hashes
  /// `hashes`; records it as the tracker's previous plan.
  GenerationPlan decide(const std::vector<ckpt::EncodedSection>& sections,
                        const std::vector<std::uint64_t>& hashes,
                        std::int64_t generation, Codec codec);

  int full_every_;
  std::int64_t base_ = -1;
  std::int64_t last_ = -1;
  std::uint64_t chain_seq_ = 0;
  std::map<std::string, Prev, std::less<>> prev_;
  std::shared_ptr<ChainHealth> chain_;
};

/// Commit a planned generation to `path` (a ring generation path)
/// through ckpt::write_file: the sections listed in plan.store, as the
/// plan sealed them (`sections` are the sections it was planned over),
/// then "ela.meta" and "ela.manifest". It encodes nothing and takes no
/// payload CRC. A delta whose chain broke after it was planned is written
/// as a full base. Throws ckpt::RestoreError{IoError} like
/// ckpt::write_file, and marks the plan's chain broken when it throws.
GenStats write_generation(const std::string& path,
                          const std::vector<ckpt::EncodedSection>& sections,
                          const GenerationPlan& plan,
                          std::uint64_t fingerprint, std::int64_t step);

/// Resolve a committed generation (base or delta) into a flat section
/// set. All referenced sibling generations are opened, validated and
/// decoded in the constructor; chunked particle sections are reassembled
/// into the canonical "sp<i>.p" names, which replace them. Failures throw typed
/// ckpt::RestoreError so ring fallback logic works unchanged.
class ChainReader : public ckpt::SectionSource {
 public:
  /// `target` is the generation at `path`, already opened; its siblings
  /// are found next to `path`. It must outlive the constructor only.
  ChainReader(ckpt::FileReader& target, const std::string& path);

  [[nodiscard]] bool has(std::string_view name) const override {
    return resolved_.count(std::string(name)) != 0;
  }
  [[nodiscard]] std::vector<std::string> section_names() const override;
  const ckpt::EncodedSection& section(std::string_view name) override;
  [[nodiscard]] std::uint64_t fingerprint() const noexcept override {
    return fingerprint_;
  }
  [[nodiscard]] std::int64_t step() const noexcept override { return step_; }

  [[nodiscard]] const ElaMeta& meta() const noexcept { return meta_; }
  /// Generations (including this one) the resolution touched.
  [[nodiscard]] const std::vector<std::int64_t>& sources() const noexcept {
    return sources_;
  }

 private:
  void reassemble_particles();

  ElaMeta meta_{};
  std::uint64_t fingerprint_ = 0;
  std::int64_t step_ = 0;
  std::map<std::string, ckpt::EncodedSection, std::less<>> resolved_;
  std::vector<std::int64_t> sources_;
};

/// Chain-aware pruning: keep the newest `keep_chains` complete chains in
/// the ring and remove every generation of older chains — never orphaning
/// a delta whose base was pruned. Plain (non-chain) generations count as
/// single-generation chains. Returns the number of files removed.
std::size_t prune_chains(const std::string& ring_base, int keep_chains);

}  // namespace vpic::elastic
