// core/checkpoint.cpp
//
// Checkpoint/restore integration for Simulation and DistributedSimulation
// over the vpic::ckpt subsystem (src/ckpt, docs/CHECKPOINT.md).
//
// What a checkpoint holds: the nine Yee field components, the
// interpolator and accumulator arrays, every species' live particle
// records (prefix-encoded to np) plus its sortedness metadata and, when
// tiled, its tile ranges, the energy-history diagnostics, and the step
// count — everything needed for a restored run to continue
// bit-identically to one that never stopped.
// Interpolators/accumulators are recomputed at the top of every step, so
// serializing them is belt-and-braces for mid-phase captures rather than
// a bit-identity requirement.
//
// Restore order is validate-then-mutate: the file envelope, the config
// fingerprint, every payload CRC and the module manifest are checked
// before a single byte of live state changes, so a corrupt file throws a
// typed RestoreError and leaves the simulation untouched (the
// generation-ring fallback then tries the previous file).

#include <algorithm>
#include <charconv>
#include <cstring>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "ckpt/ckpt.hpp"
#include "core/domain.hpp"
#include "core/simulation.hpp"
#include "elastic/elastic.hpp"
#include "prof/prof.hpp"

namespace vpic::core {

namespace {

namespace fs = std::filesystem;

/// Per-species scalar state riding alongside the particle payload.
/// Padding is explicit and zeroed: add_pod serializes the raw object
/// bytes, and implicit padding would leak indeterminate stack bytes into
/// the file (breaking byte-level reproducibility of checkpoints).
struct SpeciesMeta {
  std::int64_t np = 0;
  float q = 0, m = 0;
  std::int32_t steps_since_sort = -1;
  std::uint8_t cell_sorted_hint = 0;
  std::uint8_t pad_[3] = {0, 0, 0};
};
static_assert(sizeof(SpeciesMeta) == 24, "no implicit padding allowed");

/// Per-rank scalar state of a DistributedSimulation.
struct RankMeta {
  std::int64_t z_offset = 0;
  std::int64_t exchanged = 0;
  std::uint64_t current_species = 0;
};
static_assert(sizeof(RankMeta) == 24, "no implicit padding allowed");

std::string species_prefix(std::size_t i) {
  return "sp" + std::to_string(i) + ".";
}

/// Fixed fallback chunk size of the incremental particle layout
/// (docs/ELASTIC.md) when a species has no usable tile partition.
constexpr index_t kChunkParticles = 16384;

/// Chunk ranges over [0, np) for the incremental particle layout: the
/// species' tile slots when they exactly partition the live range
/// (tile-granular dirty tracking — a delta stores only the tiles whose
/// payload hash moved), fixed kChunkParticles blocks otherwise. Always at
/// least one (possibly empty) chunk, so the reassembled section keeps its
/// element size.
std::vector<std::pair<index_t, index_t>> particle_chunks(const Species& sp) {
  std::vector<std::pair<index_t, index_t>> r;
  if (tiles_cover(sp, sp.tiles.size())) {
    for (const TileSlot& t : sp.tiles) r.emplace_back(t.begin, t.end);
    return r;
  }
  for (index_t at = 0; at < sp.np; at += kChunkParticles)
    r.emplace_back(at, std::min(sp.np, at + kChunkParticles));
  if (r.empty()) r.emplace_back(0, 0);
  return r;
}

/// Section `name`: records [begin, end) of `sp` as the canonical packed
/// AoS stream, whatever the store's layout, staged in `w`'s next payload
/// buffer. An AoS store already holds that stream, so the section is
/// deferred: `w` reads it from the store when it is sealed.
void add_particles(ckpt::FileWriter& w, std::string name, const Species& sp,
                   index_t begin, index_t end) {
  ckpt::EncodedSection c;
  c.name = std::move(name);
  c.elem_size = sizeof(Particle);
  c.rank = 1;
  c.extents[0] = static_cast<std::int64_t>(end - begin);
  c.layout = ckpt::kLayoutRight;
  c.payload =
      w.stage(static_cast<std::size_t>(end - begin) * sizeof(Particle));
  dispatch_layout(sp.p, [&](auto a) {
    if constexpr (decltype(a)::layout == ParticleLayout::AoS) {
      w.add_deferred(std::move(c),
                     reinterpret_cast<const std::byte*>(a.p + begin));
    } else {
      std::byte* const dst = c.payload.data();
      for (index_t i = begin; i < end; ++i) {
        const Particle q = a.load(i);
        std::memcpy(dst + (i - begin) * sizeof(Particle), &q, sizeof(q));
      }
      w.add(std::move(c));
    }
  });
}

// The engine-state section set is shared between the single-node and the
// per-rank distributed checkpoints: fields, interpolator, accumulator,
// and every species (particles + metadata + name, and "sp<i>.tiles", the
// T + 1 tile range bounds, while its tile ranges cover it). With `chunked` set
// (the incremental path, docs/ELASTIC.md) each species' particle payload
// is split into "sp<i>.c<k>.p" chunk sections plus an "sp<i>.nchunks"
// count instead of the monolithic "sp<i>.p" — elastic::ChainReader
// reassembles the canonical stream on restore. The arrays are deferred
// (FileWriter::defer_view): `w` reads them from the live state when it is
// sealed, which the caller does before the state changes.
void add_engine_sections(ckpt::FileWriter& w, const FieldArray& f,
                         const InterpolatorArray& interp,
                         const AccumulatorArray& acc,
                         const std::vector<Species>& species,
                         bool chunked = false) {
  w.defer_view("f.ex", f.ex);
  w.defer_view("f.ey", f.ey);
  w.defer_view("f.ez", f.ez);
  w.defer_view("f.bx", f.bx);
  w.defer_view("f.by", f.by);
  w.defer_view("f.bz", f.bz);
  w.defer_view("f.jx", f.jx);
  w.defer_view("f.jy", f.jy);
  w.defer_view("f.jz", f.jz);
  w.defer_view("interp", interp.data);
  w.defer_view("acc", acc.a);

  w.add_pod("nspecies", static_cast<std::uint64_t>(species.size()));
  for (std::size_t i = 0; i < species.size(); ++i) {
    const Species& sp = species[i];
    const std::string pfx = species_prefix(i);
    w.add_bytes(pfx + "name", sp.name.data(), sp.name.size());
    SpeciesMeta meta;
    meta.np = sp.np;
    meta.q = sp.q;
    meta.m = sp.m;
    meta.steps_since_sort = sp.steps_since_sort;
    meta.cell_sorted_hint = sp.cell_sorted_hint ? 1 : 0;
    w.add_pod(pfx + "meta", meta);
    if (tiles_cover(sp, sp.tiles.size())) {
      std::vector<std::int64_t> bounds{0};
      for (const TileSlot& t : sp.tiles) bounds.push_back(t.end);
      w.add_vector(pfx + "tiles", bounds);
    }
    // Prefix-encode: only the np live records, not the slack capacity.
    // The on-disk particle stream is the canonical packed AoS record for
    // every layout, so the file format (and its CRCs) is layout-invariant
    // and a checkpoint round-trips across AoS/SoA stores.
    if (!chunked) {
      add_particles(w, pfx + "p", sp, 0, sp.np);
      continue;
    }
    // Chunked layout: per-chunk copies of the canonical AoS stream in
    // index order (chunk boundaries follow the tile partition, so the
    // concatenation in k order IS the canonical stream).
    const auto chunks = particle_chunks(sp);
    w.add_pod(pfx + "nchunks", static_cast<std::uint64_t>(chunks.size()));
    for (std::size_t k = 0; k < chunks.size(); ++k)
      add_particles(w, pfx + "c" + std::to_string(k) + ".p", sp,
                    chunks[k].first, chunks[k].second);
  }
}

/// `adopt_tiles` > 0: the restoring simulation is tiled with that many
/// tiles, and a species whose checkpoint holds exactly that many ranges
/// covering its particles takes them as its tile ranges (docs/TILES.md).
/// Every other species ends with no ranges, so the next tiled step
/// re-buckets it.
void read_engine_sections(ckpt::SectionSource& f, FieldArray& fld,
                          InterpolatorArray& interp, AccumulatorArray& acc,
                          std::vector<Species>& species,
                          std::size_t adopt_tiles = 0) {
  const auto nsp = f.pod<std::uint64_t>("nspecies");
  if (nsp != species.size())
    throw ckpt::RestoreError(
        ckpt::RestoreErrorKind::ShapeMismatch,
        "checkpoint holds " + std::to_string(nsp) +
            " species, simulation has " + std::to_string(species.size()));

  f.read_view("f.ex", fld.ex);
  f.read_view("f.ey", fld.ey);
  f.read_view("f.ez", fld.ez);
  f.read_view("f.bx", fld.bx);
  f.read_view("f.by", fld.by);
  f.read_view("f.bz", fld.bz);
  f.read_view("f.jx", fld.jx);
  f.read_view("f.jy", fld.jy);
  f.read_view("f.jz", fld.jz);
  f.read_view("interp", interp.data);
  f.read_view("acc", acc.a);

  for (std::size_t i = 0; i < species.size(); ++i) {
    Species& sp = species[i];
    const std::string pfx = species_prefix(i);
    const ckpt::EncodedSection& name = f.section(pfx + "name");
    const std::string file_name(
        reinterpret_cast<const char*>(name.payload.data()),
        name.payload.size());
    if (file_name != sp.name)
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::ShapeMismatch,
                               "species " + std::to_string(i) + " is '" +
                                   sp.name + "', checkpoint holds '" +
                                   file_name + "'");
    const auto meta = f.pod<SpeciesMeta>(pfx + "meta");
    if (meta.np < 0)
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::ShapeMismatch,
                               "negative particle count in '" + sp.name + "'");
    if (meta.np > sp.capacity()) {
      sp.p = ParticleStore("particles_" + sp.name, meta.np, sp.p.layout());
      // The only store reallocation: drop the spares, so none of a
      // capacity no species holds any more lingers; each species' next
      // sort sizes its spare again.
      if (sp.scratch) sp.scratch->spares.clear();
    }
    if (sp.p.layout() == ParticleLayout::AoS) {
      f.read_view(pfx + "p", sp.p.aos_view());
    } else {
      // Stage through the canonical AoS stream, then scatter into the
      // store's layout (restore may target a different layout than the
      // writer used — the bytes on disk are identical either way).
      pk::View<Particle, 1> canon("ckpt_canon_" + sp.name, meta.np);
      f.read_view(pfx + "p", canon);
      sp.p.import_aos(canon.data(), meta.np);
    }
    sp.np = meta.np;
    sp.q = meta.q;
    sp.m = meta.m;
    sp.steps_since_sort = meta.steps_since_sort;
    sp.cell_sorted_hint = meta.cell_sorted_hint != 0;
    // The run segmentation is rebuilt on demand.
    sp.push_runs.clear();
    sp.tiles.clear();
    const std::string tiles = pfx + "tiles";
    if (adopt_tiles == 0 || !f.has(tiles)) continue;
    const auto bounds = f.vector<std::int64_t>(tiles);
    if (bounds.size() != adopt_tiles + 1) continue;
    sp.tiles.resize(adopt_tiles);
    for (std::size_t t = 0; t < adopt_tiles; ++t) {
      sp.tiles[t].begin = bounds[t];
      sp.tiles[t].end = bounds[t + 1];
    }
    if (!tiles_cover(sp, adopt_tiles)) sp.tiles.clear();
  }
}

void add_history_sections(ckpt::FileWriter& w, const EnergyHistory& h) {
  std::vector<std::int64_t> steps;
  std::vector<double> field;
  std::vector<std::uint64_t> counts;
  std::vector<double> ke;
  steps.reserve(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    steps.push_back(h.step(i));
    field.push_back(h.field(i));
    counts.push_back(h.species_count(i));
    for (std::size_t s = 0; s < h.species_count(i); ++s)
      ke.push_back(h.species_ke(i, s));
  }
  w.add_vector("diag.steps", steps);
  w.add_vector("diag.field", field);
  w.add_vector("diag.counts", counts);
  w.add_vector("diag.ke", ke);
}

void read_history_sections(ckpt::SectionSource& f, EnergyHistory& h) {
  const auto steps = f.vector<std::int64_t>("diag.steps");
  const auto field = f.vector<double>("diag.field");
  const auto counts = f.vector<std::uint64_t>("diag.counts");
  const auto ke = f.vector<double>("diag.ke");
  if (field.size() != steps.size() || counts.size() != steps.size())
    throw ckpt::RestoreError(ckpt::RestoreErrorKind::ShapeMismatch,
                             "energy-history sections disagree on row count");
  h.clear();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (cursor + counts[i] > ke.size())
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::ShapeMismatch,
                               "energy-history ke section too short");
    std::vector<double> row(ke.begin() + static_cast<std::ptrdiff_t>(cursor),
                            ke.begin() + static_cast<std::ptrdiff_t>(
                                             cursor + counts[i]));
    cursor += counts[i];
    h.record(steps[i], field[i], row);
  }
  if (cursor != ke.size())
    throw ckpt::RestoreError(ckpt::RestoreErrorKind::ShapeMismatch,
                             "energy-history ke section too long");
}

// ---- module sections (docs/MODULES.md, docs/CHECKPOINT.md) -----------
//
// Registered modules with state serialize under "mod.<id>.*", plus a
// "mod.index" manifest of "id:version" lines. Restore matches the
// manifest against the registry: a module the simulation does not have
// (or whose recorded state version is newer than the module understands)
// gets its sections skipped wholesale — restore still succeeds, and the
// skip is reported as a typed ModuleSectionSkip instead of corrupting
// anything. A registered stateful module absent from the file (the file
// predates it) is reset via clear_state() so restore remains a complete
// overwrite.

void add_module_sections(
    ckpt::FileWriter& w,
    const std::vector<std::unique_ptr<PhysicsModule>>& modules) {
  std::string index;
  for (const auto& m : modules) {
    if (!m->has_state()) continue;
    index += std::string(m->id()) + ":" +
             std::to_string(m->state_version()) + "\n";
    ModuleStateWriter mw(w, "mod." + std::string(m->id()) + ".");
    m->save_state(mw);
  }
  w.add_bytes("mod.index", index.data(), index.size());
}

using ModuleIndex = std::vector<std::pair<std::string, std::uint32_t>>;

/// Parse the "mod.index" manifest. It touches no live state, so restore
/// runs it before applying anything: a malformed line throws a typed
/// RestoreError with the simulation unchanged, and the ring falls back to
/// the previous generation. A pre-registry file has no mod.index and holds
/// no module state, which reads as an empty manifest.
ModuleIndex parse_module_index(ckpt::SectionSource& f) {
  ModuleIndex in_file;
  if (!f.has("mod.index")) return in_file;
  const ckpt::EncodedSection& s = f.section("mod.index");
  const std::string_view text(reinterpret_cast<const char*>(s.payload.data()),
                              s.payload.size());
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    const std::string_view line = text.substr(at, eol - at);
    at = eol + 1;
    if (line.empty()) continue;
    const auto colon = line.rfind(':');
    const char* const end = line.data() + line.size();
    std::uint32_t ver = 0;
    std::from_chars_result r{end, std::errc::invalid_argument};
    if (colon != std::string_view::npos)
      r = std::from_chars(line.data() + colon + 1, end, ver);
    if (r.ec != std::errc() || r.ptr != end)
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::SectionCorrupt,
                               "malformed mod.index line '" +
                                   std::string(line) + "'");
    in_file.emplace_back(std::string(line.substr(0, colon)), ver);
  }
  return in_file;
}

void read_module_sections(
    ckpt::SectionSource& f, const ModuleIndex& in_file,
    const std::vector<std::unique_ptr<PhysicsModule>>& modules,
    std::vector<ModuleSectionSkip>& skips) {
  skips.clear();
  const std::vector<std::string> names = f.section_names();
  auto prefix_count = [&names](const std::string& prefix) {
    std::size_t n = 0;
    for (const auto& name : names)
      if (name.starts_with(prefix)) ++n;
    return n;
  };
  for (const auto& [mid, ver] : in_file) {
    PhysicsModule* mod = nullptr;
    for (const auto& m : modules)
      if (m->id() == mid) {
        mod = m.get();
        break;
      }
    const std::string prefix = "mod." + mid + ".";
    if (mod != nullptr && mod->has_state() &&
        ver <= mod->state_version()) {
      ModuleStateReader mr(f, prefix);
      mod->load_state(mr, ver);
      continue;
    }
    // Unknown module, stateless now, or future state version: skip its
    // sections, reset any live state, and report.
    if (mod != nullptr) mod->clear_state();
    ModuleSectionSkip skip;
    skip.module = mid;
    skip.version = ver;
    skip.sections = prefix_count(prefix);
    std::fprintf(stderr,
                 "vpic: restore: skipping %zu checkpoint section(s) of "
                 "module '%s' (state v%u, %s)\n",
                 skip.sections, mid.c_str(), ver,
                 mod == nullptr ? "module not registered"
                                : "version newer than registered module");
    prof::counter_add("ckpt.module_skips");
    skips.push_back(std::move(skip));
  }
  // Stateful modules the file predates: reset to attach-time state.
  for (const auto& m : modules) {
    if (!m->has_state()) continue;
    bool listed = false;
    for (const auto& [mid, ver] : in_file)
      if (mid == m->id()) {
        listed = true;
        break;
      }
    if (!listed) m->clear_state();
  }
}

/// Generation number of a ring path "<base>.g<N>", or -1 for anything
/// else. Incremental chains only make sense inside a generation ring
/// (deltas resolve siblings by rewriting the suffix); a plain path gets a
/// plain full checkpoint instead.
std::int64_t ring_generation_of(const std::string& path) {
  const auto dot = path.rfind(".g");
  if (dot == std::string::npos || dot + 2 >= path.size()) return -1;
  for (std::size_t i = dot + 2; i < path.size(); ++i)
    if (std::isdigit(static_cast<unsigned char>(path[i])) == 0) return -1;
  return static_cast<std::int64_t>(std::stoll(path.substr(dot + 2)));
}

}  // namespace

// ---- Simulation ------------------------------------------------------

/// Mutex-guarded cumulative stats block, shared with the snapshots the
/// async writer commits.
struct Simulation::ElasticStatsShared {
  std::mutex mu;
  ElasticCkptStats s;

  void record(const elastic::GenStats& g) {
    const std::lock_guard<std::mutex> lk(mu);
    if (g.kind == elastic::kKindFull) {
      ++s.full_generations;
      s.full_file_bytes += g.file_bytes;
    } else {
      ++s.delta_generations;
      s.delta_file_bytes += g.file_bytes;
    }
    s.logical_bytes += g.logical_bytes;
    s.stored_raw_bytes += g.stored_raw_bytes;
    s.stored_bytes += g.stored_bytes;
  }
};

ElasticCkptStats Simulation::elastic_ckpt_stats() const {
  if (!elastic_stats_) return {};
  const std::lock_guard<std::mutex> lk(elastic_stats_->mu);
  return elastic_stats_->s;
}

std::uint64_t Simulation::config_fingerprint() const {
  ckpt::Fingerprint fp;
  const Grid& g = fields_.grid;
  fp.add(g.nx);
  fp.add(g.ny);
  fp.add(g.nz);
  fp.add(g.dx);
  fp.add(g.dy);
  fp.add(g.dz);
  fp.add(g.dt);
  fp.add(g.x0);
  fp.add(g.y0);
  fp.add(g.z0);
  fp.add(g.cvac);
  fp.add(static_cast<std::uint32_t>(cfg_.strategy));
  fp.add(static_cast<std::uint32_t>(cfg_.push_path));
  fp.add(static_cast<std::uint32_t>(cfg_.sort_order));
  fp.add(cfg_.sort_interval);
  fp.add(cfg_.sort_tile);
  fp.add(cfg_.energy_interval);
  fp.add(cfg_.seed);
  for (const auto& sp : species_) {
    fp.add_string(sp.name);
    fp.add(sp.q);
    fp.add(sp.m);
  }
  return fp.value();
}

/// The idle staging set, handed back by whichever thread committed it:
/// the sections of a committed snapshot, for the next snapshot to stage
/// into (ckpt::FileWriter::stage). A snapshot takes them, so a snapshot
/// taken while another is still committing (a sync checkpoint beside an
/// async one) finds none idle and stages afresh. It holds at most one
/// set; a second one handed back is freed, so staging never holds more
/// than the snapshots in flight did.
struct Simulation::CkptStaging {
  std::mutex mu;
  std::vector<ckpt::EncodedSection> idle;

  std::vector<ckpt::EncodedSection> take() {
    const std::lock_guard<std::mutex> lk(mu);
    return std::exchange(idle, {});
  }

  void give_back(std::vector<ckpt::EncodedSection> spent) {
    const std::lock_guard<std::mutex> lk(mu);
    if (idle.empty()) idle.swap(spent);
  }
};

/// One checkpoint's state, detached from the live simulation: the sealed
/// sections, holding every byte the file will (DeltaPack streams and CRCs
/// included), plus, for an incremental ring generation, the delta plan
/// against the previous generation. The async writer commits it on its
/// own thread, under the profiler region path the snapshot was taken in;
/// the commit only writes.
struct Simulation::Snapshot {
  std::shared_ptr<ckpt::FileWriter> writer;
  std::shared_ptr<const elastic::GenerationPlan> plan;  // null: plain file
  std::shared_ptr<ElasticStatsShared> stats;            // set with plan
  std::shared_ptr<CkptStaging> staging;  // takes the sections back
  std::string region;                    // prof::region_path() when taken
  std::uint64_t fingerprint = 0;
  std::int64_t step = 0;

  /// Commit the file; returns its size in bytes.
  std::uint64_t write(const std::string& path) {
    const prof::RegionBase base(region);
    if (!plan) return writer->commit(path, fingerprint, step);
    const elastic::GenStats st = elastic::write_generation(
        path, writer->sections(), *plan, fingerprint, step);
    stats->record(st);
    return st.file_bytes;
  }

  /// Hand the sections back for the next snapshot to stage in. Nothing
  /// reads them after the commit: the delta plan and the tracker keep
  /// hashes, not payloads.
  void recycle() { staging->give_back(writer->release_sections()); }
};

/// The async checkpoint writer: one persistent thread, started with the
/// writer, committing submitted snapshots in submission order. The first
/// failed commit is kept until the next wait(), which rethrows it. The
/// destructor drains the queue and joins; a failure no wait() saw is
/// dropped.
class Simulation::CkptWriter {
 public:
  CkptWriter() = default;
  ~CkptWriter() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CkptWriter(const CkptWriter&) = delete;
  CkptWriter& operator=(const CkptWriter&) = delete;

  /// Commits queued or running.
  [[nodiscard]] std::size_t pending() {
    const std::lock_guard<std::mutex> lk(mu_);
    return pending_locked();
  }

  void submit(Snapshot snap, std::string path) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back({std::move(snap), std::move(path)});
    }
    cv_.notify_all();
  }

  /// Block until at most `max_pending` commits are queued or running,
  /// then rethrow the first commit failure since the last wait().
  void wait(std::size_t max_pending) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return pending_locked() <= max_pending; });
    if (std::exception_ptr err = std::exchange(error_, nullptr))
      std::rethrow_exception(err);
  }

 private:
  struct Commit {
    Snapshot snap;
    std::string path;
  };

  std::size_t pending_locked() const {  // mu_ held
    return queue_.size() + (busy_ ? 1 : 0);
  }

  void loop() {
#ifdef __linux__
    // A batch thread: waking it at submit() does not preempt the stepping
    // thread (which it did for 2-3 ms per lpi_ckpt checkpoint), and it
    // still gets its fair share of the cores.
    const sched_param batch{};
    pthread_setschedparam(pthread_self(), SCHED_BATCH, &batch);
#endif
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      Commit c = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      lk.unlock();
      std::exception_ptr err;
      try {
        c.snap.write(c.path);
      } catch (...) {
        err = std::current_exception();
      }
      // Before busy_ clears, so a wait() that returns finds it idle.
      c.snap.recycle();
      c = Commit{};  // free the snapshot outside the lock
      lk.lock();
      busy_ = false;
      if (err && !error_) error_ = err;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;  // queue or busy_ changed, or stop_ set
  std::deque<Commit> queue_;
  bool busy_ = false;  // loop() is committing a snapshot it dequeued
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread thread_{[this] { loop(); }};  // last: starts after the rest
};

Simulation::Snapshot Simulation::snapshot(const std::string& path) {
  const std::int64_t gen =
      cfg_.checkpoint_incremental ? ring_generation_of(path) : -1;
  if (!ckpt_staging_) ckpt_staging_ = std::make_shared<CkptStaging>();
  Snapshot s;
  s.writer = std::make_shared<ckpt::FileWriter>(ckpt_staging_->take());
  s.staging = ckpt_staging_;
  s.region = prof::region_path();
  {
    // Stage the sections: small ones are copied now, the arrays and AoS
    // particles are deferred and read from the live state when the
    // writer is sealed below.
    prof::ScopedRegion enc("ckpt_encode");
    add_engine_sections(*s.writer, fields_, interp_, acc_, species_,
                        gen >= 0);
    add_history_sections(*s.writer, energy_history_);
    add_module_sections(*s.writer, modules_);
  }
  s.fingerprint = config_fingerprint();
  s.step = step_count_;
  if (gen < 0) {
    // Sealing IS the snapshot: it copies every deferred payload (into the
    // last committed snapshot's buffers when one is idle) and takes every
    // CRC on the team, so once it returns the writer is independent of
    // the live state and stepping may continue while the file is written
    // behind it.
    s.writer->seal();
    return s;
  }
  // The incremental plan runs here, on the stepping thread's team, so it
  // observes generations in order: it hashes the live state, diffs it
  // against the previous generation, and seals the writer with each
  // stored section DeltaPack-encoded. Only the write is left to the
  // commit.
  if (!elastic_tracker_)
    elastic_tracker_ = std::make_shared<elastic::DeltaTracker>(
        std::max(1, cfg_.checkpoint_full_every));
  // A chain lives in one ring: the first generation written into
  // another (a farm park, a new checkpoint_path) is a full base.
  const std::string ring = path.substr(0, path.rfind(".g"));
  if (ring != elastic_ring_) {
    elastic_tracker_->invalidate();
    elastic_ring_ = ring;
  }
  if (!elastic_stats_) elastic_stats_ = std::make_shared<ElasticStatsShared>();
  s.plan = std::make_shared<const elastic::GenerationPlan>(
      elastic_tracker_->plan(
          *s.writer, gen, static_cast<elastic::Codec>(cfg_.checkpoint_codec)));
  s.stats = elastic_stats_;
  return s;
}

std::uint64_t Simulation::checkpoint(const std::string& path) {
  prof::ScopedRegion r("ckpt");
  Snapshot s = snapshot(path);
  const std::uint64_t bytes = s.write(path);
  s.recycle();
  ++ckpt_written_;
  for (const auto& m : modules_) m->on_checkpoint(*this);
  return bytes;
}

void Simulation::checkpoint_async(const std::string& path) {
  prof::ScopedRegion r("ckpt_async");
  if (!ckpt_writer_) ckpt_writer_ = std::make_shared<CkptWriter>();
  // Double buffer: at most two detached snapshots queued behind the
  // writer; a third submission waits for the oldest to commit (bounding
  // memory at 2x the engine state).
  if (ckpt_writer_->pending() >= 2) ckpt_writer_->wait(1);
  ckpt_writer_->submit(snapshot(path), path);
  ++ckpt_written_;
  for (const auto& m : modules_) m->on_checkpoint(*this);
}

void Simulation::checkpoint_wait() {
  if (ckpt_writer_) ckpt_writer_->wait(0);
}

void Simulation::restore(const std::string& path) {
  prof::ScopedRegion r("ckpt_restore");
  const auto apply = [this](ckpt::SectionSource& f) {
    f.require_fingerprint(config_fingerprint());
    const ModuleIndex module_index = parse_module_index(f);
    read_engine_sections(
        f, fields_, interp_, acc_, species_,
        cfg_.tiles.enabled ? static_cast<std::size_t>(tile_count()) : 0);
    read_history_sections(f, energy_history_);
    read_module_sections(f, module_index, modules_, last_restore_skips_);
    step_count_ = f.step();
  };
  ckpt::FileReader f(path);
  if (f.has(elastic::kMetaSection)) {
    // Incremental generation: resolving the chain validates every
    // referenced sibling and hash-checks every payload up front, so the
    // validate-then-mutate order is preserved.
    elastic::ChainReader chain(f, path);
    apply(chain);
  } else {
    f.require_fingerprint(config_fingerprint());
    f.validate_all();
    apply(f);
  }
  // The on-disk chain no longer matches the tracker's hash bookkeeping
  // (restore may land on any generation): start a fresh chain.
  if (elastic_tracker_) elastic_tracker_->invalidate();
  // Rebuild the tile map and blocks before the next tiled step; it
  // re-buckets every species that adopted no tile ranges (docs/TILES.md).
  tiles_dirty_ = true;
}

std::string Simulation::restore_latest(const std::string& base) {
  ckpt::GenerationRing ring(base, cfg_.checkpoint_keep_last);
  const auto gens = ring.generations();
  std::optional<ckpt::RestoreError> newest_failure;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = ring.path_for(*it);
    try {
      restore(path);
      return path;
    } catch (const ckpt::RestoreError& e) {
      // Fall back to the previous generation; report the newest failure
      // if the whole ring is bad (it is the most actionable one).
      if (!newest_failure) newest_failure = e;
    }
  }
  if (newest_failure) throw *newest_failure;
  throw ckpt::RestoreError(ckpt::RestoreErrorKind::IoError,
                           "no checkpoint generations at '" + base + "'");
}

void Simulation::checkpoint_to_ring() {
  prof::ScopedRegion r("ckpt_ring");
  ckpt::GenerationRing ring(cfg_.checkpoint_path, cfg_.checkpoint_keep_last);
  // Generation numbers are tracked in memory, not re-scanned per
  // checkpoint: an async generation not yet renamed into place is
  // invisible to a directory scan, so two back-to-back periodic
  // checkpoints would collide on the same number and the later write
  // would silently overwrite a retained generation.
  if (ckpt_next_gen_ < 0 || ckpt_ring_base_ != cfg_.checkpoint_path) {
    ckpt_ring_base_ = cfg_.checkpoint_path;
    ckpt_next_gen_ = static_cast<std::int64_t>(ring.next_generation());
  }
  const std::string path =
      ring.path_for(static_cast<std::uint64_t>(ckpt_next_gen_++));
  if (cfg_.checkpoint_async) {
    checkpoint_async(path);
  } else {
    checkpoint(path);
  }
  // Prune sees only committed files: an async generation still being
  // written has not been renamed into place yet, and a later prune
  // catches it. In incremental mode keep_last counts whole chains — a
  // count-based prune could unlink a base out from under its deltas,
  // leaving retained generations unrestorable (docs/ELASTIC.md).
  {
    prof::ScopedRegion prune("ckpt_prune");
    if (cfg_.checkpoint_incremental) {
      elastic::prune_chains(cfg_.checkpoint_path, cfg_.checkpoint_keep_last);
    } else {
      ring.prune();
    }
  }
  // The stale-.tmp sweep must wait until no async commit is in flight —
  // it would unlink the background writer's "<path>.tmp" mid-write and
  // the rename-commit would fail, silently losing that checkpoint. With
  // writes pending it is deferred to a later, quiescent checkpoint (a
  // restart's restore_latest never races a writer, so crash wrecks are
  // still collected).
  if (!ckpt_writer_ || ckpt_writer_->pending() == 0) ring.remove_stale_tmp();
}

// ---- DistributedSimulation -------------------------------------------

namespace {

elastic::DomainPod domain_pod(const DomainConfig& cfg) {
  elastic::DomainPod d;
  d.nx = cfg.nx;
  d.ny = cfg.ny;
  d.nz = cfg.nz;
  d.lx = cfg.lx;
  d.ly = cfg.ly;
  d.lz = cfg.lz;
  d.dt = cfg.dt;
  d.strategy = static_cast<std::uint32_t>(cfg.strategy);
  d.seed = cfg.seed;
  d.overlap = cfg.overlap ? 1 : 0;
  return d;
}

std::vector<elastic::SpeciesId> species_ids(
    const std::vector<Species>& species) {
  std::vector<elastic::SpeciesId> ids;
  ids.reserve(species.size());
  for (const Species& sp : species)
    ids.push_back({sp.name, sp.q, sp.m});
  return ids;
}

}  // namespace

std::uint64_t DistributedSimulation::config_fingerprint() const {
  // Shared with elastic::Redecomposer (which recomputes it for a new rank
  // count from the stored "manifest.domain" pod): one definition, so the
  // two can never drift apart.
  return elastic::domain_fingerprint(domain_pod(cfg_), comm_.size(),
                                     species_ids(species_));
}

void DistributedSimulation::checkpoint(const std::string& dir) {
  prof::ScopedRegion r("ckpt_dist");
  const std::uint64_t fp = config_fingerprint();
  if (comm_.rank() == 0) {
    std::error_code ec;
    fs::create_directories(dir, ec);
  }
  comm_.barrier();  // directory exists before anyone writes into it

  ckpt::FileWriter w;
  add_engine_sections(w, fields_, interp_, acc_, species_);
  RankMeta meta;
  meta.z_offset = z_offset_;
  meta.exchanged = exchanged_;
  meta.current_species = current_species_;
  w.add_pod("rank.meta", meta);
  w.commit(dir + "/rank" + std::to_string(comm_.rank()) + ".ckpt", fp,
           step_count_);

  comm_.barrier();  // every rank file is committed...
  if (comm_.rank() == 0) {
    // ...before the manifest makes the set restorable: a crash beforehand
    // leaves a manifest-less directory that restore() rejects whole.
    ckpt::FileWriter m;
    m.add_pod("manifest.nranks", static_cast<std::int64_t>(comm_.size()));
    // The physics-defining domain config rides in the manifest so an
    // elastic::Redecomposer can rewrite the set for a different rank
    // count — and recompute the fingerprint — without the deck in hand.
    m.add_pod("manifest.domain", domain_pod(cfg_));
    m.commit(dir + "/manifest.ckpt", fp, step_count_);
  }
  comm_.barrier();
}

void DistributedSimulation::restore(const std::string& dir) {
  prof::ScopedRegion r("ckpt_dist_restore");
  const std::uint64_t fp = config_fingerprint();

  // Every rank reads the shared manifest (in-process ranks share the
  // filesystem) and validates the set before touching its own file.
  ckpt::FileReader manifest(dir + "/manifest.ckpt");
  manifest.require_fingerprint(fp);
  const auto nranks = manifest.pod<std::int64_t>("manifest.nranks");
  if (nranks != comm_.size())
    throw ckpt::RestoreError(ckpt::RestoreErrorKind::ManifestMismatch,
                             "checkpoint was written by " +
                                 std::to_string(nranks) + " ranks, comm has " +
                                 std::to_string(comm_.size()));

  ckpt::FileReader f(dir + "/rank" + std::to_string(comm_.rank()) + ".ckpt");
  f.require_fingerprint(fp);
  if (f.step() != manifest.step())
    throw ckpt::RestoreError(
        ckpt::RestoreErrorKind::ManifestMismatch,
        "rank file is from step " + std::to_string(f.step()) +
            ", manifest says " + std::to_string(manifest.step()));
  f.validate_all();

  read_engine_sections(f, fields_, interp_, acc_, species_);
  const auto meta = f.pod<RankMeta>("rank.meta");
  if (meta.z_offset != z_offset_)
    throw ckpt::RestoreError(ckpt::RestoreErrorKind::ManifestMismatch,
                             "rank file holds slab offset " +
                                 std::to_string(meta.z_offset) +
                                 ", this rank is at " +
                                 std::to_string(z_offset_));
  exchanged_ = meta.exchanged;
  current_species_ = static_cast<std::size_t>(meta.current_species);
  step_count_ = f.step();
  comm_.barrier();  // nobody resumes stepping until every rank restored
}

std::string DistributedSimulation::restore_rescaled(const std::string& dir) {
  prof::ScopedRegion r("ckpt_rescale");
  ckpt::FileReader manifest(dir + "/manifest.ckpt");
  const auto nranks = manifest.pod<std::int64_t>("manifest.nranks");
  if (nranks == comm_.size()) {
    restore(dir);
    return dir;
  }
  // Shape mismatch: rank 0 rewrites the set into a sibling directory
  // named for the target shape, everyone else waits on the broadcast
  // below (minimpi bcast barriers), then all restore the rewritten set
  // through the completely unchanged validation path.
  const std::string scaled =
      dir + ".rescale" + std::to_string(comm_.size());
  std::string error;
  if (comm_.rank() == 0) {
    try {
      elastic::Redecomposer::run(dir, scaled, comm_.size());
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  comm_.bcast(error, 0);
  if (!error.empty())
    throw ckpt::RestoreError(ckpt::RestoreErrorKind::ManifestMismatch,
                             "rescale " + std::to_string(nranks) + " -> " +
                                 std::to_string(comm_.size()) +
                                 " ranks failed: " + error);
  restore(scaled);
  return scaled;
}

}  // namespace vpic::core
