// Tests for vpic::elastic (src/elastic, docs/ELASTIC.md):
//
//   * DeltaPack codec: lossless round trips on particle-like payloads,
//     compression on slow-churn data, typed rejection of invalid input,
//   * incremental generation chains: full/delta cadence, bit-identical
//     resume from a delta generation (sync and async), the cumulative
//     ElasticCkptStats telemetry,
//   * generation-ring purge/sweep over chains: restore_latest falls back
//     across a corrupted mid-chain delta (and across a whole broken
//     chain) to the previous complete recovery point; prune_chains
//     retires chains wholesale, never orphaning a delta from its base,
//   * N→M restart: a 4-rank distributed checkpoint restored on 1, 2, 3
//     and 8 ranks via Redecomposer — per-voxel interior fields and
//     canonically-ordered particle state byte-equal to the same-rank
//     restore,
//   * tracer CSV sink: trajectory samples stream to the configured CSV
//     on checkpoint and at module destruction, without duplication.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/core.hpp"
#include "core/tracer.hpp"
#include "elastic/elastic.hpp"
#include "minimpi/minimpi.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace elastic = vpic::elastic;
namespace mpi = vpic::mpi;
namespace pk = vpic::pk;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: the bit-identity suites compare raw bytes, and
  // with >1 OpenMP threads the float-atomic current deposits are
  // nondeterministic.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

fs::path scratch(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("vpic_elastic_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::Simulation make_lpi_small(std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  p.seed = seed;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  return sim;
}

std::vector<std::byte> view_bytes(const pk::View<float, 1>& v) {
  std::vector<std::byte> b(static_cast<std::size_t>(v.size()) *
                           sizeof(float));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

void expect_bit_identical(core::Simulation& a, core::Simulation& b) {
  EXPECT_EQ(a.step_count(), b.step_count());
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  EXPECT_EQ(view_bytes(fa.ex), view_bytes(fb.ex));
  EXPECT_EQ(view_bytes(fa.ez), view_bytes(fb.ez));
  EXPECT_EQ(view_bytes(fa.by), view_bytes(fb.by));
  EXPECT_EQ(view_bytes(fa.jx), view_bytes(fb.jx));
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << "species " << sa.name;
    std::vector<core::Particle> pa(static_cast<std::size_t>(sa.np));
    std::vector<core::Particle> pb(static_cast<std::size_t>(sb.np));
    sa.p.export_aos(pa.data(), sa.np);
    sb.p.export_aos(pb.data(), sb.np);
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(),
                          pa.size() * sizeof(core::Particle)),
              0)
        << "species " << sa.name << " particle bytes differ";
  }
}

/// Run `f`, expecting it to throw RestoreError; return the kind.
template <class F>
ckpt::RestoreErrorKind thrown_kind(F&& f) {
  try {
    f();
  } catch (const ckpt::RestoreError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ckpt::RestoreError";
  return ckpt::RestoreErrorKind::IoError;
}

}  // namespace

// ---- DeltaPack codec -------------------------------------------------

TEST(Codec, RoundTripIsLossless) {
  // Particle-shaped records: cell-local positions (small floats around
  // zero), a voxel id, momenta, a constant weight.
  std::vector<core::Particle> ps(777);
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(static_cast<std::int64_t>(rng >> 33)) /
           static_cast<float>(1u << 30);
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i] = {next(), next(), next(), static_cast<std::int32_t>(i / 4),
             0.01f * next(), 0.01f * next(), 0.01f * next(), 1.0f};
  }
  const auto* raw = reinterpret_cast<const std::byte*>(ps.data());
  const std::size_t n = ps.size() * sizeof(core::Particle);
  const auto packed = elastic::deltapack_encode(raw, n, sizeof(core::Particle));
  ASSERT_FALSE(packed.empty());
  std::vector<std::byte> back(n);
  ASSERT_TRUE(elastic::deltapack_decode(packed.data(), packed.size(),
                                        back.data(), n,
                                        sizeof(core::Particle)));
  EXPECT_EQ(std::memcmp(back.data(), raw, n), 0);
}

TEST(Codec, CompressesSlowChurnParticles) {
  // Cold plasma at rest: momenta all zero, weights constant, voxel ids
  // ascending — the slow-churn deck shape the ≥1.5x bench bar targets.
  std::vector<core::Particle> ps(4096);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i] = {0.25f, -0.25f, 0.0f, static_cast<std::int32_t>(i / 8),
             0.0f, 0.0f, 0.0f, 1.0f};
  }
  const auto* raw = reinterpret_cast<const std::byte*>(ps.data());
  const std::size_t n = ps.size() * sizeof(core::Particle);
  const auto packed = elastic::deltapack_encode(raw, n, sizeof(core::Particle));
  ASSERT_FALSE(packed.empty());
  EXPECT_GE(static_cast<double>(n) / static_cast<double>(packed.size()), 1.5);
  std::vector<std::byte> back(n);
  ASSERT_TRUE(elastic::deltapack_decode(packed.data(), packed.size(),
                                        back.data(), n,
                                        sizeof(core::Particle)));
  EXPECT_EQ(std::memcmp(back.data(), raw, n), 0);
}

TEST(Codec, RejectsInvalidInput) {
  std::vector<std::byte> data(96, std::byte{7});
  // Element size not a multiple of 4: store raw.
  EXPECT_TRUE(elastic::deltapack_encode(data.data(), data.size(), 3).empty());
  // Payload not a whole number of records: store raw.
  EXPECT_TRUE(elastic::deltapack_encode(data.data(), 90, 32).empty());

  const auto packed = elastic::deltapack_encode(data.data(), data.size(), 32);
  ASSERT_FALSE(packed.empty());
  std::vector<std::byte> back(data.size());
  // Truncated stream: corruption, not success.
  EXPECT_FALSE(elastic::deltapack_decode(packed.data(), packed.size() - 1,
                                         back.data(), back.size(), 32));
  // Trailing garbage: the decoder must consume exactly the stream.
  auto padded = packed;
  padded.push_back(std::byte{0xAA});
  EXPECT_FALSE(elastic::deltapack_decode(padded.data(), padded.size(),
                                         back.data(), back.size(), 32));
  // The honest stream still decodes.
  EXPECT_TRUE(elastic::deltapack_decode(packed.data(), packed.size(),
                                        back.data(), back.size(), 32));
  EXPECT_EQ(back, data);
}

// ---- incremental chains ----------------------------------------------

TEST(Chain, IncrementalRingResumeIsBitIdentical) {
  const auto dir = scratch("inc_resume");
  const std::string base = (dir / "ck").string();

  auto ref = make_lpi_small();
  ref.run(40);

  auto victim = make_lpi_small();
  victim.config().checkpoint_every = 5;
  victim.config().checkpoint_path = base;
  victim.config().checkpoint_keep_last = 8;
  victim.config().checkpoint_incremental = true;
  victim.config().checkpoint_full_every = 3;
  victim.run(22);  // generations at steps 5, 10, 15, 20
  victim.config().checkpoint_every = 0;  // freeze the ring for comparison
  victim.run(18);
  expect_bit_identical(victim, ref);  // checkpointing never perturbs

  // g0 full, g1/g2 deltas, g3 full again.
  const auto stats = victim.elastic_ckpt_stats();
  EXPECT_EQ(stats.full_generations, 2);
  EXPECT_EQ(stats.delta_generations, 2);
  EXPECT_GT(stats.logical_bytes, stats.stored_raw_bytes);
  EXPECT_GE(stats.stored_raw_bytes, stats.stored_bytes);

  // The newest generation is a delta: restoring it walks the chain.
  ckpt::GenerationRing ring(base, 8);
  EXPECT_TRUE(elastic::ChainReader::is_chain_file(ring.path_for(2)));
  auto resumed = make_lpi_small();
  const std::string used = resumed.restore_latest(base);
  EXPECT_EQ(used, ring.path_for(3));
  EXPECT_EQ(resumed.step_count(), 20);
  resumed.run(20);
  expect_bit_identical(resumed, ref);

  // Restore from the mid-chain delta generation explicitly.
  auto from_delta = make_lpi_small();
  from_delta.restore(ring.path_for(2));
  EXPECT_EQ(from_delta.step_count(), 15);
  from_delta.run(25);
  expect_bit_identical(from_delta, ref);
}

TEST(Chain, AsyncIncrementalResume) {
  const auto dir = scratch("inc_async");
  const std::string base = (dir / "ck").string();

  auto ref = make_lpi_small();
  ref.run(30);

  auto victim = make_lpi_small();
  victim.config().checkpoint_every = 5;
  victim.config().checkpoint_path = base;
  victim.config().checkpoint_keep_last = 8;
  victim.config().checkpoint_async = true;
  victim.config().checkpoint_incremental = true;
  victim.config().checkpoint_full_every = 4;
  victim.run(22);
  EXPECT_NO_THROW(victim.checkpoint_wait());
  const auto stats = victim.elastic_ckpt_stats();
  EXPECT_EQ(stats.full_generations + stats.delta_generations, 4);
  EXPECT_GT(stats.delta_generations, 0);

  auto resumed = make_lpi_small();
  resumed.restore_latest(base);
  EXPECT_EQ(resumed.step_count(), 20);
  resumed.run(10);
  expect_bit_identical(resumed, ref);
}

TEST(Chain, PlainPathsStayPlainWithIncrementalOn) {
  // A non-ring path cannot anchor a delta chain: the flag must not turn
  // one-shot checkpoints into chain files.
  const auto dir = scratch("plain_path");
  const std::string path = (dir / "one.ckpt").string();
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.run(4);
  sim.checkpoint(path);
  EXPECT_FALSE(elastic::ChainReader::is_chain_file(path));
  auto resumed = make_lpi_small();
  resumed.restore(path);
  EXPECT_EQ(resumed.step_count(), 4);
}

// Build a 6-generation ring of two chains {g0,g1,g2} and {g3,g4,g5}
// (full_every=3). g5 is written without stepping after g4, so its delta
// stores nothing new and its manifest must reach back into g4 — the
// mid-chain dependency the fallback test corrupts.
namespace {

core::Simulation build_two_chains(const std::string& base) {
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.config().checkpoint_full_every = 3;
  ckpt::GenerationRing ring(base, 16);
  sim.run(4);
  sim.checkpoint(ring.path_for(0));  // full
  sim.run(2);
  sim.checkpoint(ring.path_for(1));  // delta
  sim.run(2);
  sim.checkpoint(ring.path_for(2));  // delta
  sim.run(2);
  sim.checkpoint(ring.path_for(3));  // full (chain rolls over)
  sim.run(2);
  sim.checkpoint(ring.path_for(4));  // delta, stores the step-12 state
  sim.checkpoint(ring.path_for(5));  // delta, nothing dirty: refs g4/g3
  return sim;
}

}  // namespace

TEST(Chain, FallbackAcrossCorruptMidChainDeltaAndBrokenChain) {
  const auto dir = scratch("fallback");
  const std::string base = (dir / "ck").string();
  build_two_chains(base);
  ckpt::GenerationRing ring(base, 16);

  // Sanity: the newest generation resolves through its siblings.
  {
    elastic::ChainReader r(ring.path_for(5));
    EXPECT_EQ(r.step(), 12);
    EXPECT_GE(r.sources().size(), 2u);
  }

  // Corrupt the mid-chain delta g4. g5 depended on it, so restore_latest
  // must fall back: g5 fails (its chain routes through g4), g4 fails,
  // and the chain's base g4... g3 — still intact — restores.
  ckpt::FaultInjector::flip_payload_bit(ring.path_for(4), 1);
  auto a = make_lpi_small();
  EXPECT_EQ(a.restore_latest(base), ring.path_for(3));
  EXPECT_EQ(a.step_count(), 10);

  // Break the whole newest chain by corrupting its base too: fallback
  // crosses to the previous complete chain and lands on its newest
  // delta g2.
  ckpt::FaultInjector::flip_payload_bit(ring.path_for(3), 1);
  auto b = make_lpi_small();
  EXPECT_EQ(b.restore_latest(base), ring.path_for(2));
  EXPECT_EQ(b.step_count(), 8);

  // With every chain broken the newest failure surfaces, typed.
  ckpt::FaultInjector::truncate_tail(ring.path_for(0), 64);
  ckpt::FaultInjector::flip_payload_bit(ring.path_for(1), 1);
  ckpt::FaultInjector::flip_payload_bit(ring.path_for(2), 1);
  auto c = make_lpi_small();
  EXPECT_EQ(thrown_kind([&] { c.restore_latest(base); }),
            ckpt::RestoreErrorKind::SectionCorrupt);
}

TEST(Chain, PruneRetiresWholeChains) {
  const auto dir = scratch("prune");
  const std::string base = (dir / "ck").string();
  build_two_chains(base);
  ckpt::GenerationRing ring(base, 16);
  ASSERT_EQ(ring.generations(),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));

  // Keeping 2 chains keeps everything (there are exactly two).
  EXPECT_EQ(elastic::prune_chains(base, 2), 0u);
  EXPECT_EQ(ring.generations(),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));

  // Keeping 1 chain removes the older chain *wholesale* — its deltas g1
  // and g2 go with their base g0, never orphaned.
  EXPECT_EQ(elastic::prune_chains(base, 1), 3u);
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{3, 4, 5}));

  // The surviving chain still restores from its newest delta.
  auto resumed = make_lpi_small();
  EXPECT_EQ(resumed.restore_latest(base), ring.path_for(5));
  EXPECT_EQ(resumed.step_count(), 12);
}

TEST(Chain, PeriodicRingPrunesByChainNotByFile) {
  // keep_last=2 under incremental mode means two *chains*; with
  // full_every=2 and 8 periodic generations the ring must never hold a
  // delta without its base.
  const auto dir = scratch("ring_chain_prune");
  const std::string base = (dir / "ck").string();
  auto sim = make_lpi_small();
  sim.config().checkpoint_every = 2;
  sim.config().checkpoint_path = base;
  sim.config().checkpoint_keep_last = 2;
  sim.config().checkpoint_incremental = true;
  sim.config().checkpoint_full_every = 2;
  sim.run(16);  // generations 0..7, chains {0,1},{2,3},{4,5},{6,7}
  ckpt::GenerationRing ring(base, 2);
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{4, 5, 6, 7}));

  auto resumed = make_lpi_small();
  EXPECT_EQ(resumed.restore_latest(base), ring.path_for(7));
  EXPECT_EQ(resumed.step_count(), 16);
}

// ---- N→M restart ------------------------------------------------------

namespace {

core::DomainConfig nm_config() {
  core::DomainConfig cfg;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.nz = 24;  // divisible by every tested rank count: 1, 2, 3, 4, 8
  cfg.lx = 4;
  cfg.ly = 4;
  cfg.lz = 24;
  cfg.seed = 7;
  cfg.overlap = false;  // fenced schedule: bit-deterministic reference
  return cfg;
}

/// Canonical global state of a distributed run, assembled on the caller
/// side from per-rank dumps (minimpi ranks are threads, so the dump
/// vector is shared by reference).
struct GlobalState {
  std::vector<float> fields;            // 9 views x global interior, z-major
  std::vector<core::Particle> parts;    // stable-sorted by global voxel
  double energy = 0;

  bool operator==(const GlobalState& o) const {
    return fields == o.fields && parts.size() == o.parts.size() &&
           std::memcmp(parts.data(), o.parts.data(),
                       parts.size() * sizeof(core::Particle)) == 0;
  }
};

struct RankDump {
  int z_offset = 0;
  int nz_local = 0;
  std::vector<std::vector<float>> interior;  // per view, local interior
  std::vector<core::Particle> parts;         // voxel rewritten to global id
  double energy = 0;
};

RankDump dump_rank(core::DistributedSimulation& sim,
                   const core::DomainConfig& cfg) {
  RankDump d;
  const core::Grid& g = sim.local_grid();
  d.z_offset = sim.z_offset();
  d.nz_local = g.nz;
  const auto& f = sim.fields();
  const pk::View<float, 1>* views[] = {&f.ex, &f.ey, &f.ez, &f.bx, &f.by,
                                       &f.bz, &f.jx, &f.jy, &f.jz};
  for (const auto* v : views) {
    std::vector<float> vals;
    vals.reserve(static_cast<std::size_t>(g.nx) * g.ny * g.nz);
    for (int iz = 1; iz <= g.nz; ++iz)
      for (int iy = 1; iy <= g.ny; ++iy)
        for (int ix = 1; ix <= g.nx; ++ix)
          vals.push_back((*v)(g.voxel(ix, iy, iz)));
    d.interior.push_back(std::move(vals));
  }
  const auto& sp = sim.species(0);
  d.parts.resize(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(d.parts.data(), sp.np);
  for (auto& p : d.parts) {
    int ix, iy, iz;
    g.cell_of(p.i, ix, iy, iz);
    // Global canonical interior cell id, independent of the slab shape.
    p.i = static_cast<std::int32_t>(
        ((d.z_offset + iz - 1) * cfg.ny + (iy - 1)) * cfg.nx + (ix - 1));
  }
  d.energy = sim.energies().total();
  return d;
}

GlobalState assemble(std::vector<RankDump> dumps,
                     const core::DomainConfig& cfg) {
  GlobalState gs;
  const std::size_t plane = static_cast<std::size_t>(cfg.nx) * cfg.ny;
  for (std::size_t v = 0; v < 9; ++v) {
    std::vector<float> global(plane * static_cast<std::size_t>(cfg.nz));
    for (const auto& d : dumps)
      std::copy(d.interior[v].begin(), d.interior[v].end(),
                global.begin() + plane * static_cast<std::size_t>(d.z_offset));
    gs.fields.insert(gs.fields.end(), global.begin(), global.end());
  }
  for (const auto& d : dumps)
    gs.parts.insert(gs.parts.end(), d.parts.begin(), d.parts.end());
  // Canonical particle order: stable sort by global voxel. Within a
  // voxel the (rank, record) order is preserved, and every decomposition
  // assigns a voxel's particles to exactly one rank in the same record
  // order — so equal decompositions yield byte-equal sequences.
  std::stable_sort(gs.parts.begin(), gs.parts.end(),
                   [](const core::Particle& a, const core::Particle& b) {
                     return a.i < b.i;
                   });
  gs.energy = dumps.empty() ? 0 : dumps.front().energy;
  return gs;
}

GlobalState restore_on(int nranks, const std::string& ckdir,
                       const core::DomainConfig& cfg, bool rescaled,
                       std::string* used_dir = nullptr) {
  std::vector<RankDump> dumps(static_cast<std::size_t>(nranks));
  std::string used;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    if (rescaled) {
      const std::string u = sim.restore_rescaled(ckdir);
      if (comm.rank() == 0) used = u;
    } else {
      sim.restore(ckdir);
    }
    dumps[static_cast<std::size_t>(comm.rank())] = dump_rank(sim, cfg);
  });
  if (used_dir) *used_dir = used;
  return assemble(std::move(dumps), cfg);
}

}  // namespace

TEST(NtoM, FourRankCheckpointRestoresBitIdenticalOnEveryShape) {
  const auto dir = scratch("nm");
  const std::string ckdir = (dir / "set").string();
  const auto cfg = nm_config();

  // Write the 4-rank checkpoint after a few steps of real dynamics.
  mpi::run(4, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f, 0.0f, 0.0f, 0.1f);
    sim.run(6);
    sim.checkpoint(ckdir);
  });

  // Reference: the same-rank restore's canonical global state.
  const GlobalState ref = restore_on(4, ckdir, cfg, /*rescaled=*/false);
  ASSERT_EQ(ref.parts.size(),
            static_cast<std::size_t>(cfg.nx) * cfg.ny * cfg.nz * 2);

  // Same shape through the rescale entry point: no rewrite happens.
  std::string used;
  const GlobalState same =
      restore_on(4, ckdir, cfg, /*rescaled=*/true, &used);
  EXPECT_EQ(used, ckdir);
  EXPECT_TRUE(same == ref);

  for (const int m : {1, 2, 3, 8}) {
    SCOPED_TRACE("restore on " + std::to_string(m) + " ranks");
    std::string scaled;
    const GlobalState got =
        restore_on(m, ckdir, cfg, /*rescaled=*/true, &scaled);
    EXPECT_EQ(scaled, ckdir + ".rescale" + std::to_string(m));
    EXPECT_TRUE(got == ref) << "global state diverged at m=" << m;
    // Bit-identical state implies matching energies up to the reduction
    // grouping across rank counts.
    EXPECT_NEAR(got.energy, ref.energy,
                1e-9 * std::max(1.0, std::abs(ref.energy)));
  }
}

TEST(NtoM, RescaleContinuesSteppingAfterRestore) {
  // The rescaled restore is a real simulation state, not just matching
  // bytes: an 8-rank continuation from the 4-rank checkpoint must step
  // and conserve the global particle count.
  const auto dir = scratch("nm_continue");
  const std::string ckdir = (dir / "set").string();
  const auto cfg = nm_config();
  std::int64_t np_before = 0;

  mpi::run(4, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f, 0.0f, 0.0f, 0.1f);
    sim.run(4);
    sim.checkpoint(ckdir);
    // global_np is an allreduce — every rank must call it.
    const std::int64_t np = sim.global_np(0);
    if (comm.rank() == 0) np_before = np;
  });

  mpi::run(8, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.restore_rescaled(ckdir);
    EXPECT_EQ(sim.step_count(), 4);
    sim.run(6);
    EXPECT_EQ(sim.global_np(0), np_before);  // collective: all ranks call
  });
}

TEST(NtoM, MissingDomainSectionIsTyped) {
  // A manifest without "manifest.domain" (pre-elastic writer) cannot be
  // redecomposed: the failure must be a typed collective error on every
  // rank, not a crash.
  const auto dir = scratch("nm_nodomain");
  const std::string ckdir = (dir / "set").string();
  const auto cfg = nm_config();
  mpi::run(2, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f);
    sim.checkpoint(ckdir);
    comm.barrier();
    if (comm.rank() == 0) {
      // Rewrite the manifest without the domain section.
      ckpt::FileReader m(ckdir + "/manifest.ckpt");
      ckpt::FileWriter w;
      w.add_pod("manifest.nranks", m.pod<std::int64_t>("manifest.nranks"));
      w.commit(ckdir + "/manifest.ckpt", m.fingerprint(), m.step());
    }
    comm.barrier();
  });
  mpi::run(1, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(nm_config(), comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    EXPECT_EQ(thrown_kind([&] { sim.restore_rescaled(ckdir); }),
              ckpt::RestoreErrorKind::ManifestMismatch);
  });
}

// ---- tracer CSV sink --------------------------------------------------

namespace {

std::size_t count_lines(const fs::path& p) {
  std::ifstream in(p);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++n;
  return n;
}

}  // namespace

TEST(TracerCsv, StreamsOnCheckpointAndDestruction) {
  const auto dir = scratch("tracer_csv");
  const fs::path csv = dir / "traj.csv";
  const std::string ck = (dir / "mid.ckpt").string();
  std::uint64_t total = 0;
  {
    auto sim = make_lpi_small();
    sim.config().tracer_csv_path = csv.string();
    core::TracerParams tp;
    tp.stride = 16;
    tp.max_tracers = 4;
    tp.sample_interval = 1;
    auto& tracer = sim.add_module<core::TracerModule>(tp);
    sim.run(5);
    sim.checkpoint(ck);  // flush #1, via the on_checkpoint hook
    EXPECT_EQ(tracer.samples_flushed(), tracer.samples_recorded());
    const std::size_t after_ckpt = count_lines(csv);
    EXPECT_EQ(after_ckpt,
              1 + static_cast<std::size_t>(tracer.samples_recorded()));
    sim.run(5);
    total = tracer.samples_recorded();
    EXPECT_GT(total, tracer.samples_flushed());
  }  // destructor flush #2: the post-checkpoint samples, no duplicates
  EXPECT_EQ(count_lines(csv), 1 + static_cast<std::size_t>(total));

  std::ifstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "step,id,voxel,dx,dy,dz,ux,uy,uz");

  // A restored module resumes the watermark at the checkpointed count:
  // replaying the pre-checkpoint samples would duplicate CSV rows.
  auto resumed = make_lpi_small();
  resumed.config().tracer_csv_path = csv.string();
  core::TracerParams tp;
  tp.stride = 16;
  tp.max_tracers = 4;
  tp.sample_interval = 1;
  auto& tracer = resumed.add_module<core::TracerModule>(tp);
  resumed.restore(ck);
  EXPECT_EQ(tracer.samples_flushed(), tracer.samples_recorded());
}
