// Tests for vpic::elastic (src/elastic, docs/ELASTIC.md):
//
//   * DeltaPack codec: lossless round trips on particle-like payloads,
//     compression on slow-churn data, typed rejection of invalid input,
//     output bytes equal to the per-byte reference encoder's and to a
//     pinned size and CRC,
//   * incremental generation chains: full/delta cadence, bit-identical
//     resume from a delta generation (sync and async), the cumulative
//     ElasticCkptStats telemetry, a full base and a delta pinned by every
//     data section's bytes and CRC, the snapshot's team pass equal to a
//     serial one at every team size, staging that allocates nothing after
//     the first full base, a restore that holds one copy of the particles
//     and moves payloads out of its readers, the payload hash pinned by
//     test vectors, a VPICELA1 chain (tests/data/ela1) that still restores
//     and prunes, and a typed failure for an unknown payload hash,
//   * generation-ring purge/sweep over chains: restore_latest falls back
//     across a corrupted mid-chain delta (and across a whole broken
//     chain) to the previous complete recovery point; prune_chains
//     retires chains wholesale, never orphaning a delta from its base,
//     reading only each generation's metadata; a failed commit makes the
//     next generation a full base,
//   * N→M restart: a 4-rank distributed checkpoint restored on 1, 2, 3
//     and 8 ranks via Redecomposer — per-voxel interior fields and
//     canonically-ordered particle state byte-equal to the same-rank
//     restore,
//   * tracer CSV sink: trajectory samples stream to the configured CSV
//     on checkpoint and at module destruction, without duplication.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/core.hpp"
#include "core/tracer.hpp"
#include "elastic/elastic.hpp"
#include "minimpi/minimpi.hpp"
#include "prof/prof.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace elastic = vpic::elastic;
namespace mpi = vpic::mpi;
namespace pk = vpic::pk;
namespace prof = vpic::prof;
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
    std::copy_n(sa.p.data(), sa.np, pa.data());
    std::copy_n(sb.p.data(), sb.np, pb.data());
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(),
                          pa.size() * sizeof(core::Particle)),
              0)
        << "species " << sa.name << " particle bytes differ";
  }
}

/// The DeltaPack stream of `n` bytes of `elem_size`-byte records, in a
/// buffer of its own; empty when they cannot be encoded.
std::vector<std::byte> pack(const std::byte* data, std::size_t n,
                            std::uint32_t elem_size) {
  std::vector<std::byte> out(elastic::deltapack_bound(n, elem_size));
  out.resize(
      elastic::deltapack_encode(data, n, elem_size, out.data(), out.size()));
  return out;
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
  const auto packed = pack(raw, n, sizeof(core::Particle));
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
  const auto packed = pack(raw, n, sizeof(core::Particle));
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
  EXPECT_TRUE(pack(data.data(), data.size(), 3).empty());
  // Payload not a whole number of records: store raw.
  EXPECT_TRUE(pack(data.data(), 90, 32).empty());

  const auto packed = pack(data.data(), data.size(), 32);
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

namespace {

/// The per-byte encoder deltapack_encode replaced: the definition of the
/// stream's bytes (elastic/codec.cpp), kept as the reference.
std::vector<std::byte> deltapack_encode_bytewise(const std::byte* data,
                                                 std::size_t n,
                                                 std::uint32_t elem_size) {
  if (n == 0 || elem_size == 0 || elem_size % 4 != 0 || n % elem_size != 0)
    return {};
  const std::size_t nrec = n / elem_size;
  const std::size_t nfields = elem_size / 4;
  const std::size_t ctrl_bytes = (nrec + 3) / 4;
  constexpr unsigned kCodeBytes[4] = {0, 1, 2, 4};
  std::vector<std::byte> out;
  for (std::size_t f = 0; f < nfields; ++f) {
    const std::size_t ctrl_at = out.size();
    out.resize(ctrl_at + ctrl_bytes, std::byte{0});
    std::uint32_t prev = 0;
    for (std::size_t r = 0; r < nrec; ++r) {
      std::uint32_t v;
      std::memcpy(&v, data + r * elem_size + f * 4, 4);
      const std::uint32_t x = v ^ prev;
      prev = v;
      const unsigned code = x == 0 ? 0 : x <= 0xFFu ? 1 : x <= 0xFFFFu ? 2 : 3;
      out[ctrl_at + r / 4] |= static_cast<std::byte>(code << (2 * (r % 4)));
      for (unsigned b = 0; b < kCodeBytes[code]; ++b)
        out.push_back(static_cast<std::byte>((x >> (8 * b)) & 0xFFu));
    }
  }
  return out;
}

}  // namespace

TEST(Codec, EncoderMatchesBytewiseReference) {
  std::uint64_t rng = 99;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  for (std::uint32_t elem = 4; elem <= 40; elem += 4) {
    for (const std::size_t nrec : {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257}) {
      const std::size_t n = nrec * elem;
      std::vector<std::byte> random(n), sparse(n), zero(n);
      for (std::size_t at = 0; at < n; at += 4) {
        const std::uint32_t r = next();
        std::memcpy(random.data() + at, &r, 4);
        // One word in eight nonzero, at every stored width.
        const std::uint32_t s = r % 8 != 0 ? 0u : r >> (8 * (r % 32 / 8));
        std::memcpy(sparse.data() + at, &s, 4);
      }
      for (const auto* buf : {&random, &sparse, &zero})
        ASSERT_EQ(pack(buf->data(), n, elem),
                  deltapack_encode_bytewise(buf->data(), n, elem))
            << "elem_size " << elem << " records " << nrec;
    }
  }
}

TEST(Codec, PinnedPackedSizeAndCrc) {
  // One deterministic particle buffer; its packed size and CRC were
  // computed with the per-byte encoder and bytewise CRC, so a change to
  // the stream's bytes on disk fails here.
  std::vector<core::Particle> ps(1000);
  std::uint64_t rng = 2024;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(static_cast<std::int64_t>(rng >> 33)) /
           static_cast<float>(1u << 30);
  };
  for (std::size_t i = 0; i < ps.size(); ++i)
    ps[i] = {next(), next(), next(), static_cast<std::int32_t>(i / 3),
             0.01f * next(), 0.01f * next(), 0.01f * next(), 1.0f};
  const auto packed = pack(
      reinterpret_cast<const std::byte*>(ps.data()),
      ps.size() * sizeof(core::Particle), sizeof(core::Particle));
  EXPECT_EQ(packed.size(), 26302u);
  EXPECT_EQ(ckpt::crc32(packed.data(), packed.size()), 0x8C18B015u);
}

TEST(Codec, EncoderStopsAtItsCapacity) {
  // A stream that fits the capacity exactly is the whole stream; one byte
  // less, and the encoder gives up without writing past the capacity.
  std::vector<std::uint32_t> words(4 * 100);
  std::uint64_t rng = 5;
  for (auto& w : words) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    w = static_cast<std::uint32_t>(rng >> (40 + rng % 24));
  }
  const auto* data = reinterpret_cast<const std::byte*>(words.data());
  const std::size_t n = words.size() * 4;
  const auto whole = pack(data, n, 16);
  ASSERT_FALSE(whole.empty());
  for (const std::size_t cap : {whole.size(), whole.size() - 1,
                                whole.size() - 3, whole.size() / 2,
                                std::size_t{10}}) {
    std::vector<std::byte> out(cap + 8, std::byte{0xAB});
    const std::size_t got =
        elastic::deltapack_encode(data, n, 16, out.data(), cap);
    if (cap == whole.size()) {
      ASSERT_EQ(got, whole.size());
      EXPECT_TRUE(std::equal(whole.begin(), whole.end(), out.begin()));
    } else {
      EXPECT_EQ(got, 0u) << "capacity " << cap;
    }
    for (std::size_t b = cap; b < out.size(); ++b)
      ASSERT_EQ(out[b], std::byte{0xAB}) << "capacity " << cap << " byte " << b;
  }
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
  EXPECT_TRUE(ckpt::FileReader(ring.path_for(2)).has(elastic::kMetaSection));
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
  EXPECT_FALSE(ckpt::FileReader(path).has(elastic::kMetaSection));
  auto resumed = make_lpi_small();
  resumed.restore(path);
  EXPECT_EQ(resumed.step_count(), 4);
}

TEST(Chain, FirstGenerationInAnotherRingIsAFullBase) {
  // A farm park checkpoints into the job's park ring while the deck's own
  // periodic ring holds the incremental chain: the park generation must
  // not be a delta against a generation of the other ring.
  const auto dir = scratch("cross_ring");
  const auto make = [] {
    core::decks::LpiParams p;
    p.nx = 16;
    p.ny = 8;
    p.nz = 8;
    p.ppc = 4;
    return core::decks::make_lpi(p);
  };
  auto victim = make();
  victim.config().checkpoint_every = 5;
  victim.config().checkpoint_path = (dir / "ck").string();
  victim.config().checkpoint_incremental = true;
  victim.run(12);  // ring generations at steps 5 and 10
  const std::string park = (dir / "park").string();
  ckpt::GenerationRing ring(park, 2);
  const std::string g0 = ring.path_for(ring.next_generation());
  victim.checkpoint(g0);

  auto from_gen = make();
  ASSERT_NO_THROW(from_gen.restore(g0));
  EXPECT_EQ(from_gen.step_count(), 12);
  expect_bit_identical(from_gen, victim);
  auto from_ring = make();
  EXPECT_EQ(from_ring.restore_latest(park), g0);
  expect_bit_identical(from_ring, victim);
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
    ckpt::FileReader g5(ring.path_for(5));
    elastic::ChainReader r(g5, ring.path_for(5));
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

TEST(Chain, PruneReadsOnlyMetadata) {
  // prune_chains needs each generation's ela.meta, nothing else: opening
  // a generation reads its header and section table, and the meta
  // section is the one payload read.
  const auto dir = scratch("prune_meta");
  const std::string base = (dir / "ck").string();
  core::decks::LpiParams p;  // 32x16x16, ~2.5 MB of particles
  auto sim = core::decks::make_lpi(p);
  sim.config().checkpoint_incremental = true;
  sim.config().checkpoint_full_every = 2;
  sim.config().checkpoint_codec = 0;
  ckpt::GenerationRing ring(base, 16);
  for (std::uint64_t g = 0; g < 4; ++g) {
    sim.run(1);
    sim.checkpoint(ring.path_for(g));  // chains {g0,g1} and {g2,g3}
    ASSERT_GE(fs::file_size(ring.path_for(g)), 1u << 20);
  }

  const std::uint64_t before = prof::counter_value("ckpt.read_bytes");
  EXPECT_EQ(elastic::prune_chains(base, 1), 2u);
  const std::uint64_t read = prof::counter_value("ckpt.read_bytes") - before;
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_GE(read, 4 * (sizeof(ckpt::FileHeader) + sizeof(elastic::ElaMeta)));
  EXPECT_LT(read, 4u * 16u * 1024u) << read << " bytes read over 4 generations";
}

TEST(Chain, FailedCommitStartsAFullBase) {
  // A generation whose commit fails never reaches disk, so nothing may
  // chain through it: the next generation must be a full base that
  // restores without it. Covers the sync path, the async path with a
  // wait between the failure and the next checkpoint, and the async path
  // where the next delta may be planned before the failure surfaces.
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE(mode == 0 ? "sync" : mode == 1 ? "async+wait" : "async");
    const auto dir = scratch("failed_commit" + std::to_string(mode));
    const std::string base = (dir / "r").string();
    core::decks::LpiParams p;
    p.nx = 16;
    p.ny = 8;
    p.nz = 8;
    auto sim = core::decks::make_lpi(p);
    sim.config().checkpoint_incremental = true;
    sim.config().checkpoint_codec = 1;
    ckpt::GenerationRing ring(base, 8);
    const auto write = [&](std::uint64_t g) {
      if (mode == 0)
        sim.checkpoint(ring.path_for(g));
      else
        sim.checkpoint_async(ring.path_for(g));
    };
    // The sync path builds no writer instance, so this is a no-op there.
    const auto wait = [&] { sim.checkpoint_wait(); };
    write(0);
    wait();
    sim.run(1);
    write(1);
    wait();
    sim.run(1);
    // A directory where g2's temp file goes makes its commit fail.
    const std::string blocker = ring.path_for(2) + ".tmp";
    fs::create_directories(blocker);
    if (mode == 0) {
      EXPECT_EQ(thrown_kind([&] { write(2); }), ckpt::RestoreErrorKind::IoError);
    } else {
      write(2);
    }
    if (mode == 1) {
      EXPECT_EQ(thrown_kind(wait), ckpt::RestoreErrorKind::IoError);
    }
    write(3);  // async: planned while g2 may still be committing
    if (mode == 2) {
      EXPECT_EQ(thrown_kind(wait), ckpt::RestoreErrorKind::IoError);
    }
    wait();
    fs::remove(blocker);
    ASSERT_FALSE(fs::exists(ring.path_for(2)));

    ckpt::FileReader g3(ring.path_for(3));
    EXPECT_EQ(g3.pod<elastic::ElaMeta>(std::string(elastic::kMetaSection)).kind,
              elastic::kKindFull);
    auto restored = core::decks::make_lpi(p);
    ASSERT_NO_THROW(restored.restore(ring.path_for(3)));
    expect_bit_identical(restored, sim);

    // The chain restarted at g3 carries on as deltas. (A g3 planned before
    // g2's failure surfaced was written as a full base in a chain already
    // marked broken, so g4 starts another one.)
    sim.run(1);
    write(4);
    wait();
    ckpt::FileReader g4(ring.path_for(4));
    const auto meta =
        g4.pod<elastic::ElaMeta>(std::string(elastic::kMetaSection));
    if (mode != 2 || meta.kind == elastic::kKindDelta) {
      EXPECT_EQ(meta.kind, elastic::kKindDelta);
      EXPECT_EQ(meta.base, 3);
    }
    auto from_delta = core::decks::make_lpi(p);
    ASSERT_NO_THROW(from_delta.restore(ring.path_for(4)));
    expect_bit_identical(from_delta, sim);
  }

  // The async race made deterministic: g2 is planned as a delta while g1
  // is still uncommitted, then g1's commit fails. g2 is written as a full
  // base, and the next plan starts a chain of its own.
  const auto dir = scratch("failed_commit_inflight");
  ckpt::GenerationRing ring((dir / "r").string(), 8);
  std::vector<ckpt::EncodedSection> sections(2);
  sections[0].name = "a";
  sections[0].payload.assign(64, std::byte{1});
  sections[1].name = "b";
  sections[1].payload.assign(64, std::byte{2});
  elastic::DeltaTracker tracker(8);
  const auto commit = [&](const elastic::GenerationPlan& plan) {
    return elastic::write_generation(ring.path_for(plan.generation), sections,
                                     plan, 0, plan.generation);
  };
  commit(tracker.plan(sections, 0, elastic::Codec::None));
  const auto p1 = tracker.plan(sections, 1, elastic::Codec::None);
  sections[1].payload[0] = std::byte{3};
  const auto p2 = tracker.plan(sections, 2, elastic::Codec::None);
  ASSERT_EQ(p2.kind, elastic::kKindDelta);
  fs::create_directories(ring.path_for(1) + ".tmp");
  EXPECT_EQ(thrown_kind([&] { commit(p1); }), ckpt::RestoreErrorKind::IoError);
  EXPECT_EQ(commit(p2).kind, elastic::kKindFull);
  EXPECT_EQ(tracker.plan(sections, 3, elastic::Codec::None).kind,
            elastic::kKindFull);
  ckpt::FileReader g2(ring.path_for(2));
  elastic::ChainReader chain(g2, ring.path_for(2));
  EXPECT_EQ(chain.sources(), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(chain.section("b").payload, sections[1].payload);
}

TEST(Chain, GenerationBytesArePinned) {
  // A full base and a delta planned and written from hand-built sections,
  // staged as a snapshot stages them (deferred, read from `sections` when
  // the plan seals the writer): "packed" DeltaPacks, "noise" falls back
  // to raw (its packed stream is not shorter than its payload), and
  // "fixed" is left unchanged in the delta. Every data section's bytes
  // and CRC are the ones the FNV-1a (VPICELA1) chain format wrote, so a
  // change to any byte a section stores fails here; the files differ from
  // those only in "ela.meta" (the magic) and "ela.manifest" (the hashes),
  // which the file sizes and CRC-32s pin.
  const auto dir = scratch("pinned_bytes");
  ckpt::GenerationRing ring((dir / "r").string(), 8);
  std::uint64_t rng = 77;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  const auto shape = [](ckpt::EncodedSection& s, const char* name,
                        std::uint32_t elem, std::int64_t n) {
    s.name = name;
    s.elem_size = elem;
    s.rank = 1;
    s.extents[0] = n;
    s.layout = ckpt::kLayoutRight;
    s.payload.resize(static_cast<std::size_t>(n) * elem);
  };
  std::vector<ckpt::EncodedSection> sections(3);
  shape(sections[0], "packed", 32, 500);
  for (std::size_t r = 0; r < 500; ++r) {
    // Particle-like records: a sorted voxel, small offsets, unit weight.
    const std::uint32_t rec[8] = {next() % 64,  next() % 64, 0,
                                  static_cast<std::uint32_t>(r / 5),
                                  next() % 300, 0,           0,
                                  0x3F800000u};
    std::memcpy(sections[0].payload.data() + r * 32, rec, 32);
  }
  shape(sections[1], "noise", 4, 1000);
  for (std::size_t at = 0; at < 4000; at += 4) {
    const std::uint32_t v = next();
    std::memcpy(sections[1].payload.data() + at, &v, 4);
  }
  shape(sections[2], "fixed", 8, 64);
  for (std::size_t b = 0; b < 512; ++b)
    sections[2].payload[b] = static_cast<std::byte>(b * 7);

  elastic::DeltaTracker tracker(4);
  const auto commit = [&](std::int64_t gen) {
    ckpt::FileWriter w;
    for (const ckpt::EncodedSection& s : sections) {
      ckpt::EncodedSection staged = s;
      w.add_deferred(std::move(staged), s.payload.data());
    }
    const auto plan = tracker.plan(w, gen, elastic::Codec::DeltaPack);
    return elastic::write_generation(ring.path_for(gen), w.sections(), plan,
                                     0xFEEDu, 10 * (gen + 1));
  };
  const elastic::GenStats full = commit(0);
  sections[0].payload[7 * 32 + 16] = std::byte{9};
  sections[1].payload[100] ^= std::byte{0xFF};
  const elastic::GenStats delta = commit(1);
  EXPECT_EQ(full.kind, elastic::kKindFull);
  EXPECT_EQ(full.sections_stored, 3u);
  EXPECT_EQ(delta.kind, elastic::kKindDelta);
  EXPECT_EQ(delta.sections_stored, 2u);

  const auto manifest = [&](std::int64_t gen) {
    ckpt::FileReader f(ring.path_for(gen));
    const ckpt::EncodedSection& m = f.section(elastic::kManifestSection);
    return elastic::parse_manifest(m.payload.data(), m.payload.size());
  };
  for (const std::int64_t gen : {0, 1}) {
    const auto m = manifest(gen);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].codec, elastic::Codec::DeltaPack) << "g" << gen;
    EXPECT_EQ(m[1].codec, elastic::Codec::None) << "g" << gen;
    EXPECT_EQ(m[2].src_gen, 0) << "g" << gen;
  }

  // (generation, section) -> stored bytes and their CRC-32.
  struct Pin {
    std::int64_t gen;
    const char* name;
    std::size_t bytes;
    std::uint32_t crc;
  };
  for (const Pin& pin : {Pin{0, "packed", 2729, 0x36B8B3BEu},
                         Pin{0, "noise", 4000, 0x80F7D299u},
                         Pin{0, "fixed", 512, 0x1F9AB551u},
                         Pin{1, "packed", 2728, 0x3D03C4C7u},
                         Pin{1, "noise", 4000, 0x66BE3C88u}}) {
    ckpt::FileReader f(ring.path_for(pin.gen));
    const ckpt::EncodedSection& s = f.section(pin.name);
    EXPECT_EQ(s.payload.size(), pin.bytes) << "g" << pin.gen << " " << pin.name;
    EXPECT_EQ(ckpt::crc32(s.payload.data(), s.payload.size()), pin.crc)
        << "g" << pin.gen << " " << pin.name;
  }
  EXPECT_FALSE(ckpt::FileReader(ring.path_for(1)).has("fixed"));

  const auto size_and_crc = [&](std::int64_t gen) {
    std::ifstream in(ring.path_for(gen), std::ios::binary);
    const std::vector<char> b((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    return std::make_pair(b.size(), ckpt::crc32(b.data(), b.size()));
  };
  const auto [size0, crc0] = size_and_crc(0);
  const auto [size1, crc1] = size_and_crc(1);
  EXPECT_EQ(full.file_bytes, size0);
  EXPECT_EQ(delta.file_bytes, size1);
  EXPECT_EQ(size0, 8056u);
  EXPECT_EQ(crc0, 0x48F0E91Cu);
  EXPECT_EQ(size1, 7440u);
  EXPECT_EQ(crc1, 0x58B354DDu);

  ckpt::FileReader g1(ring.path_for(1));
  elastic::ChainReader chain(g1, ring.path_for(1));
  for (const ckpt::EncodedSection& s : sections)
    EXPECT_EQ(chain.section(s.name).payload, s.payload) << s.name;
}

TEST(Chain, StagingAllocatesNothingAfterTheFirstFullBase) {
  // A chain snapshot DeltaPack-encodes into its staged payloads, which the
  // next snapshot stages in again: once the first full base has staged
  // afresh, no later snapshot (delta or full) allocates a payload. Energy
  // diagnostics stay off, so no section grows between checkpoints.
  for (const bool async : {false, true}) {
    const std::string mode = async ? "async" : "sync";
    SCOPED_TRACE(mode);
    const auto dir = scratch("stage_reuse_" + mode);
    auto sim = make_lpi_small();
    sim.config().energy_interval = 0;
    sim.config().checkpoint_every = 5;
    sim.config().checkpoint_path = (dir / "ck").string();
    sim.config().checkpoint_async = async;
    sim.config().checkpoint_incremental = true;
    sim.config().checkpoint_codec = 1;
    sim.config().checkpoint_full_every = 3;
    const std::uint64_t before = prof::counter_value("ckpt.stage_alloc");
    std::vector<std::uint64_t> allocs;  // cumulative, after each checkpoint
    for (int step = 1; step <= 30; ++step) {
      sim.step();
      if (step % 5 != 0) continue;
      sim.checkpoint_wait();  // the commit has handed its sections back
      allocs.push_back(prof::counter_value("ckpt.stage_alloc"));
    }
    ASSERT_EQ(allocs.size(), 6u);
    EXPECT_EQ(sim.elastic_ckpt_stats().full_generations, 2);
    EXPECT_GT(allocs[0], before) << "the first snapshot stages afresh";
    for (std::size_t k = 1; k < allocs.size(); ++k)
      EXPECT_EQ(allocs[k], allocs[0]) << "checkpoint " << k + 1;
  }
}

TEST(Chain, SyncCommitBesideAnAsyncOneRestores) {
  // A sync checkpoint taken while an async commit may still run takes a
  // buffer of its own; both generations restore.
  const auto dir = scratch("sync_beside_async");
  ckpt::GenerationRing ring((dir / "r").string(), 8);
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.config().checkpoint_codec = 1;
  sim.run(3);
  sim.checkpoint_async(ring.path_for(0));
  sim.checkpoint(ring.path_for(1));
  sim.checkpoint_wait();
  for (const std::uint64_t g : {0, 1}) {
    auto restored = make_lpi_small();
    ASSERT_NO_THROW(restored.restore(ring.path_for(g)));
    expect_bit_identical(restored, sim);
  }
}

TEST(Chain, RestoreHoldsOneCopyOfTheParticles) {
  // The resolved chain replaces the particle chunks with the canonical
  // "sp<i>.p" instead of holding both.
  const auto dir = scratch("one_copy");
  ckpt::GenerationRing ring((dir / "r").string(), 8);
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.run(2);
  sim.checkpoint(ring.path_for(0));
  ckpt::FileReader g0(ring.path_for(0));
  ASSERT_TRUE(g0.has("sp0.c0.p"));
  elastic::ChainReader chain(g0, ring.path_for(0));
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    const std::string pfx = "sp" + std::to_string(s) + ".";
    EXPECT_TRUE(chain.has(pfx + "p"));
    EXPECT_EQ(chain.section(pfx + "p").extents[0], sim.species(s).np);
  }
  for (const std::string& name : chain.section_names())
    EXPECT_FALSE(name.starts_with("sp") && name.ends_with(".p") &&
                 name.find(".c") != std::string::npos)
        << name;
}

TEST(Chain, TeamPassEqualsASerialOneAtEveryTeamSize) {
  // plan() hashes and seals the snapshot on the team. At every team size
  // each hash is the serial payload_hash of the section's raw bytes, each
  // section holds the serial DeltaPack stream when that is shorter than
  // its payload and its raw bytes otherwise, and each CRC is the serial
  // CRC of what it holds. Odd sections are deferred (read from
  // `sections`), even ones staged when added (their own source).
  std::vector<ckpt::EncodedSection> sections(37);
  std::uint64_t rng = 7;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  for (std::size_t i = 0; i < sections.size(); ++i) {
    auto& s = sections[i];
    s.name = "section" + std::to_string(i);
    s.elem_size = i % 3 == 0 ? 1 : 4 * static_cast<std::uint32_t>(1 + i % 4);
    s.rank = 1;
    s.layout = ckpt::kLayoutRight;
    const std::size_t n = (i * 7919) % 5000 / s.elem_size * s.elem_size;
    s.extents[0] = static_cast<std::int64_t>(n / s.elem_size);
    s.payload.resize(n);
    std::uint32_t v = next();
    for (std::size_t at = 0; at + 4 <= n; at += 4) {
      // Slowly varying words in most sections, noise in every fifth.
      v = i % 5 == 4 ? next() : v + next() % 8;
      std::memcpy(s.payload.data() + at, &v, 4);
    }
  }
  for (const int threads : {1, 2, 4}) {
    pk::initialize(threads);
    ckpt::FileWriter w;
    for (std::size_t i = 0; i < sections.size(); ++i) {
      ckpt::EncodedSection staged = sections[i];
      if (i % 2 == 1)
        w.add_deferred(std::move(staged), sections[i].payload.data());
      else
        w.add(std::move(staged));
    }
    elastic::DeltaTracker tracker(4);
    const auto plan = tracker.plan(w, 0, elastic::Codec::DeltaPack);
    ASSERT_EQ(plan.entries.size(), sections.size());
    ASSERT_EQ(plan.sealed.size(), sections.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const std::vector<std::byte>& raw = sections[i].payload;
      SCOPED_TRACE(sections[i].name + " at " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(plan.entries[i].hash,
                elastic::payload_hash(raw.data(), raw.size()));
      std::vector<std::byte> want = raw;
      if (raw.size() >= 64) {
        const auto packed = pack(raw.data(), raw.size(),
                                 sections[i].elem_size);
        if (!packed.empty() && packed.size() < raw.size()) want = packed;
      }
      EXPECT_EQ(plan.entries[i].codec, want.size() < raw.size()
                                           ? elastic::Codec::DeltaPack
                                           : elastic::Codec::None);
      const std::byte* held = w.sections()[i].payload.data();
      ASSERT_EQ(plan.sealed[i].bytes, want.size());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), held));
      EXPECT_EQ(plan.sealed[i].crc,
                ckpt::crc32_portable(want.data(), want.size()));
    }
  }
  pk::initialize(1);
}

TEST(Chain, PayloadHashIsPinned) {
  // payload_hash is XXH64 with seed 0: the published values for inputs
  // that take the byte tail alone and the four-lane stripe loop, and a
  // pinned value for a buffer that runs the loop and every tail.
  EXPECT_EQ(elastic::payload_hash("", 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(elastic::payload_hash("a", 1), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(elastic::payload_hash("abc", 3), 0x44BC2CF5AD770999ull);
  const std::string_view spam = "Nobody inspects the spammish repetition";
  EXPECT_EQ(elastic::payload_hash(spam.data(), spam.size()),
            0xFBCEA83C8A378BF1ull);
  std::vector<unsigned char> b(1000 + 15);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<unsigned char>(i * 31 + 7);
  EXPECT_EQ(elastic::payload_hash(b.data(), b.size()), 0x597F3ED46B85FE21ull);
}

TEST(Chain, Ela1ChainRestoresBitIdenticalAndPrunes) {
  // A full base and a delta written in the VPICELA1 format (FNV-1a
  // manifest hashes; tests/data/ela1: make_lpi_small, checkpoints at steps
  // 4 and 6, DeltaPack, full base every 3). Restoring the delta resolves
  // the chain through its base, every payload passing its FNV-1a manifest
  // hash, and the restored state holds exactly the resolved bytes (the
  // electron particles pinned by CRC, as written; a fresh run is no
  // reference here, since its floating point depends on the build).
  // prune_chains groups the two as one chain beside a chain of this
  // build.
  const auto dir = scratch("ela1");
  const std::string base = (dir / "ela1").string();
  ckpt::GenerationRing ring(base, 8);
  for (const std::uint64_t g : {0, 1})
    fs::copy_file(fs::path(VPIC_TEST_DATA_DIR) / "ela1" /
                      ("ela1.g" + std::to_string(g)),
                  ring.path_for(g));
  ckpt::FileReader g1(ring.path_for(1));
  const auto meta =
      g1.pod<elastic::ElaMeta>(std::string(elastic::kMetaSection));
  EXPECT_EQ(meta.magic, elastic::kElaMagicV1);
  EXPECT_EQ(meta.kind, elastic::kKindDelta);
  elastic::ChainReader chain(g1, ring.path_for(1));
  EXPECT_EQ(chain.sources(), (std::vector<std::int64_t>{0, 1}));

  auto restored = make_lpi_small();
  EXPECT_EQ(restored.restore_latest(base), ring.path_for(1));
  EXPECT_EQ(restored.step_count(), 6);
  EXPECT_EQ(view_bytes(restored.fields().ex), chain.section("f.ex").payload);
  EXPECT_EQ(view_bytes(restored.fields().by), chain.section("f.by").payload);
  for (std::size_t s = 0; s < restored.num_species(); ++s) {
    const auto& sp = restored.species(s);
    std::vector<std::byte> b(static_cast<std::size_t>(sp.np) *
                             sizeof(core::Particle));
    std::memcpy(b.data(), sp.p.data(), b.size());
    EXPECT_EQ(b, chain.section("sp" + std::to_string(s) + ".p").payload)
        << sp.name;
  }
  const auto& e = chain.section("sp0.p").payload;
  EXPECT_EQ(ckpt::crc32(e.data(), e.size()), 0x6F6394F2u);

  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.run(2);
  sim.checkpoint(ring.path_for(2));  // a VPICELA2 full base
  EXPECT_EQ(ckpt::FileReader(ring.path_for(2))
                .pod<elastic::ElaMeta>(std::string(elastic::kMetaSection))
                .magic,
            elastic::kElaMagic);
  EXPECT_EQ(elastic::prune_chains(base, 2), 0u);
  EXPECT_EQ(elastic::prune_chains(base, 1), 2u);
  EXPECT_EQ(ring.generations(), (std::vector<std::uint64_t>{2}));
}

TEST(Chain, UnknownPayloadHashIsTypedAndFallsBack) {
  // A generation whose ela.meta names a hash this build does not know
  // cannot be verified: restoring it is a typed BadVersion failure, and
  // restore_latest falls back past it.
  const auto dir = scratch("unknown_hash");
  const std::string base = (dir / "ck").string();
  ckpt::GenerationRing ring(base, 8);
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.run(2);
  sim.checkpoint(ring.path_for(0));
  sim.run(2);
  sim.checkpoint(ring.path_for(1));
  {
    // Rewrite g1 with the chain version byte '9'.
    ckpt::FileReader f(ring.path_for(1));
    ckpt::FileWriter w;
    for (const std::string& name : f.section_names()) {
      ckpt::EncodedSection s = f.section(name);
      if (name == elastic::kMetaSection) {
        elastic::ElaMeta m;
        std::memcpy(&m, s.payload.data(), sizeof m);
        m.magic = (elastic::kElaMagic & ~std::uint64_t{0xFF}) | '9';
        std::memcpy(s.payload.data(), &m, sizeof m);
      }
      w.add(std::move(s));
    }
    w.commit(ring.path_for(1), f.fingerprint(), f.step());
  }
  auto a = make_lpi_small();
  EXPECT_EQ(thrown_kind([&] { a.restore(ring.path_for(1)); }),
            ckpt::RestoreErrorKind::BadVersion);
  auto b = make_lpi_small();
  EXPECT_EQ(b.restore_latest(base), ring.path_for(0));
  EXPECT_EQ(b.step_count(), 2);
}

TEST(Chain, ResolvingMovesPayloadsOutOfTheReaders) {
  // ChainReader takes each payload out of its file's reader: once the
  // chain resolves, the target's reader holds no copy of the sections, so
  // asking it for one reads the section from the file again.
  const auto dir = scratch("reader_moves");
  ckpt::GenerationRing ring((dir / "r").string(), 8);
  auto sim = make_lpi_small();
  sim.config().checkpoint_incremental = true;
  sim.config().checkpoint_codec = 0;  // raw: the copy a cache would hold
  sim.run(2);
  sim.checkpoint(ring.path_for(0));
  ckpt::FileReader g0(ring.path_for(0));
  elastic::ChainReader chain(g0, ring.path_for(0));
  for (const char* name : {"f.ex", "interp", "sp0.meta"}) {
    const std::uint64_t before = prof::counter_value("ckpt.read_bytes");
    const ckpt::EncodedSection& again = g0.section(name);
    EXPECT_EQ(prof::counter_value("ckpt.read_bytes") - before,
              again.payload.size())
        << name;
    EXPECT_EQ(again.payload, chain.section(name).payload) << name;
  }
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
  std::copy_n(sp.p.data(), sp.np, d.parts.data());
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
