// Layout determinism suite (docs/LAYOUT.md): the AoS and SoA particle
// stores are different *addresses* for the same logical record, so on one
// kernel thread the physics must be bit-identical across both — same
// field bytes, same canonical particle stream, same energy diagnostics —
// on a multi-step LPI run, and a checkpoint written by a SoA species must
// restore into either layout and continue identically.
//
// Also pins the storage machinery itself: get/set round trips,
// export/import through the canonical AoS stream, copy_particles over
// every layout pair, and load_vecs lane agreement with scalar loads
// (including blocks that start off the vector alignment).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/core.hpp"
#include "core/push_tuning.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: bit-identity across layouts requires a fixed
  // particle visit order; multi-thread float-atomic deposits reorder sums.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

/// Distinctive, lane-identifiable record for index n.
core::Particle probe_particle(index_t n) {
  core::Particle p{};
  p.dx = 0.001f * static_cast<float>(n);
  p.dy = -0.002f * static_cast<float>(n);
  p.dz = 0.25f;
  p.i = static_cast<std::int32_t>(n * 3 + 1);
  p.ux = 1.0f + static_cast<float>(n);
  p.uy = -2.0f - static_cast<float>(n);
  p.uz = 0.5f * static_cast<float>(n % 7);
  p.w = 1.0f;
  return p;
}

bool same_record(const core::Particle& a, const core::Particle& b) {
  return std::memcmp(&a, &b, sizeof(core::Particle)) == 0;
}

core::Simulation make_lpi(core::ParticleLayout layout) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  p.layout = layout;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  return sim;
}

std::vector<core::Particle> canon(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(out.data(), sp.np);
  return out;
}

std::vector<std::byte> view_bytes(const pk::View<float, 1>& v) {
  std::vector<std::byte> b(static_cast<std::size_t>(v.size()) *
                           sizeof(float));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

class LayoutStore : public ::testing::TestWithParam<int> {
 protected:
  core::ParticleLayout layout() const {
    return core::kAllParticleLayouts[GetParam()];
  }
};

std::string layout_name(const ::testing::TestParamInfo<int>& info) {
  return core::to_string(core::kAllParticleLayouts[info.param]);
}

INSTANTIATE_TEST_SUITE_P(Layouts, LayoutStore,
                         ::testing::Range(0, core::kNumParticleLayouts),
                         layout_name);

}  // namespace

// ---- storage machinery -----------------------------------------------

TEST_P(LayoutStore, GetSetCellRoundTrip) {
  const index_t n = 37;  // deliberately not a vector-width multiple
  core::ParticleStore s("s", n, layout());
  EXPECT_EQ(s.layout(), layout());
  EXPECT_EQ(s.size(), n);
  for (index_t i = 0; i < n; ++i) s.set(i, probe_particle(i));
  for (index_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_record(s.get(i), probe_particle(i))) << i;
    EXPECT_EQ(s.cell(i), probe_particle(i).i) << i;
  }
  // set_cell touches only the cell field.
  s.set_cell(5, 4242);
  core::Particle expect = probe_particle(5);
  expect.i = 4242;
  EXPECT_TRUE(same_record(s.get(5), expect));
}

TEST_P(LayoutStore, CanonicalAosExportImportRoundTrip) {
  const index_t n = 41;
  core::ParticleStore s("s", n, layout());
  for (index_t i = 0; i < n; ++i) s.set(i, probe_particle(i));

  std::vector<core::Particle> stream(static_cast<std::size_t>(n));
  s.export_aos(stream.data(), n);
  for (index_t i = 0; i < n; ++i)
    EXPECT_TRUE(same_record(stream[static_cast<std::size_t>(i)],
                            probe_particle(i)))
        << i;

  core::ParticleStore back("back", n, layout());
  back.import_aos(stream.data(), n);
  for (index_t i = 0; i < n; ++i)
    EXPECT_TRUE(same_record(back.get(i), probe_particle(i))) << i;
}

TEST(LayoutPairs, CopyParticlesEveryPair) {
  const index_t n = 29;
  for (const auto from : core::kAllParticleLayouts) {
    for (const auto to : core::kAllParticleLayouts) {
      SCOPED_TRACE(std::string(core::to_string(from)) + "->" +
                   core::to_string(to));
      core::ParticleStore src("src", n, from);
      core::ParticleStore dst("dst", n, to);
      for (index_t i = 0; i < n; ++i) src.set(i, probe_particle(i));
      core::copy_particles(dst, src, n);
      for (index_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_record(dst.get(i), probe_particle(i))) << i;
    }
  }
}

TEST_P(LayoutStore, LoadVecsAgreesWithScalarLoads) {
  constexpr int W = core::kManualVecWidth;
  const index_t n = 4 * W;
  core::ParticleStore s("s", n, layout());
  for (index_t i = 0; i < n; ++i) s.set(i, probe_particle(i));

  // n0 = W is vector-aligned; n0 = W/2 is not, as at the arbitrary run
  // starts of the run-aware kernels (unaligned SoA plane loads).
  for (const index_t n0 : {index_t{W}, index_t{W / 2}}) {
    SCOPED_TRACE(n0);
    const auto vecs = core::dispatch_layout(
        s, [&](auto acc) { return acc.template load_vecs<W>(n0); });
    alignas(64) float dx[W], dy[W], dz[W], ux[W], uy[W], uz[W], w[W];
    vecs.dx.store(dx);
    vecs.dy.store(dy);
    vecs.dz.store(dz);
    vecs.ux.store(ux);
    vecs.uy.store(uy);
    vecs.uz.store(uz);
    vecs.w.store(w);
    for (int l = 0; l < W; ++l) {
      const core::Particle p = s.get(n0 + l);
      EXPECT_EQ(dx[l], p.dx) << l;
      EXPECT_EQ(dy[l], p.dy) << l;
      EXPECT_EQ(dz[l], p.dz) << l;
      EXPECT_EQ(vecs.cell[l], p.i) << l;
      EXPECT_EQ(ux[l], p.ux) << l;
      EXPECT_EQ(uy[l], p.uy) << l;
      EXPECT_EQ(uz[l], p.uz) << l;
      EXPECT_EQ(w[l], p.w) << l;
    }
  }
}

// ---- bit-identical physics -------------------------------------------

TEST(LayoutDeterminism, BitIdenticalPhysicsAcrossAllLayouts) {
  // Run the same deck once per layout and require byte-equality of the
  // fields, the canonical particle stream, and the energy history. This
  // is the tentpole guarantee: a layout is an address computation, never
  // a physics change.
  auto ref = make_lpi(core::ParticleLayout::AoS);
  ref.run(40);
  auto sim = make_lpi(core::ParticleLayout::SoA);
  sim.run(40);

  ASSERT_EQ(sim.species(0).np, ref.species(0).np);
  const auto p = canon(sim.species(0));
  const auto ref_p = canon(ref.species(0));
  EXPECT_EQ(std::memcmp(p.data(), ref_p.data(),
                        p.size() * sizeof(core::Particle)),
            0)
      << "particle stream diverged";
  EXPECT_EQ(view_bytes(sim.fields().ex), view_bytes(ref.fields().ex));
  EXPECT_EQ(view_bytes(sim.fields().by), view_bytes(ref.fields().by));
  EXPECT_EQ(view_bytes(sim.fields().jz), view_bytes(ref.fields().jz));
  EXPECT_EQ(sim.energy_history().to_csv(), ref.energy_history().to_csv());
}

TEST(LayoutDeterminism, EveryStrategyMatchesAcrossLayouts) {
  // The vectorization strategies each have their own layout-specialized
  // inner loops; all (strategy x layout) cells must agree bit-exactly
  // with the AoS run of the same strategy.
  for (const auto strat :
       {core::VectorStrategy::Guided, core::VectorStrategy::Manual}) {
    SCOPED_TRACE(core::to_string(strat));
    std::vector<core::Particle> ref_p;
    std::string ref_csv;
    for (const auto layout : core::kAllParticleLayouts) {
      SCOPED_TRACE(core::to_string(layout));
      auto sim = make_lpi(layout);
      sim.config().strategy = strat;
      sim.run(20);
      const auto p = canon(sim.species(0));
      const std::string csv = sim.energy_history().to_csv();
      if (layout == core::ParticleLayout::AoS) {
        ref_p = p;
        ref_csv = csv;
      } else {
        ASSERT_EQ(p.size(), ref_p.size());
        EXPECT_EQ(std::memcmp(p.data(), ref_p.data(),
                              p.size() * sizeof(core::Particle)),
                  0);
        EXPECT_EQ(csv, ref_csv);
      }
    }
  }
}

TEST(LayoutDeterminism, NonAosCheckpointRestoresIntoAnyLayout) {
  // A checkpoint written by a SoA run must restore into every layout and
  // continue bit-identically with the uninterrupted SoA reference: the
  // file stores the canonical stream, the layout only re-addresses it.
  const fs::path dir =
      fs::path(::testing::TempDir()) / "vpic_layout_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "mid.ckpt").string();

  auto ref = make_lpi(core::ParticleLayout::SoA);
  ref.run(30);
  const auto ref_p = canon(ref.species(0));
  const std::string ref_csv = ref.energy_history().to_csv();

  auto writer = make_lpi(core::ParticleLayout::SoA);
  writer.run(15);
  ASSERT_GT(writer.checkpoint(path), 0u);

  for (const auto layout : core::kAllParticleLayouts) {
    SCOPED_TRACE(core::to_string(layout));
    auto resumed = make_lpi(layout);
    resumed.restore(path);
    EXPECT_EQ(resumed.step_count(), 15);
    EXPECT_EQ(resumed.species(0).p.layout(), layout);
    resumed.run(15);
    const auto p = canon(resumed.species(0));
    ASSERT_EQ(p.size(), ref_p.size());
    EXPECT_EQ(std::memcmp(p.data(), ref_p.data(),
                          p.size() * sizeof(core::Particle)),
              0);
    EXPECT_EQ(resumed.energy_history().to_csv(), ref_csv);
  }
}
