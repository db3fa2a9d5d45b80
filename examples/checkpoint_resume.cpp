// checkpoint_resume — checkpoint/restart across process boundaries
// (docs/CHECKPOINT.md): run an LPI deck with a periodic checkpoint ring,
// kill the process, restart the binary, resume from the newest valid
// generation, and land bit-identical to a run that never stopped.
//
//   ./checkpoint_resume run       <base> <total_steps> [every] [--tiles=T]
//                                 [--incremental]
//   ./checkpoint_resume resume    <base> <total_steps> [--tiles=T]
//   ./checkpoint_resume roundtrip <base> <total_steps> [every] [--tiles=T]
//                                 [--incremental]
//
// `run` steps a fresh deck to total_steps, checkpointing every `every`
// steps (0 disables). `resume` restores a fresh process from the ring and
// continues to total_steps. Both print the energy history at full double
// precision on stdout (diagnostics to stderr), so
//
//   run ref 60 0 > a.txt;  run ck 30 10;  resume ck 60 > b.txt;  diff a b
//
// is the kill-and-resume acceptance check CI runs. `roundtrip` does the
// same comparison in-process and exits nonzero on any divergence.
// --tiles=T runs the tiled step with T z-slab tiles on 2 workers
// (docs/TILES.md); 0, the default, runs the untiled step. Pass the same
// T to every invocation of one comparison. --incremental writes the ring
// as DeltaPack chains with a full base every 3 generations
// (docs/ELASTIC.md); a resume restores either kind of ring.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "core/core.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace pk = vpic::pk;

namespace {

int g_tiles = 0;             // --tiles=T
bool g_incremental = false;  // --incremental

core::Simulation make_deck() {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  sim.config().tiles.enabled = g_tiles > 0;
  sim.config().tiles.count = g_tiles;
  sim.config().tiles.workers = 2;
  sim.config().checkpoint_incremental = g_incremental;
  sim.config().checkpoint_codec = 1;  // DeltaPack
  sim.config().checkpoint_full_every = 3;
  return sim;
}

/// Energy history rows at full double precision — the diffable record two
/// processes (or two in-process runs) are compared on.
void print_history(core::Simulation& sim) {
  const auto& h = sim.energy_history();
  for (std::size_t i = 0; i < h.size(); ++i) {
    std::printf("%lld,%.17g", static_cast<long long>(h.step(i)), h.field(i));
    for (std::size_t s = 0; s < h.species_count(i); ++s)
      std::printf(",%.17g", h.species_ke(i, s));
    std::printf("\n");
  }
  const auto e = sim.energies();
  std::printf("final,%lld,%.17g\n", static_cast<long long>(sim.step_count()),
              e.total());
}

/// Full-precision history digest for the in-process roundtrip compare
/// (to_csv rounds to %.9e, too coarse to witness bit-identity).
std::string history_string(core::Simulation& sim) {
  const auto& h = sim.energy_history();
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < h.size(); ++i) {
    out += std::to_string(h.step(i));
    std::snprintf(buf, sizeof(buf), ",%.17g", h.field(i));
    out += buf;
    for (std::size_t s = 0; s < h.species_count(i); ++s) {
      std::snprintf(buf, sizeof(buf), ",%.17g", h.species_ke(i, s));
      out += buf;
    }
    out += "\n";
  }
  return out + std::to_string(sim.step_count());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tiles=", 8) == 0) {
      g_tiles = std::atoi(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      g_incremental = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() < 4) {
    std::fprintf(stderr,
                 "usage: %s run|resume|roundtrip <base> <total_steps> "
                 "[every] [--tiles=T] [--incremental]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = args[1];
  const std::string base = args[2];
  const int total_steps = std::atoi(args[3]);
  const int every = args.size() > 4 ? std::atoi(args[4]) : 10;

  // One kernel thread: cross-process bit-identity requires deterministic
  // current deposits (see docs/CHECKPOINT.md).
  pk::initialize(1);

  if (mode == "run") {
    auto sim = make_deck();
    sim.config().checkpoint_every = every;
    sim.config().checkpoint_path = every > 0 ? base : "";
    sim.run(total_steps);
    std::fprintf(stderr, "ran %d steps, %lld checkpoints at '%s'\n",
                 total_steps, static_cast<long long>(sim.checkpoints_written()),
                 base.c_str());
    print_history(sim);
    return 0;
  }

  if (mode == "resume") {
    auto sim = make_deck();
    const std::string used = sim.restore_latest(base);
    std::fprintf(stderr, "resumed from '%s' at step %lld\n", used.c_str(),
                 static_cast<long long>(sim.step_count()));
    const int remaining = total_steps - static_cast<int>(sim.step_count());
    if (remaining < 0) {
      std::fprintf(stderr, "checkpoint is past step %d\n", total_steps);
      return 2;
    }
    sim.run(remaining);
    print_history(sim);
    return 0;
  }

  if (mode == "roundtrip") {
    // Drop generations left by a previous invocation of the same base.
    ckpt::GenerationRing stale(base, 1);
    for (std::uint64_t g : stale.generations())
      std::remove(stale.path_for(g).c_str());

    // Reference: total_steps uninterrupted.
    auto ref = make_deck();
    ref.run(total_steps);

    // Interrupted run to the halfway point with a checkpoint ring...
    const int half = total_steps / 2;
    {
      auto sim = make_deck();
      sim.config().checkpoint_every = every;
      sim.config().checkpoint_path = base;
      sim.run(half);
    }  // ...process "dies" here (simulation destroyed)...

    // ...and a fresh simulation resumes from the newest generation.
    auto resumed = make_deck();
    const std::string used = resumed.restore_latest(base);
    std::fprintf(stderr, "roundtrip: resumed from '%s' at step %lld\n",
                 used.c_str(), static_cast<long long>(resumed.step_count()));
    resumed.run(total_steps - static_cast<int>(resumed.step_count()));

    if (history_string(resumed) != history_string(ref)) {
      std::fprintf(stderr, "roundtrip: resumed run DIVERGED from the "
                           "uninterrupted reference\n");
      return 1;
    }
    std::printf("roundtrip OK: %d steps, resume from step %lld "
                "bit-identical energies\n",
                total_steps,
                static_cast<long long>(ckpt::FileReader(used).step()));
    return 0;
  }

  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
