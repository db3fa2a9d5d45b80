// core/pipeline_modules.cpp
//
// The built-in step pipeline, expressed as registered PhysicsModules
// (docs/MODULES.md): interpolate, push, accumulate, field advance,
// injection, diagnostics, sort, checkpoint. Simulation::build_step_graph
// is generic composition over these — one source of truth for the
// untiled and the tiled step shapes, which differ only where tiling
// changes the work: the push per tile, every species' tiles in one pool
// round with their logs applied after it, and the re-sort after the
// pushes.

#include "core/simulation.hpp"

namespace vpic::core {

/// Private-state bridge for the built-in pipeline (befriended by
/// Simulation). External modules do not get this: they compose through
/// the public Simulation API.
struct PipelineAccess {
  static SimulationConfig& cfg(Simulation& s) { return s.cfg_; }
  static FieldArray& fields(Simulation& s) { return s.fields_; }
  static InterpolatorArray& interp(Simulation& s) { return s.interp_; }
  static AccumulatorArray& acc(Simulation& s) { return s.acc_; }
  static std::vector<Species>& species(Simulation& s) { return s.species_; }
  static std::vector<PushPath>& last_push_paths(Simulation& s) {
    return s.last_push_paths_;
  }
  static std::function<void(Simulation&)>& injection_hook(Simulation& s) {
    return s.injection_hook_;
  }
  static EnergyHistory& history(Simulation& s) { return s.energy_history_; }
  static std::int64_t step_count(Simulation& s) { return s.step_count_; }
  static TileMap& tile_map(Simulation& s) { return s.tile_map_; }
  static std::vector<AccumulatorArray>& staged_acc(Simulation& s) {
    return s.staged_acc_;
  }
  static bool checkpoint_due(Simulation& s, std::int64_t at_step) {
    return s.checkpoint_due(at_step);
  }
  static void checkpoint_to_ring(Simulation& s) { s.checkpoint_to_ring(); }
};

namespace {

using A = PipelineAccess;

// Cost model of the tiled (phase x tile) tasks: generic-push seconds per
// particle scales tile population into expected task cost; field/interp
// work scales with voxels. Only relative magnitudes matter — LPT placement
// ranks tasks, it doesn't time them. kPushCost is the generic Manual push
// measured on the reference host (3.5-4.2e-8 s/particle on every layout).
constexpr double kPushCost = 4e-8;
constexpr double kVoxelCost = 1e-9;

std::string tile_suffix(int t) { return ".t" + std::to_string(t); }

/// Species s's deposits in tile t: the tile's planes of the array the
/// species writes (the accumulator, or its staged one) and the tile's
/// log. A phase declaring the whole "acc" conflicts with every part
/// (core/step_graph.hpp).
std::string acc_res(const Species& sp, int t) {
  return "acc." + sp.name + tile_suffix(t);
}
std::string push_name(const Species& sp) { return "push[" + sp.name + "]"; }
std::string push_name(const Species& sp, int t) {
  return "push[" + sp.name + tile_suffix(t) + "]";
}

// ---------------------------------------------------------------------
// Gather: interpolator load + accumulator clear, one phase each in both
// shapes. A tile's particles may have drifted anywhere since the last
// bucketing, so every tiled push reads the whole interpolator anyway.
// The clear follows the load and precedes the pushes, so each is a level
// of its own on the calling thread's whole team: in a pool round their
// kernels would run on one member.
// ---------------------------------------------------------------------
class GatherModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "interpolate"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Gather; }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    const auto poll = ctx.poll;
    const double nv_cost =
        static_cast<double>(A::fields(sim).grid.nv()) * kVoxelCost;
    c.add({"interpolate",
           {"fields.eb"},
           {"interp"},
           [&sim, poll] {
             if (poll) poll();
             A::interp(sim).load(A::fields(sim));
           },
           nv_cost});
    c.add({"acc_clear",
           {},
           {"acc"},
           [&sim, poll] {
             if (poll) poll();
             A::acc(sim).clear();
           },
           nv_cost});
    c.edge("interpolate", "acc_clear");
  }
};

// ---------------------------------------------------------------------
// Push: per-species particle advance, after which every Standard-sorted
// species is back in exact cell order. Untiled: chained per-species
// advance_species phases (they share the accumulator, and each applies
// its deposit logs and may re-sort through the one sort scratch). Tiled:
// one pool round of serial push_on tasks, one per (species, tile range),
// dispatched off the species' sortedness, each writing its own planes and
// logging the rest (core/tiles.hpp). The first species' tiles write the
// accumulator's planes, every later species' its staged array's, so no
// two tasks of the round share memory. Then "acc_apply" adds, species by
// species, the staged array and the tile logs in tile order: each cell
// sums what the untiled step's advance_species calls add, in their
// order. Last, per Standard-sorted species, a re-sort phase
// ("sort_after_push"): a team-wide sort_particles and bucket_by_tile's
// binary-search ranges. The apply and the re-sorts chain, so each is a
// level of its own on the calling thread's whole team, never a pool
// round.
// ---------------------------------------------------------------------
class PushModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "push"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Push; }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    auto& species = A::species(sim);
    const std::size_t ns = species.size();
    A::last_push_paths(sim).resize(ns);
    if (!ctx.tiled) {
      std::string prev;
      for (std::size_t s = 0; s < ns; ++s) {
        const std::string name = push_name(species[s]);
        std::vector<std::string> wr = ctx.particles(species[s].name);
        wr.push_back("acc");
        wr.emplace_back("sort.scratch");
        c.add({name,
               {"interp"},
               std::move(wr),
               [&sim, s] {
                 auto& cfg = A::cfg(sim);
                 A::last_push_paths(sim)[s] = advance_species(
                     A::species(sim)[s], A::interp(sim), A::acc(sim),
                     A::fields(sim).grid, cfg.strategy, {}, cfg.push_path);
               }});
        if (s == 0) {
          c.edge("interpolate", name);
          c.edge("acc_clear", name);
        } else {
          c.edge(prev, name);
        }
        prev = name;
      }
      c.set_tail(ns ? prev : "acc_clear");
      return;
    }

    const int nt = ctx.tiles->count();
    const auto poll = ctx.poll;
    for (std::size_t s = 0; s < ns; ++s) {
      for (int t = 0; t < nt; ++t) {
        const std::string name = push_name(species[s], t);
        const double cost =
            static_cast<double>(
                species[s].tiles[static_cast<std::size_t>(t)].count()) *
            kPushCost;
        std::vector<std::string> wr = ctx.particles(species[s].name, t);
        wr.push_back(acc_res(species[s], t));
        c.add({name,
               {"interp"},
               std::move(wr),
               [&sim, s, t, nt, poll] {
                 poll();
                 auto& cfg = A::cfg(sim);
                 Species& sp = A::species(sim)[s];
                 const TileSlot& slot = sp.tiles[static_cast<std::size_t>(t)];
                 const TileMap& tm = A::tile_map(sim);
                 AccumulatorArray& dst =
                     s == 0 ? A::acc(sim) : A::staged_acc(sim)[s - 1];
                 const auto log = s * static_cast<std::size_t>(nt) +
                                  static_cast<std::size_t>(t);
                 OwnerSink sink{&dst, tm.v_lo(t), tm.v_hi(t),
                                &sp.sort_scratch().deposit_logs[log].segments};
                 const PushPath taken = push_on<pk::Serial>(
                     sp, A::interp(sim), sink, A::fields(sim).grid,
                     cfg.strategy, {}, cfg.push_path, slot.begin, slot.end);
                 // Every tile of a species takes the same path: it
                 // resolves off the species' order alone.
                 if (t == 0) A::last_push_paths(sim)[s] = taken;
               },
               cost});
        c.edge("interpolate", name);
        c.edge("acc_clear", name);
      }
    }
    c.add({"acc_apply",
           {},
           {"acc"},
           [&sim, ns, nt, poll] {
             poll();
             auto& logs = A::species(sim)[0].sort_scratch().deposit_logs;
             const auto per = static_cast<std::size_t>(nt);
             for (std::size_t s = 0; s < ns; ++s)
               A::acc(sim).apply(
                   logs.data() + s * per, per,
                   s == 0 ? nullptr : &A::staged_acc(sim)[s - 1]);
           },
           0.0});
    c.edge("acc_clear", "acc_apply");
    for (std::size_t s = 0; s < ns; ++s)
      for (int t = 0; t < nt; ++t)
        c.edge(push_name(species[s], t), "acc_apply");
    std::string prev = "acc_apply";
    for (std::size_t s = 0; s < ns; ++s) {
      if (!species[s].cell_sorted_hint) continue;
      const std::string name = "sort_after_push[" + species[s].name + "]";
      std::vector<std::string> wr = ctx.particles(species[s].name);
      wr.emplace_back("sort.scratch");
      c.add({name,
             {},
             std::move(wr),
             [&sim, s, poll] {
               poll();
               Species& sp = A::species(sim)[s];
               sort_particles(sp, sort::SortOrder::Standard, 0, 0,
                              A::fields(sim).grid.nv());
               bucket_by_tile(sp, A::tile_map(sim));
             },
             static_cast<double>(species[s].np) * kVoxelCost});
      c.edge(prev, name);
      prev = name;
    }
    c.set_tail(prev);
  }
};

// ---------------------------------------------------------------------
// Deposit: ghost reduction + accumulator unload into J, after the push
// stage has applied every deposit log.
// ---------------------------------------------------------------------
class AccumulateModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "accumulate"; }
  [[nodiscard]] StepStage stage() const override {
    return StepStage::Deposit;
  }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    const auto poll = ctx.poll;
    const double nv_cost =
        static_cast<double>(A::fields(sim).grid.nv()) * kVoxelCost;
    c.add_spine({"accumulate",
                 {"acc"},
                 {"fields.j"},
                 [&sim, poll] {
                   if (poll) poll();
                   A::acc(sim).reduce_ghosts_periodic();
                   A::acc(sim).unload(A::fields(sim));
                 },
                 nv_cost});
  }
};

// ---------------------------------------------------------------------
// Field: B/2, E, B/2 with ghost updates between.
// ---------------------------------------------------------------------
class FieldModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "field"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Field; }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    const auto poll = ctx.poll;
    const double cost =
        static_cast<double>(A::fields(sim).grid.nv()) * 3 * kVoxelCost;
    c.add_spine({"field_advance",
                 {"fields.j"},
                 {"fields.eb"},
                 [&sim, poll] {
                   if (poll) poll();
                   FieldArray& f = A::fields(sim);
                   f.advance_b_half();
                   f.update_ghosts_periodic();
                   f.advance_e();
                   f.update_ghosts_periodic();
                   f.advance_b_half();
                   f.update_ghosts_periodic();
                 },
                 cost});
    // Orders the fields.eb read-write conflict against the interpolator
    // load directly; with species the push chain already implies it,
    // without species it is load-bearing.
    c.edge("interpolate", "field_advance");
  }
};

// ---------------------------------------------------------------------
// Injection: the deck's per-step hook. It gets the whole Simulation&, so
// it conservatively writes every resource declared so far. A species
// whose particle count the hook changes is out of cell order: its hint
// ages, so neither the sort phase nor the next push trusts it (an
// exact-order push writes each cell from the one chunk or tile holding
// the cell's run).
// ---------------------------------------------------------------------
class InjectionModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "injection"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Inject; }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    if (!A::injection_hook(sim)) return;
    const auto poll = ctx.poll;
    c.add_spine({"injection",
                 {},
                 c.all_resources(),
                 [&sim, poll] {
                   if (poll) poll();
                   std::vector<index_t> np;
                   for (const Species& sp : A::species(sim))
                     np.push_back(sp.np);
                   A::injection_hook(sim)(sim);
                   auto& species = A::species(sim);
                   for (std::size_t s = 0; s < np.size(); ++s)
                     if (species[s].np != np[s])
                       species[s].mark_order_degraded();
                 },
                 0.0});
  }
};

// ---------------------------------------------------------------------
// Diagnostics: energy history sampling on the configured interval.
// ---------------------------------------------------------------------
class DiagnosticsModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "diagnostics"; }
  [[nodiscard]] StepStage stage() const override {
    return StepStage::Diagnose;
  }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    const auto& cfg = A::cfg(sim);
    if (cfg.energy_interval <= 0 ||
        ctx.next_step % cfg.energy_interval != 0)
      return;
    auto& species = A::species(sim);
    std::vector<std::string> rd{"fields.eb"};
    for (const auto& sp : species)
      for (std::string& r : ctx.particles(sp.name)) rd.push_back(std::move(r));
    const auto poll = ctx.poll;
    c.add_spine({"diagnostics",
                 std::move(rd),
                 {"diag"},
                 [&sim, poll] {
                   if (poll) poll();
                   const auto e = sim.energies();
                   A::history(sim).record(A::step_count(sim), e.field,
                                          e.species);
                 },
                 0.0});
  }
};

// ---------------------------------------------------------------------
// Sort: per-species re-sorts on the configured interval, one phase per
// species in both shapes. Each writes its own species and the
// simulation's one sort scratch ("sort.scratch": the workspace and the
// spare buffer every species reorders through), and each joins, so the
// next one's add_branch orders after it: the sorts run one after another,
// each with the whole OpenMP team, and validate() rejects any schedule
// that could run two at once. Tiled, the phase then re-buckets the
// species by tile (a no-op after a Standard sort, which leaves the array
// tile-major); the tiles dispatch off the freshness the sort just set.
// After the first Standard sort the push stage keeps that order, so the
// interval's Standard sort would be the identity: a species with a fresh
// hint skips it.
// ---------------------------------------------------------------------
class SortModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "sort"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Sort; }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    const auto& cfg = A::cfg(sim);
    if (cfg.sort_interval <= 0 || ctx.next_step % cfg.sort_interval != 0)
      return;
    std::uint32_t tile = cfg.sort_tile;
    if (tile == 0)
      tile = static_cast<std::uint32_t>(pk::DefaultExecSpace::concurrency());
    const bool tiled = ctx.tiled;
    const auto poll = ctx.poll;
    auto& species = A::species(sim);
    for (std::size_t s = 0; s < species.size(); ++s) {
      const std::string name = "sort[" + species[s].name + "]";
      std::vector<std::string> writes = ctx.particles(species[s].name);
      writes.emplace_back("sort.scratch");
      c.add_branch({name,
                    {},
                    std::move(writes),
                    [&sim, s, tile, tiled, poll] {
                      if (poll) poll();
                      const auto& cfg2 = A::cfg(sim);
                      Species& sp = A::species(sim)[s];
                      // Kept in Standard order by the push stage, tile
                      // ranges included: the sort would be the identity.
                      if (cfg2.sort_order == sort::SortOrder::Standard &&
                          sp.exact_cell_order())
                        return;
                      sort_particles(
                          sp, cfg2.sort_order, tile,
                          cfg2.seed +
                              static_cast<std::uint64_t>(A::step_count(sim)),
                          A::fields(sim).grid.nv());
                      if (tiled) bucket_by_tile(sp, A::tile_map(sim));
                    },
                    static_cast<double>(species[s].np) * kVoxelCost});
      c.join(name);
    }
  }
};

// ---------------------------------------------------------------------
// Checkpoint: periodic ring snapshot. Reads every resource declared this
// step so validate() proves the capture cannot race anything in flight;
// the joins (sorts, collide) order the particle-resource conflicts to
// match the sequential tail, which checkpoints last.
// ---------------------------------------------------------------------
class CheckpointModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "ckpt"; }
  [[nodiscard]] StepStage stage() const override {
    return StepStage::Checkpoint;
  }

  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override {
    if (!A::checkpoint_due(sim, ctx.next_step)) return;
    const auto poll = ctx.poll;
    c.add_spine({"ckpt",
                 c.all_resources(),
                 {"ckpt"},
                 [&sim, poll] {
                   if (poll) poll();
                   A::checkpoint_to_ring(sim);
                 },
                 0.0});
  }
};

}  // namespace

void register_core_pipeline(Simulation& sim) {
  sim.add_module<GatherModule>();
  sim.add_module<PushModule>();
  sim.add_module<AccumulateModule>();
  sim.add_module<FieldModule>();
  sim.add_module<InjectionModule>();
  sim.add_module<DiagnosticsModule>();
  sim.add_module<SortModule>();
  sim.add_module<CheckpointModule>();
}

}  // namespace vpic::core
