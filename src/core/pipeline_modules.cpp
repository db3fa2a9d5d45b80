// core/pipeline_modules.cpp
//
// The built-in step pipeline, expressed as registered PhysicsModules
// (docs/MODULES.md): interpolate, push, accumulate, field advance,
// injection, diagnostics, sort, checkpoint. Simulation::step()
// is generic composition over these.

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
  static bool checkpoint_due(Simulation& s, std::int64_t at_step) {
    return s.checkpoint_due(at_step);
  }
  static void checkpoint_to_ring(Simulation& s) { s.checkpoint_to_ring(); }
};

namespace {

using A = PipelineAccess;

std::string push_name(const Species& sp) { return "push[" + sp.name + "]"; }

// ---------------------------------------------------------------------
// Gather: interpolator load + accumulator clear.
// ---------------------------------------------------------------------
class GatherModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "interpolate"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Gather; }

  void plan(Simulation& sim, const ModuleStepContext&,
            StepComposer& c) override {
    c.add({"interpolate",
           {"fields.eb"},
           {"interp"},
           [&sim] { A::interp(sim).load(A::fields(sim)); }});
    c.add({"acc_clear", {}, {"acc"}, [&sim] { A::acc(sim).clear(); }});
    c.edge("interpolate", "acc_clear");
  }
};

// ---------------------------------------------------------------------
// Push: chained per-species advance_species phases. They share the
// accumulator, and each applies its deposit logs and may re-sort through
// the one sort scratch, after which every Standard-sorted species is back
// in exact cell order.
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
    std::string prev;
    for (std::size_t s = 0; s < ns; ++s) {
      const std::string name = push_name(species[s]);
      c.add({name,
             {"interp"},
             {ctx.particles(species[s].name), "acc", "sort.scratch"},
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

  void plan(Simulation& sim, const ModuleStepContext&,
            StepComposer& c) override {
    c.add_spine({"accumulate", {"acc"}, {"fields.j"}, [&sim] {
                   A::acc(sim).reduce_ghosts_periodic();
                   A::acc(sim).unload(A::fields(sim));
                 }});
  }
};

// ---------------------------------------------------------------------
// Field: B/2, E, B/2 with ghost updates between.
// ---------------------------------------------------------------------
class FieldModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "field"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Field; }

  void plan(Simulation& sim, const ModuleStepContext&,
            StepComposer& c) override {
    c.add_spine({"field_advance", {"fields.j"}, {"fields.eb"}, [&sim] {
                   FieldArray& f = A::fields(sim);
                   f.advance_b_half();
                   f.update_ghosts_periodic();
                   f.advance_e();
                   f.update_ghosts_periodic();
                   f.advance_b_half();
                   f.update_ghosts_periodic();
                 }});
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
// exact-order push writes each cell from the one chunk holding the
// cell's run).
// ---------------------------------------------------------------------
class InjectionModule final : public PhysicsModule {
 public:
  [[nodiscard]] std::string_view id() const override { return "injection"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Inject; }

  void plan(Simulation& sim, const ModuleStepContext&,
            StepComposer& c) override {
    if (!A::injection_hook(sim)) return;
    c.add_spine({"injection",
                 {},
                 c.all_resources(),
                 [&sim] {
                   std::vector<index_t> np;
                   for (const Species& sp : A::species(sim))
                     np.push_back(sp.np);
                   A::injection_hook(sim)(sim);
                   auto& species = A::species(sim);
                   for (std::size_t s = 0; s < np.size(); ++s)
                     if (species[s].np != np[s])
                       species[s].mark_order_degraded();
                 }});
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
    for (const auto& sp : species) rd.push_back(ctx.particles(sp.name));
    c.add_spine({"diagnostics", std::move(rd), {"diag"}, [&sim] {
                   const auto e = sim.energies();
                   A::history(sim).record(A::step_count(sim), e.field,
                                          e.species);
                 }});
  }
};

// ---------------------------------------------------------------------
// Sort: per-species re-sorts on the configured interval, one phase per
// species. Each writes its own species and the simulation's one sort
// scratch ("sort.scratch": the workspace and the spare buffer every
// species reorders through), and each joins, so the next one's add_branch
// orders after it: the sorts run one after another, each with the whole
// OpenMP team, and validate() rejects any schedule that could run two at
// once. After the first Standard sort the push stage keeps that order, so the
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
    auto& species = A::species(sim);
    for (std::size_t s = 0; s < species.size(); ++s) {
      const std::string name = "sort[" + species[s].name + "]";
      c.add_branch({name,
                    {},
                    {ctx.particles(species[s].name), "sort.scratch"},
                    [&sim, s, tile] {
                      const auto& cfg2 = A::cfg(sim);
                      Species& sp = A::species(sim)[s];
                      // Kept in Standard order by the push stage: the
                      // sort would be the identity.
                      if (cfg2.sort_order == sort::SortOrder::Standard &&
                          sp.exact_cell_order())
                        return;
                      sort_particles(
                          sp, cfg2.sort_order, tile,
                          cfg2.seed +
                              static_cast<std::uint64_t>(A::step_count(sim)),
                          A::fields(sim).grid.nv());
                    }});
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
    c.add_spine({"ckpt", c.all_resources(), {"ckpt"},
                 [&sim] { A::checkpoint_to_ring(sim); }});
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
