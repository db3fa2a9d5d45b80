// ablation_deposit — design-choice ablation (DESIGN.md section 5): the
// current-deposition scatter uses atomic adds so particle loops can run
// fully parallel. The alternative — non-atomic deposits — is only safe
// serially (or with per-thread accumulator replicas, VPIC 1.2's approach
// on CPUs). This harness measures the real host cost of the atomic RMW on
// the particle push and on the raw scatter kernel, under the three sorting
// orders (sorting changes the conflict rate, which changes how much the
// atomics cost — the CPU-side mechanism behind Fig. 5b).
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"
#include "gs/gather_scatter.hpp"

namespace {

using namespace vpic;
using pk::index_t;

/// move_p sink adding with plain adds: race-free only on one thread.
struct PlainSink {
  core::AccumulatorArray* acc;
  void deposit(index_t v, float qw, float mx, float my, float mz, float ux,
               float uy, float uz) const {
    core::accumulate_j(acc->a(v), qw, mx, my, mz, ux, uy, uz,
                       /*atomic=*/false);
  }
};

double best_of(int reps, const std::function<double()>& run) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = bench::flag(argc, argv, "n", 1 << 21);
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 3));
  const index_t unique = std::max<index_t>(1, n / 100);

  std::printf("== Ablation: atomic vs non-atomic current deposit ==\n\n");

  // (a) raw scatter kernel, measured on the host.
  std::printf("(a) raw scatter-add of %lld elements over %lld keys:\n",
              static_cast<long long>(n), static_cast<long long>(unique));
  bench::Table t({"order", "atomic (ms)", "plain (ms)", "atomic cost"});
  for (auto order : {sort::SortOrder::Standard, sort::SortOrder::Strided,
                     sort::SortOrder::TiledStrided}) {
    auto keys = gs::make_keys(gs::Pattern::Repeated, n, unique);
    pk::View<std::uint32_t, 1> payload("p", n);
    sort::sort_pairs(order, keys, payload, 4096u);
    pk::View<double, 1> data("d", unique), src("s", n);
    pk::deep_copy(src, 1.0);
    const std::uint32_t* k = keys.data();
    double* d = data.data();
    const double* s = src.data();

    const double t_atomic = best_of(reps, [&] {
      pk::Timer timer;
      pk::parallel_for(n, [=](index_t i) { pk::atomic_add(&d[k[i]], s[i]); });
      return timer.seconds();
    });
    // Non-atomic baseline: only valid because the deposit itself is what
    // we time, not its correctness under threading (VPIC 1.2 instead
    // replicates accumulators per thread and reduces afterwards).
    const double t_plain = best_of(reps, [&] {
      pk::Timer timer;
      pk::parallel_for(pk::RangePolicy<pk::Serial>(n),
                       [=](index_t i) { d[k[i]] += s[i]; });
      return timer.seconds();
    });
    t.row({sort::to_string(order), bench::fmt("%.2f", t_atomic * 1e3),
           bench::fmt("%.2f", t_plain * 1e3),
           bench::fmt("%.2fx", t_atomic / t_plain)});
  }
  t.print();

  // (b) whole particle push with the two deposit modes (serial runs so
  // the non-atomic variant is race-free).
  std::printf("\n(b) particle push, accumulate_j atomic vs plain "
              "(single-thread, LPI deck):\n");
  core::decks::LpiParams lp;
  lp.nx = 16;
  lp.ny = 8;
  lp.nz = 8;
  lp.ppc = 24;
  auto sim = core::decks::make_lpi(lp);
  sim.run(2);
  auto& g = sim.grid();
  auto& interp = sim.interpolator();
  auto& acc = sim.accumulator();
  interp.load(sim.fields());

  const PlainSink plain{&acc};
  for (const bool atomic : {true, false}) {
    const double secs = best_of(reps, [&] {
      acc.clear();
      auto& sp = sim.species(0);
      pk::Timer timer;
      for (index_t i = 0; i < sp.np; ++i) {
        core::Particle& p = sp.p(i);
        if (atomic)
          core::move_p(p, 0.01f, 0.005f, -0.01f, -p.w, acc, g);
        else
          core::move_p(p, 0.01f, 0.005f, -0.01f, -p.w, plain, g);
      }
      return timer.seconds();
    });
    std::printf("  %s deposit: %.3f ms for %lld particles\n",
                atomic ? "atomic" : "plain ", secs * 1e3,
                static_cast<long long>(sim.species(0).np));
  }

  // (c) ScatterView strategies: GPU-style atomics vs CPU-style per-thread
  // replication + contribute (VPIC 1.2's accumulator blocks).
  std::printf("\n(c) ScatterView: atomic vs duplicated (host, %lld adds "
              "over %lld slots):\n",
              static_cast<long long>(n), static_cast<long long>(unique));
  for (const auto strat :
       {pk::ScatterStrategy::Atomic, pk::ScatterStrategy::Duplicated}) {
    pk::View<double, 1> tgt("tgt", unique);
    pk::ScatterView<double> sv(tgt, strat);
    auto keys = gs::make_keys(gs::Pattern::Repeated, n, unique);
    const std::uint32_t* k = keys.data();
    const double secs = best_of(reps, [&] {
      pk::Timer timer;
      pk::parallel_for(n, [&, k](index_t i) { sv.access().add(k[i], 1.0); });
      sv.contribute();
      return timer.seconds();
    });
    std::printf("  %-10s %.3f ms (%zu replicas)\n",
                strat == pk::ScatterStrategy::Atomic ? "atomic" : "duplicated",
                secs * 1e3, sv.replica_count());
  }
  return 0;
}
