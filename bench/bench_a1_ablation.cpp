// Ablation A1: why the rounding is designed the way it is.
//
//  (a) Scaling ablation: Algorithm 1 samples with probability
//      x_{v,T} / (c * sqrt(k) * rho). The paper sets c = 2. Smaller c
//      rounds more aggressively (more conflicts removed), larger c rounds
//      fewer vertices; we sweep c and report the realized expected welfare.
//      The theory only guarantees the bound at c >= 2 -- the sweep shows
//      where the empirical optimum sits.
//  (b) Decomposition ablation: the sqrt(k) split into small/large bundles
//      is what turns an O(k) loss into O(sqrt(k)). We compare the paper's
//      two-way split against "no split" rounding that treats all bundles
//      uniformly (still feasible, but the per-channel collision accounting
//      degrades for mixed bundle sizes).

#include <benchmark/benchmark.h>

#include <cmath>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "core/rounding.hpp"
#include "gen/scenario.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace {

using namespace ssa;

/// LP optimum via the unified solver (it owns the explicit-vs-colgen
/// choice the ablations used to duplicate); one rounding pass is wasted.
/// The registry is the only LP entry point this bench touches -- the raw
/// round_unweighted calls below are the ablation subject itself.
FractionalSolution lp_of(const AuctionInstance& instance) {
  SolveOptions options;
  options.pipeline.rounding_repetitions = 1;
  options.pipeline.explicit_limit = 6;
  return *make_solver("lp-rounding")->solve(instance, options).fractional;
}

void scaling_table() {
  Table table({"model", "n", "k", "c (scale)", "E[welfare]", "rel. to c=2"});
  for (const std::size_t n : {30u}) {
    for (const int k : {4, 8}) {
      const AuctionInstance instance = gen::make_disk_auction(
          n, k, gen::ValuationMix::kMixed, 21u * n + static_cast<std::size_t>(k));
      const FractionalSolution lp = lp_of(instance);
      if (lp.status != lp::SolveStatus::kOptimal) continue;
      double baseline = 0.0;
      for (const double c : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        // Algorithm 1 samples x / (2 sqrt(k) rho); scaling x by 2 / c
        // turns that into x / (c sqrt(k) rho).
        FractionalSolution scaled = lp;
        for (FractionalColumn& column : scaled.columns) column.x *= 2.0 / c;
        Rng rng(5u * n + static_cast<std::uint64_t>(10 * c));
        RunningStats stats;
        for (int trial = 0; trial < 200; ++trial) {
          stats.add(instance.welfare(round_unweighted(instance, scaled, rng)));
        }
        if (c == 2.0) baseline = stats.mean();
        table.add_row({"disk", Table::integer(static_cast<long long>(n)),
                       Table::integer(k), Table::num(c, 1),
                       Table::num(stats.mean(), 1),
                       baseline > 0 ? Table::num(stats.mean() / baseline, 2)
                                    : "-"});
      }
    }
  }
  bench::print_experiment(
      "A1a: rounding-scale ablation (probability x / (c sqrt(k) rho))", table,
      "NOTE: welfare decreases monotonically in c on these benign random "
      "instances (aggressive rounding wins empirically); the paper's c = 2 "
      "is what makes the WORST-CASE proof work (removal probability <= 1/2 "
      "via Markov). Practical deployments can anneal c downward and keep "
      "the guarantee by taking the better of the two allocations");
}

/// "No split" rounding: sample every bundle with x/(2 sqrt(k) rho) in one
/// pass (no small/large separation), then resolve conflicts as Algorithm 1.
Allocation round_without_split(const AuctionInstance& instance,
                               const FractionalSolution& lp, Rng& rng) {
  const double denominator =
      2.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
      instance.rho();
  const std::size_t n = instance.num_bidders();
  std::vector<std::vector<const FractionalColumn*>> by_bidder(n);
  for (const FractionalColumn& column : lp.columns) {
    by_bidder[static_cast<std::size_t>(column.bidder)].push_back(&column);
  }
  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (std::size_t v = 0; v < n; ++v) {
    const double u = rng.uniform();
    double cumulative = 0.0;
    for (const FractionalColumn* column : by_bidder[v]) {
      cumulative += column->x / denominator;
      if (u < cumulative) {
        allocation.bundles[v] = column->bundle;
        break;
      }
    }
  }
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  for (int v : instance.order()) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] == kEmptyBundle) continue;
    for (int u : graph.neighbors(sv)) {
      const std::size_t su = static_cast<std::size_t>(u);
      if (position[su] < position[sv] &&
          (allocation.bundles[su] & allocation.bundles[sv]) != kEmptyBundle) {
        allocation.bundles[sv] = kEmptyBundle;
        break;
      }
    }
  }
  return allocation;
}

void split_table() {
  Table table(
      {"n", "k", "E[welfare] split (Alg 1)", "E[welfare] no split", "ratio"});
  for (const std::size_t n : {30u}) {
    for (const int k : {4, 8}) {
      const AuctionInstance instance = gen::make_disk_auction(
          n, k, gen::ValuationMix::kMixed, 77u * n + static_cast<std::size_t>(k));
      const FractionalSolution lp = lp_of(instance);
      if (lp.status != lp::SolveStatus::kOptimal) continue;
      Rng rng_a(1), rng_b(1);
      RunningStats with_split, without_split;
      for (int trial = 0; trial < 300; ++trial) {
        with_split.add(instance.welfare(round_unweighted(instance, lp, rng_a)));
        without_split.add(
            instance.welfare(round_without_split(instance, lp, rng_b)));
      }
      table.add_row({Table::integer(static_cast<long long>(n)),
                     Table::integer(k), Table::num(with_split.mean(), 1),
                     Table::num(without_split.mean(), 1),
                     Table::num(without_split.mean() > 0
                                    ? with_split.mean() / without_split.mean()
                                    : 0.0,
                                2)});
    }
  }
  bench::print_experiment(
      "A1b: sqrt(k) bundle-split ablation", table,
      "NOTE: both variants are feasible; on benign instances the unsplit "
      "variant can even win (the split discards one half's samples per "
      "pass). The split's role is the WORST-CASE O(sqrt(k)) factor -- "
      "adversarial mixes of tiny and huge bundles break the unsplit "
      "analysis (collision probability per channel scales with k)");
}

void bm_round_with_split(benchmark::State& state) {
  const AuctionInstance instance =
      gen::make_disk_auction(40, 8, gen::ValuationMix::kMixed, 5);
  const FractionalSolution lp = lp_of(instance);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(round_unweighted(instance, lp, rng));
  }
}
BENCHMARK(bm_round_with_split);

/// Registry round-trip timing for the Section 6 solver: LP + 16 rounding
/// passes behind "asymmetric-lp-rounding" (the path the a1 ablations
/// isolate pieces of, asymmetric edition).
void bm_asymmetric_registry_solve(benchmark::State& state) {
  const AsymmetricInstance instance = gen::make_random_asymmetric(
      24, 3, 0.25, gen::ValuationMix::kMixed, 5);
  const auto solver = make_solver("asymmetric-lp-rounding");
  SolveOptions options;
  options.pipeline.rounding_repetitions = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->solve(instance, options));
  }
}
BENCHMARK(bm_asymmetric_registry_solve);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] {
    scaling_table();
    split_table();
  });
}
