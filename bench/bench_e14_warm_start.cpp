// Experiment E14: the warm-start solve path on a perturbed stream.
//
// The serving workload this measures is churn-variant traffic: the same
// auction structure (graph, ordering, rho, valuation supports) arrives
// over and over with rescaled bundle values. Cold, every arrival pays a
// full two-phase simplex solve; warm, the optimal basis banked from the
// previous variant of the structure installs directly (values enter the
// explicit LP only through the objective) and the re-solve runs in a
// handful of pivots. Three phases:
//
//   e14/churn/*  -- S scenarios x V support-preserving variants, solved
//                   cold (no hint) and warm (per-structure BasisCache
//                   keyed by the structural fingerprint, exactly the
//                   service's key path). Reports per scenario: warm-hit
//                   rate, total pivots cold vs warm, the pivot ratio, and
//                   whether EVERY warm payload was bitwise identical to
//                   its cold twin (wire::reports_payload_equal) -- the
//                   warm path is a latency lever, never a result change.
//   e14/delta/*  -- incremental re-solve: one bidder appended / removed,
//                   the donor basis remapped with the delta helpers of
//                   core/auction_lp.hpp and repaired by the restricted
//                   phase 1, against a from-scratch solve of the changed
//                   instance.
//   BM_*         -- google-benchmark timings of one cold and one warm
//                   churn solve.
//
// The headline number is the MEDIAN pivot ratio across the churn
// scenarios (the verdict line prints it); the roadmap target is >= 2x.
// SSA_E14_SCENARIOS / SSA_E14_VARIANTS shrink the grid for CI smoke.
// Every row lands in BENCH_bench_e14_warm_start.json via bench_util.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "core/auction_lp.hpp"
#include "gen/scenario.hpp"
#include "service/auction_service.hpp"
#include "support/fingerprint.hpp"
#include "support/random.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ssa;

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long value = std::atol(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return fallback;
}

/// Support-preserving churn: every positive bundle value of one bidder is
/// rescaled, zeros stay zero, so the structural fingerprint (and the LP's
/// column set) is unchanged while the objective moves.
AuctionInstance rescale_bidder(const AuctionInstance& instance, std::size_t v,
                               Rng& rng) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * rng.uniform(0.5, 2.0);
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

/// True vertex removal (induced subgraph on everything but \p removed,
/// later vertices shifted down) -- the shape the delta-remap helpers
/// model; AuctionInstance::without_bidder only zeroes a valuation.
AuctionInstance drop_bidder(const AuctionInstance& big, std::size_t removed) {
  const std::size_t n = big.num_bidders();
  ConflictGraph graph(n - 1);
  const auto shifted = [&](std::size_t u) { return u < removed ? u : u - 1; };
  for (std::size_t u = 0; u < n; ++u) {
    if (u == removed) continue;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == removed || u == v) continue;
      const double w = big.graph().weight(u, v);
      if (w > 0.0) graph.set_weight(shifted(u), shifted(v), w);
    }
  }
  Ordering order;
  for (const int v : big.order()) {
    if (static_cast<std::size_t>(v) == removed) continue;
    order.push_back(static_cast<int>(shifted(static_cast<std::size_t>(v))));
  }
  std::vector<ValuationPtr> valuations;
  for (std::size_t v = 0; v < n; ++v) {
    if (v != removed) valuations.push_back(big.valuations()[v]);
  }
  return AuctionInstance(std::move(graph), std::move(order),
                         big.num_channels(), std::move(valuations), big.rho());
}

std::uint32_t positive_bundles(const AuctionInstance& instance, std::size_t v) {
  std::uint32_t count = 0;
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    if (instance.value(v, t) > 0.0) ++count;
  }
  return count;
}

struct ChurnOutcome {
  double warm_rate = 0.0;
  long long cold_pivots = 0;
  long long warm_pivots = 0;
  bool payload_identical = true;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
};

/// Replays V churn variants of \p base through the unified API, cold and
/// warm, verifying payload identity on every pair.
ChurnOutcome run_churn_stream(const AuctionInstance& base,
                              std::size_t variants, std::uint64_t seed) {
  const auto solver = make_solver("lp-rounding");
  SolveOptions options;
  options.seed = 7;
  options.pipeline.rounding_repetitions = 8;

  service::BasisCache cache(64);
  Rng rng(seed);
  ChurnOutcome outcome;
  AuctionInstance churned = base;
  for (std::size_t i = 0; i < variants; ++i) {
    churned = rescale_bidder(churned, i % churned.num_bidders(), rng);

    const SolveReport cold = solver->solve(churned, options);
    outcome.cold_pivots += cold.pivots;
    outcome.cold_seconds += cold.wall_time_seconds;

    // The service's warm path: look the structure up by its structural
    // fingerprint, install the banked basis as a hint, re-bank the export.
    WarmStartContext context;
    service::BasisCacheEntry banked;
    const Fingerprint key = structural_fingerprint(churned);
    if (const service::BasisCacheEntry* entry = cache.lookup(key)) {
      banked = *entry;
      context.hint = &banked.basis;
    }
    SolveOptions warm_options = options;
    warm_options.warm_context = &context;
    const SolveReport warm = solver->solve(churned, warm_options);
    outcome.warm_pivots += warm.pivots;
    outcome.warm_seconds += warm.wall_time_seconds;
    if (warm.warm_started) outcome.warm_rate += 1.0;
    if (!wire::reports_payload_equal(warm, cold)) {
      outcome.payload_identical = false;
    }
    if (context.has_export) {
      cache.insert(key,
                   service::BasisCacheEntry{
                       std::move(context.exported),
                       static_cast<std::uint32_t>(churned.num_bidders()),
                       static_cast<std::uint32_t>(churned.num_channels()),
                       std::move(context.columns_per_bidder)});
    }
  }
  if (variants > 0) {
    outcome.warm_rate /= static_cast<double>(variants);
  }
  return outcome;
}

void churn_experiment(std::size_t scenarios, std::size_t variants,
                      std::vector<double>& ratios) {
  Table table({"scenario", "n", "k", "warm rate", "pivots cold", "pivots warm",
               "ratio", "payload=="});
  for (std::size_t s = 0; s < scenarios; ++s) {
    const std::size_t n = 16 + 4 * (s % 3);
    const int k = 2 + static_cast<int>(s % 2);
    const AuctionInstance base = gen::make_disk_auction(
        n, k, gen::ValuationMix::kMixed, 1400 + 31 * s);
    const ChurnOutcome outcome =
        run_churn_stream(base, variants, 9000 + 17 * s);
    const double ratio =
        outcome.warm_pivots > 0
            ? static_cast<double>(outcome.cold_pivots) /
                  static_cast<double>(outcome.warm_pivots)
            : static_cast<double>(outcome.cold_pivots + 1);
    ratios.push_back(ratio);
    const std::string name = "e14/churn/s" + std::to_string(s);
    table.add_row({name, Table::integer(static_cast<long long>(n)),
                   Table::integer(k), Table::num(outcome.warm_rate, 2),
                   Table::integer(outcome.cold_pivots),
                   Table::integer(outcome.warm_pivots), Table::num(ratio, 2),
                   outcome.payload_identical ? "yes" : "NO"});
    bench::record(bench::BenchRecord{
        name, outcome.warm_seconds, 0.0, "lp-rounding",
        {{"variants", static_cast<double>(variants)},
         {"warm_rate", outcome.warm_rate},
         {"cold_pivots", static_cast<double>(outcome.cold_pivots)},
         {"warm_pivots", static_cast<double>(outcome.warm_pivots)},
         {"pivot_ratio", ratio},
         {"cold_seconds", outcome.cold_seconds},
         {"payload_identical", outcome.payload_identical ? 1.0 : 0.0}}});
  }
  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  bench::print_experiment(
      "E14: churn stream, cold vs warm-started explicit LP",
      table,
      "median pivot ratio (cold/warm) = " + Table::num(median, 2) +
          " (roadmap target >= 2x)");
  bench::record(bench::BenchRecord{
      "e14/churn/median", 0.0, 0.0, "lp-rounding",
      {{"median_pivot_ratio", median}}});
}

void delta_experiment(std::size_t scenarios) {
  Table table({"scenario", "direction", "warm", "pivots cold", "pivots warm"});
  for (std::size_t s = 0; s < scenarios; ++s) {
    const std::size_t n = 18 + 2 * (s % 3);
    const AuctionInstance big = gen::make_disk_auction(
        n, 3, gen::ValuationMix::kMixed, 2100 + 13 * s);
    const AuctionInstance small = drop_bidder(big, big.num_bidders() - 1);

    // Donor solves (also the cold baselines of the opposite direction).
    LpWarmStart big_donor;
    lp::BasisSnapshot big_basis;
    std::vector<std::uint32_t> big_columns;
    big_donor.exported = &big_basis;
    big_donor.columns_per_bidder = &big_columns;
    const FractionalSolution big_cold = solve_auction_lp(big, {}, &big_donor);

    LpWarmStart small_donor;
    lp::BasisSnapshot small_basis;
    std::vector<std::uint32_t> small_columns;
    small_donor.exported = &small_basis;
    small_donor.columns_per_bidder = &small_columns;
    const FractionalSolution small_cold =
        solve_auction_lp(small, {}, &small_donor);

    // Grow: small's basis remapped onto big (the appended bidder's rows
    // come up slack-basic, phase 1 repairs them).
    const lp::BasisSnapshot grow_hint = remap_basis_for_added_bidder(
        small_basis, small.num_bidders(), big.num_channels(), small_columns,
        positive_bundles(big, big.num_bidders() - 1));
    LpWarmStart grow;
    grow.hint = &grow_hint;
    const FractionalSolution grow_warm = solve_auction_lp(big, {}, &grow);

    // Shrink: big's basis remapped onto small.
    const lp::BasisSnapshot shrink_hint = remap_basis_for_removed_bidder(
        big_basis, big.num_bidders(), big.num_channels(),
        static_cast<int>(big.num_bidders() - 1), big_columns);
    LpWarmStart shrink;
    shrink.hint = &shrink_hint;
    const FractionalSolution shrink_warm = solve_auction_lp(small, {}, &shrink);

    const std::string label = "s" + std::to_string(s);
    table.add_row({label, "add", grow.warm_started ? "yes" : "no",
                   Table::integer(big_cold.pivots),
                   Table::integer(grow_warm.pivots)});
    table.add_row({label, "remove", shrink.warm_started ? "yes" : "no",
                   Table::integer(small_cold.pivots),
                   Table::integer(shrink_warm.pivots)});
    bench::record(bench::BenchRecord{
        "e14/delta/add/" + label, 0.0, 0.0, "lp",
        {{"warm_started", grow.warm_started ? 1.0 : 0.0},
         {"cold_pivots", static_cast<double>(big_cold.pivots)},
         {"warm_pivots", static_cast<double>(grow_warm.pivots)}}});
    bench::record(bench::BenchRecord{
        "e14/delta/remove/" + label, 0.0, 0.0, "lp",
        {{"warm_started", shrink.warm_started ? 1.0 : 0.0},
         {"cold_pivots", static_cast<double>(small_cold.pivots)},
         {"warm_pivots", static_cast<double>(shrink_warm.pivots)}}});
  }
  bench::print_experiment(
      "E14: delta re-solve (one bidder added / removed, remapped basis)",
      table, "");
}

const AuctionInstance& bm_instance() {
  static const AuctionInstance instance =
      gen::make_disk_auction(20, 3, gen::ValuationMix::kMixed, 77);
  return instance;
}

void BM_ColdLpSolve(benchmark::State& state) {
  const AuctionInstance& instance = bm_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_auction_lp(instance));
  }
}
BENCHMARK(BM_ColdLpSolve);

void BM_WarmLpSolve(benchmark::State& state) {
  const AuctionInstance& instance = bm_instance();
  LpWarmStart donor;
  lp::BasisSnapshot basis;
  donor.exported = &basis;
  (void)solve_auction_lp(instance, {}, &donor);
  for (auto _ : state) {
    LpWarmStart warm;
    warm.hint = &basis;
    benchmark::DoNotOptimize(solve_auction_lp(instance, {}, &warm));
  }
}
BENCHMARK(BM_WarmLpSolve);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] {
    std::vector<double> ratios;
    churn_experiment(env_count("SSA_E14_SCENARIOS", 6),
                     env_count("SSA_E14_VARIANTS", 20), ratios);
    delta_experiment(env_count("SSA_E14_SCENARIOS", 6));
  });
}
