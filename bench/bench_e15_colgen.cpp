// Experiment E15: the decomposition solve path (asymmetric-colgen) under
// churn, cold vs column-pool warm starts.
//
// The workload mirrors E14 one layer up: the same asymmetric structure
// (per-channel graphs, ordering, rho, valuation supports) arrives over and
// over with rescaled bundle values -- but here the instances sit BEYOND the
// k <= 12 explicit-enumeration cap, so the only LP path is the restricted
// master + pricing oracle. Cold, every arrival regrows its column set from
// nothing, one oracle round at a time; warm, the per-structure column pool
// (the service's ColumnPoolCache, keyed by the structural fingerprint)
// seeds the restricted master with the donor's generated columns and the
// oracle usually just certifies optimality in a single round.
//
//   e15/churn/*  -- S scenarios (k = 13/14, past the explicit cap) x V
//                   support-preserving variants, solved cold (no pool) and
//                   warm (ColumnPoolCache, the service's exact key path).
//                   Reports per scenario: warm-hit rate, total oracle
//                   rounds and master pivots cold vs warm, the pivot and
//                   round ratios, generated-column totals, and whether
//                   EVERY warm payload was bitwise identical to its cold
//                   twin (wire::reports_payload_equal) -- pool reuse is a
//                   latency lever, never a result change.
//   BM_*         -- google-benchmark timings of one cold and one
//                   pool-warm colgen solve.
//
// The headline number is the MEDIAN master-pivot ratio across the churn
// scenarios (the verdict line prints it; the oracle-round ratio rides
// along): the seeded master both skips the column regrowth AND starts
// from the donor's basis, so pivots capture the full saving. The roadmap
// target is >= 2x.
// SSA_E15_SCENARIOS / SSA_E15_VARIANTS shrink the grid for CI smoke.
// Every row lands in BENCH_bench_e15_colgen.json via bench_util.

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
#include "core/asymmetric_colgen.hpp"
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
/// rescaled, zeros stay zero, so the structural fingerprint (and the set
/// of candidate master columns) is unchanged while the objective moves.
AsymmetricInstance rescale_bidder(const AsymmetricInstance& instance,
                                 std::size_t v, Rng& rng) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * rng.uniform(0.5, 2.0);
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

struct ChurnOutcome {
  double warm_rate = 0.0;
  long long cold_rounds = 0;
  long long warm_rounds = 0;
  long long cold_pivots = 0;
  long long warm_pivots = 0;
  long long cold_columns = 0;
  long long warm_columns = 0;
  bool payload_identical = true;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
};

/// Replays V churn variants of \p base through the unified API, cold and
/// pool-warm, verifying payload identity on every pair.
ChurnOutcome run_churn_stream(const AsymmetricInstance& base,
                              std::size_t variants, std::uint64_t seed) {
  const auto solver = make_solver("asymmetric-colgen");
  SolveOptions options;
  options.seed = 7;
  options.pipeline.rounding_repetitions = 8;

  service::ColumnPoolCache cache(64);
  Rng rng(seed);
  ChurnOutcome outcome;
  AsymmetricInstance churned = base;
  for (std::size_t i = 0; i < variants; ++i) {
    churned = rescale_bidder(churned, i % churned.num_bidders(), rng);

    const SolveReport cold = solver->solve(churned, options);
    outcome.cold_rounds += cold.oracle_rounds;
    outcome.cold_pivots += cold.pivots;
    outcome.cold_columns += cold.columns_generated;
    outcome.cold_seconds += cold.wall_time_seconds;

    // The service's warm path: look the structure up by its structural
    // fingerprint, seed the restricted master from the banked pool,
    // re-bank this run's export.
    WarmStartContext context;
    AsymmetricColumnPool banked;
    const Fingerprint key = structural_fingerprint(churned);
    if (const AsymmetricColumnPool* pool = cache.lookup(key)) {
      banked = *pool;
      context.pool_hint = &banked;
    }
    SolveOptions warm_options = options;
    warm_options.warm_context = &context;
    const SolveReport warm = solver->solve(churned, warm_options);
    outcome.warm_rounds += warm.oracle_rounds;
    outcome.warm_pivots += warm.pivots;
    outcome.warm_columns += warm.columns_generated;
    outcome.warm_seconds += warm.wall_time_seconds;
    if (warm.warm_started) outcome.warm_rate += 1.0;
    if (!wire::reports_payload_equal(warm, cold)) {
      outcome.payload_identical = false;
    }
    if (context.has_pool_export) {
      cache.insert(key, std::move(context.pool_exported));
    }
  }
  if (variants > 0) {
    outcome.warm_rate /= static_cast<double>(variants);
  }
  return outcome;
}

void churn_experiment(std::size_t scenarios, std::size_t variants) {
  Table table({"scenario", "n", "k", "warm rate", "rounds c/w", "pivots cold",
               "pivots warm", "ratio", "cols c/w", "payload=="});
  std::vector<double> pivot_ratios;
  std::vector<double> round_ratios;
  for (std::size_t s = 0; s < scenarios; ++s) {
    const std::size_t n = 6 + (s % 3);
    const int k = 13 + static_cast<int>(s % 2);  // past the explicit cap
    const AsymmetricInstance base = gen::make_random_asymmetric(
        n, k, 0.3, gen::ValuationMix::kMixed, 1500 + 31 * s);
    const ChurnOutcome outcome =
        run_churn_stream(base, variants, 9100 + 17 * s);
    const auto ratio_of = [](long long cold, long long warm) {
      return warm > 0 ? static_cast<double>(cold) / static_cast<double>(warm)
                      : static_cast<double>(cold + 1);
    };
    const double pivot_ratio =
        ratio_of(outcome.cold_pivots, outcome.warm_pivots);
    const double round_ratio =
        ratio_of(outcome.cold_rounds, outcome.warm_rounds);
    pivot_ratios.push_back(pivot_ratio);
    round_ratios.push_back(round_ratio);
    const std::string name = "e15/churn/s" + std::to_string(s);
    table.add_row({name, Table::integer(static_cast<long long>(n)),
                   Table::integer(k), Table::num(outcome.warm_rate, 2),
                   Table::integer(outcome.cold_rounds) + "/" +
                       Table::integer(outcome.warm_rounds),
                   Table::integer(outcome.cold_pivots),
                   Table::integer(outcome.warm_pivots),
                   Table::num(pivot_ratio, 2),
                   Table::integer(outcome.cold_columns) + "/" +
                       Table::integer(outcome.warm_columns),
                   outcome.payload_identical ? "yes" : "NO"});
    bench::record(bench::BenchRecord{
        name, outcome.warm_seconds, 0.0, "asymmetric-colgen",
        {{"variants", static_cast<double>(variants)},
         {"warm_rate", outcome.warm_rate},
         {"cold_rounds", static_cast<double>(outcome.cold_rounds)},
         {"warm_rounds", static_cast<double>(outcome.warm_rounds)},
         {"round_ratio", round_ratio},
         {"cold_pivots", static_cast<double>(outcome.cold_pivots)},
         {"warm_pivots", static_cast<double>(outcome.warm_pivots)},
         {"pivot_ratio", pivot_ratio},
         {"cold_columns", static_cast<double>(outcome.cold_columns)},
         {"warm_columns", static_cast<double>(outcome.warm_columns)},
         {"cold_seconds", outcome.cold_seconds},
         {"payload_identical", outcome.payload_identical ? 1.0 : 0.0}}});
  }
  const auto median_of = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[values.size() / 2];
  };
  const double pivot_median = median_of(pivot_ratios);
  const double round_median = median_of(round_ratios);
  bench::print_experiment(
      "E15: churn stream past the explicit cap, cold vs pool-warm colgen",
      table,
      "median master-pivot ratio (cold/warm) = " +
          Table::num(pivot_median, 2) + " (roadmap target >= 2x); " +
          "median oracle-round ratio = " + Table::num(round_median, 2));
  bench::record(bench::BenchRecord{
      "e15/churn/median", 0.0, 0.0, "asymmetric-colgen",
      {{"median_pivot_ratio", pivot_median},
       {"median_round_ratio", round_median}}});
}

const AsymmetricInstance& bm_instance() {
  static const AsymmetricInstance instance = gen::make_random_asymmetric(
      7, 13, 0.3, gen::ValuationMix::kMixed, 177);
  return instance;
}

void BM_ColdColgenSolve(benchmark::State& state) {
  const AsymmetricInstance& instance = bm_instance();
  const auto solver = make_solver("asymmetric-colgen");
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->solve(instance, options));
  }
}
BENCHMARK(BM_ColdColgenSolve);

void BM_PoolWarmColgenSolve(benchmark::State& state) {
  const AsymmetricInstance& instance = bm_instance();
  const auto solver = make_solver("asymmetric-colgen");
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;
  WarmStartContext donor;
  SolveOptions donor_options = options;
  donor_options.warm_context = &donor;
  (void)solver->solve(instance, donor_options);
  for (auto _ : state) {
    WarmStartContext context;
    context.pool_hint = &donor.pool_exported;
    SolveOptions warm_options = options;
    warm_options.warm_context = &context;
    benchmark::DoNotOptimize(solver->solve(instance, warm_options));
  }
}
BENCHMARK(BM_PoolWarmColgenSolve);

}  // namespace

int main(int argc, char** argv) {
  return ssa::bench::run(argc, argv, [] {
    churn_experiment(env_count("SSA_E15_SCENARIOS", 6),
                     env_count("SSA_E15_VARIANTS", 20));
  });
}
