#include "core/asymmetric_colgen.hpp"

#include <algorithm>
#include <unordered_set>

namespace ssa {

FractionalSolution solve_asymmetric_lp_colgen(
    const AsymmetricInstance& instance, ColGenStats* stats,
    const AsymmetricColGenOptions& options) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  // Whether master costs AND oracle utilities carry the symmetry-breaking
  // lift (see the header): exact lifted demand needs the 2^k enumeration.
  const bool lifted = k <= kLiftedDemandChannels;
  const auto column_cost = [&](std::size_t v, Bundle t) {
    const double value = instance.value(v, t);
    return lifted ? lifted_value(value, v, t) : value;
  };
  // Column meanings in master order: pool seeds first, oracle columns
  // after, mirroring solve_with_benders's append order. propose appends
  // column (v, t) to the seeds' or an oracle round's batch unless the
  // master already has it.
  std::vector<ColumnMeaning> meaning;
  std::unordered_set<std::uint64_t> known;  // (v << 32) | t
  const auto propose = [&](std::vector<lp::PricedColumn>& batch,
                           std::size_t v, Bundle t) {
    if (!known.insert((std::uint64_t{v} << 32) | t).second) return;
    batch.push_back(lp::PricedColumn{
        column_cost(v, t), bundle_column(instance, static_cast<int>(v), t)});
    meaning.emplace_back(static_cast<int>(v), t);
  };

  lp::LinearProgram master = build_master_rows(instance);
  std::vector<lp::PricedColumn> seeds;
  const AsymmetricColumnPool* pool = options.pool;
  const bool pool_compatible = pool != nullptr && !pool->empty() &&
                               pool->num_bidders == n &&
                               pool->num_channels == k;
  if (pool_compatible) {
    seeds.reserve(pool->columns.size());
    for (const auto& [bidder, t] : pool->columns) {
      // Zero-value columns cannot help a packing LP; churn may have
      // zeroed a donor column's value, so filter here. (A filtered seed
      // shrinks the master below the donor basis's column count and the
      // engine then falls back to a cold first solve -- correct, just
      // less warm.)
      if (bidder < 0 || static_cast<std::size_t>(bidder) >= n ||
          t == kEmptyBundle || t >= num_bundles(k)) {
        continue;
      }
      const std::size_t v = static_cast<std::size_t>(bidder);
      if (instance.value(v, t) > 0.0) propose(seeds, v, t);
    }
  }

  const lp::PricingOracle oracle =
      [&](const lp::Solution& rmp) -> std::vector<lp::PricedColumn> {
    std::vector<lp::PricedColumn> columns;
    std::vector<double> prices;
    for (std::size_t v = 0; v < n; ++v) {
      bidder_prices(instance, rmp.duals, v, prices);
      const double z_v = rmp.duals[n * static_cast<std::size_t>(k) + v];

      Bundle best = kEmptyBundle;
      double best_utility = 0.0;
      double threshold = 0.0;
      if (lifted) {
        // Exact demand under the LIFTED values, so the oracle certifies
        // optimality of the lifted master -- pricing with raw values
        // under a lifted master could terminate epsilon-short and make
        // warm/cold runs disagree. The separation threshold is the
        // engine's own tolerance for the same reason.
        for (Bundle t = 1; t < num_bundles(k); ++t) {
          const double value = instance.value(v, t);
          if (value <= 0.0) continue;
          double price = 0.0;
          for (int j = 0; j < k; ++j) {
            if (bundle_has(t, j)) price += prices[static_cast<std::size_t>(j)];
          }
          const double utility = lifted_value(value, v, t) - price;
          if (utility > best_utility) {
            best = t;
            best_utility = utility;
          }
        }
        threshold = 1e-9;
      } else {
        // Beyond the enumeration ceiling: the valuation's own closed-form
        // demand oracle (unlifted) with the symmetric colgen path's
        // slacker threshold.
        const DemandResult demand = instance.valuation(v).demand(prices);
        best = demand.bundle;
        best_utility = demand.utility;
        threshold = 1e-7;
      }
      if (best != kEmptyBundle && best_utility > z_v + threshold) {
        propose(columns, v, best);
      }
    }
    return columns;
  };

  lp::BendersOptions benders;
  benders.simplex = options.simplex;
  benders.basis_hint = pool_compatible ? &pool->basis : nullptr;
  lp::BasisSnapshot terminal_basis;
  const lp::BendersResult run = lp::solve_with_benders(
      master, oracle, seeds, benders, &terminal_basis);

  if (stats != nullptr) {
    stats->rounds = run.rounds;
    stats->columns_generated = run.columns_added;
    stats->proved_optimal = run.proved_optimal;
    stats->pool_warm_started = pool_compatible;
    stats->pivots = run.pivots;
  }
  if (options.pool_export != nullptr) {
    *options.pool_export = AsymmetricColumnPool{};
    if (run.solution.status == lp::SolveStatus::kOptimal) {
      options.pool_export->columns = meaning;
      options.pool_export->basis = terminal_basis;  // empty unless proven
      options.pool_export->num_bidders = static_cast<std::uint32_t>(n);
      options.pool_export->num_channels = k;
    }
  }

  const FractionalSolution terminal = extract_fractional(run.solution, meaning);
  if (terminal.status != lp::SolveStatus::kOptimal) return terminal;

  // Final canonical re-solve: the terminal support in sorted (bidder,
  // bundle) order becomes a fresh LP solved by a fresh engine. Warm and
  // cold runs that terminate with the same support set (guaranteed
  // generically by the lift) then solve literally the same LP, so the
  // extracted objective and weights are bitwise identical no matter how
  // the columns arrived (pool seed vs oracle round, any order).
  std::vector<ColumnMeaning> support;
  support.reserve(terminal.columns.size());
  for (const FractionalColumn& column : terminal.columns) {
    support.emplace_back(column.bidder, column.bundle);
  }
  std::sort(support.begin(), support.end());

  lp::LinearProgram canonical = build_master_rows(instance);
  for (const auto& [v, t] : support) {
    canonical.add_column(column_cost(static_cast<std::size_t>(v), t),
                         bundle_column(instance, v, t));
  }

  // The terminal basis, reindexed to the canonical column order, warm-
  // starts the re-solve: the support columns keep their basis positions
  // and a dropped degenerate column (basic at zero, outside the support)
  // hands its position to the unit artificial of that row -- the same
  // stand-in export_basis uses -- which the install path repairs or
  // drives out for free. The re-solve then certifies optimality in a
  // handful of pivots instead of redoing phase 1 + 2 from scratch.
  // Payload identity is untouched: canonical extraction is basis-
  // independent (lp/simplex.hpp), the very property that makes the
  // service's basis reuse payload-invariant, and any incompatible or
  // singular hint falls back to a cold re-solve of the same LP.
  lp::BasisSnapshot polish_hint;
  if (!terminal_basis.empty()) {
    polish_hint.rows = terminal_basis.rows;
    polish_hint.structurals = static_cast<std::uint32_t>(support.size());
    polish_hint.basic.reserve(terminal_basis.basic.size());
    for (std::size_t i = 0; i < terminal_basis.basic.size(); ++i) {
      lp::BasisSnapshot::Entry entry = terminal_basis.basic[i];
      if (entry.kind == lp::BasisSnapshot::Kind::kStructural) {
        const std::size_t c = static_cast<std::size_t>(entry.index);
        // Meanings are unique, so column c is in the support exactly when
        // its meaning is.
        const auto it =
            c < meaning.size()
                ? std::lower_bound(support.begin(), support.end(), meaning[c])
                : support.end();
        if (it != support.end() && *it == meaning[c]) {
          entry.index = static_cast<std::int32_t>(it - support.begin());
        } else {
          entry.kind = lp::BasisSnapshot::Kind::kArtificial;
          entry.index = static_cast<std::int32_t>(i);
        }
      }
      polish_hint.basic.push_back(entry);
    }
  }
  lp::SimplexEngine polish(options.simplex);
  const lp::Solution final_solution =
      polish_hint.empty() ? polish.solve(canonical)
                          : polish.solve(canonical, polish_hint);
  // A deadline firing between the main loop and the re-solve surfaces as
  // the re-solve's status.
  FractionalSolution result = extract_fractional(final_solution, support);
  result.pivots += run.pivots;
  if (stats != nullptr) stats->pivots = result.pivots;
  return result;
}

Allocation greedy_fit_from_columns(const AsymmetricInstance& instance,
                                   const std::vector<FractionalColumn>& columns) {
  struct Candidate {
    const FractionalColumn* column;
    double mass;  // x * value
  };
  std::vector<Candidate> candidates;
  candidates.reserve(columns.size());
  for (const FractionalColumn& column : columns) {
    candidates.push_back(Candidate{
        &column, column.x * instance.value(
                                static_cast<std::size_t>(column.bidder),
                                column.bundle)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mass > b.mass;
                   });

  Allocation allocation;
  allocation.bundles.assign(instance.num_bidders(), kEmptyBundle);
  for (const Candidate& candidate : candidates) {
    const std::size_t v =
        static_cast<std::size_t>(candidate.column->bidder);
    if (allocation.bundles[v] != kEmptyBundle) continue;
    const Bundle t = candidate.column->bundle;
    if (instance.fits(allocation.bundles, v, t)) allocation.bundles[v] = t;
  }
  return allocation;
}

}  // namespace ssa
