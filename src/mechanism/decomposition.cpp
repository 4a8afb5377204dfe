#include "mechanism/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/exact.hpp"
#include "core/rounding.hpp"
#include "lp/benders.hpp"

namespace ssa {

namespace {

/// Valuation defined by a sparse (bundle -> value) table; used to turn the
/// decomposition duals into a pricing auction over supp(x*).
class SparseValuation final : public Valuation {
 public:
  SparseValuation(int num_channels, std::map<Bundle, double> values)
      : Valuation(num_channels), values_(std::move(values)) {}

  [[nodiscard]] double value(Bundle bundle) const override {
    const auto it = values_.find(bundle);
    return it == values_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] DemandResult demand(std::span<const double> prices) const override {
    DemandResult best;
    for (const auto& [bundle, value] : values_) {
      double utility = value;
      for (int j = 0; j < k_; ++j) {
        if (bundle_has(bundle, j)) utility -= prices[j];
      }
      if (utility > best.utility) best = DemandResult{bundle, utility};
    }
    return best;
  }

  [[nodiscard]] double max_value() const override {
    double best = 0.0;
    for (const auto& [bundle, value] : values_) best = std::max(best, value);
    return best;
  }

 private:
  std::map<Bundle, double> values_;
};

}  // namespace

double default_alpha(const AuctionInstance& instance) {
  const double sqrt_k =
      std::sqrt(static_cast<double>(instance.num_channels()));
  if (instance.unweighted()) return 8.0 * sqrt_k * instance.rho();
  const double log_n = std::ceil(
      std::log2(std::max<std::size_t>(instance.num_bidders(), 2)));
  return 16.0 * sqrt_k * instance.rho() * log_n;
}

Decomposition decompose_fractional(const AuctionInstance& instance,
                                   const FractionalSolution& fractional,
                                   DecompositionOptions options) {
  Decomposition result;
  result.alpha = options.alpha > 0.0 ? options.alpha : default_alpha(instance);

  // Coordinates = support of x*.
  std::vector<FractionalColumn> support;
  for (const FractionalColumn& column : fractional.columns) {
    if (column.x > 1e-9) support.push_back(column);
  }
  const std::size_t num_coords = support.size();
  std::map<std::pair<int, Bundle>, int> coord_of;
  for (std::size_t c = 0; c < num_coords; ++c) {
    coord_of[{support[c].bidder, support[c].bundle}] = static_cast<int>(c);
  }

  // Master: coordinate equality rows + convexity row; s+/s- and the empty
  // allocation (so the convexity row is satisfiable) as initial columns.
  lp::LinearProgram master(lp::Objective::kMinimize);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_row(lp::RowSense::kEqual, support[c].x / result.alpha);
  }
  const int convexity_row = master.add_row(lp::RowSense::kEqual, 1.0);
  for (std::size_t c = 0; c < num_coords; ++c) {
    master.add_column(1.0, {{static_cast<int>(c), 1.0}});   // s+
    master.add_column(1.0, {{static_cast<int>(c), -1.0}});  // s-
  }
  // Allocation a sits at master column first_allocation + a.
  const std::size_t first_allocation = master.num_columns();
  std::vector<Allocation> allocation_columns(1);
  allocation_columns[0].bundles.assign(instance.num_bidders(), kEmptyBundle);
  master.add_column(0.0, {{convexity_row, 1.0}});

  const bool exact_pricing_possible =
      options.use_exact_pricing && instance.num_channels() <= 6 &&
      instance.num_bidders() <= 14;

  // Pricing: find an integral allocation maximizing the dual weights, or
  // stop once the decomposition is complete or nothing improves.
  const lp::PricingOracle oracle =
      [&](const lp::Solution& solution) -> std::vector<lp::PricedColumn> {
    if (solution.objective < 1e-8) return {};  // decomposition complete

    // Dual weights w_c and theta.
    std::vector<double> weights(num_coords, 0.0);
    for (std::size_t c = 0; c < num_coords; ++c) weights[c] = solution.duals[c];
    const double theta = solution.duals[static_cast<std::size_t>(convexity_row)];

    // Pricing instance: bidder v values bundle T at max(w_{(v,T)}, 0).
    std::vector<ValuationPtr> pricing_valuations;
    std::vector<std::map<Bundle, double>> tables(instance.num_bidders());
    for (std::size_t c = 0; c < num_coords; ++c) {
      if (weights[c] > 0.0) {
        tables[static_cast<std::size_t>(support[c].bidder)][support[c].bundle] =
            weights[c];
      }
    }
    pricing_valuations.reserve(instance.num_bidders());
    for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
      pricing_valuations.push_back(std::make_shared<SparseValuation>(
          instance.num_channels(), std::move(tables[v])));
    }
    const AuctionInstance pricing_instance(instance.graph(), instance.order(),
                                           instance.num_channels(),
                                           std::move(pricing_valuations),
                                           instance.rho());

    // Candidate allocations from the rounding verifier (and exact B&B);
    // the per-round seed advances with the columns added so far.
    const std::size_t columns_so_far = allocation_columns.size() - 1;
    Allocation candidate = best_of_rounds(
        pricing_instance, fractional, options.rounding_repetitions,
        options.seed + static_cast<std::uint64_t>(columns_so_far));
    if (exact_pricing_possible) {
      const ExactResult exact = solve_exact(pricing_instance);
      if (exact.welfare > pricing_instance.welfare(candidate)) {
        candidate = exact.allocation;
      }
    }
    // Drop coordinates whose true (signed) weight is non-positive; this
    // only raises the score and keeps feasibility (downward closure).
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      const auto it = coord_of.find({static_cast<int>(v), candidate.bundles[v]});
      if (it == coord_of.end() ||
          weights[static_cast<std::size_t>(it->second)] <= 0.0) {
        candidate.bundles[v] = kEmptyBundle;
      }
    }

    double score = theta;
    std::vector<lp::ColumnEntry> entries{{convexity_row, 1.0}};
    for (std::size_t v = 0; v < candidate.size(); ++v) {
      if (candidate.bundles[v] == kEmptyBundle) continue;
      const int coord =
          coord_of.at({static_cast<int>(v), candidate.bundles[v]});
      score += weights[static_cast<std::size_t>(coord)];
      entries.push_back({coord, 1.0});
    }
    if (score <= 1e-8) return {};  // no improving allocation found

    allocation_columns.push_back(std::move(candidate));
    return {lp::PricedColumn{0.0, std::move(entries)}};
  };

  lp::BendersOptions benders;
  benders.max_rounds = options.max_rounds;
  const lp::BendersResult run =
      lp::solve_with_benders(master, oracle, {}, benders);
  const lp::Solution& solution = run.solution;
  // One column per round, so rounds and columns_generated coincide.
  result.rounds = run.columns_added;
  result.columns_generated = run.columns_added;
  result.residual = std::max(0.0, solution.objective);
  result.pivots = solution.pivots;  // engine-lifetime count across resolves

  // Extract the distribution.
  double total = 0.0;
  for (std::size_t a = 0; a < allocation_columns.size(); ++a) {
    const double lambda = solution.x[first_allocation + a];
    if (lambda > 1e-9) {
      result.entries.push_back(
          DecompositionEntry{allocation_columns[a], lambda});
      total += lambda;
    }
  }
  if (total > 0.0) {
    for (DecompositionEntry& entry : result.entries) {
      entry.probability /= total;
    }
  }
  return result;
}

}  // namespace ssa
