#include "core/asymmetric.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/best_rounds.hpp"
#include "core/branch_and_bound.hpp"
#include "graph/inductive_independence.hpp"
#include "support/parallel.hpp"

namespace ssa {

AsymmetricInstance::AsymmetricInstance(std::vector<ConflictGraph> channel_graphs,
                                       Ordering order,
                                       std::vector<ValuationPtr> valuations,
                                       double rho)
    : graphs_(std::move(channel_graphs)),
      order_(std::move(order)),
      rho_(rho),
      valuations_(std::move(valuations)) {
  if (graphs_.empty() ||
      graphs_.size() > static_cast<std::size_t>(kMaxChannels)) {
    throw std::invalid_argument(
        "AsymmetricInstance: channel count must be in [1, " +
        std::to_string(kMaxChannels) + "], got " +
        std::to_string(graphs_.size()));
  }
  const std::size_t n = valuations_.size();
  for (const auto& graph : graphs_) {
    if (graph.size() != n) {
      throw std::invalid_argument("AsymmetricInstance: graph size mismatch");
    }
  }
  for (const auto& valuation : valuations_) {
    if (!valuation || valuation->num_channels() != num_channels()) {
      throw std::invalid_argument("AsymmetricInstance: valuation mismatch");
    }
  }
  position_ = ordering_positions(order_);
  for (const auto& graph : graphs_) graph.ensure_adjacency();
  if (rho_ <= 0.0) {
    for (const auto& graph : graphs_) {
      rho_ = std::max(rho_, rho_of_ordering(graph, order_).value);
    }
  }
  rho_ = std::max(rho_, 1.0);
  unweighted_ = true;
  for (const auto& graph : graphs_) unweighted_ = unweighted_ && graph.is_unweighted();
}

AsymmetricInstance AsymmetricInstance::with_valuation(
    std::size_t v, ValuationPtr valuation) const {
  std::vector<ValuationPtr> valuations = valuations_;
  valuations.at(v) = std::move(valuation);
  return AsymmetricInstance(graphs_, order_, std::move(valuations), rho_);
}

double AsymmetricInstance::welfare(const Allocation& allocation) const {
  double total = 0.0;
  for (std::size_t v = 0; v < num_bidders(); ++v) {
    if (allocation.bundles[v] != kEmptyBundle) {
      total += value(v, allocation.bundles[v]);
    }
  }
  return total;
}

bool AsymmetricInstance::fits(std::span<const Bundle> assigned,
                              std::size_t v, Bundle t) const {
  for (int j = 0; j < num_channels(); ++j) {
    if (!bundle_has(t, j)) continue;
    for (int u : graph(j).neighbors(v)) {
      if (bundle_has(assigned[static_cast<std::size_t>(u)], j)) return false;
    }
  }
  return true;
}

Allocation round_asymmetric(const AsymmetricInstance& instance,
                            const FractionalSolution& fractional, Rng& rng) {
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "round_asymmetric: unweighted per-channel graphs only");
  }
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const double denominator = 2.0 * static_cast<double>(k) * instance.rho();

  // Rounding stage: one draw per bidder over its fractional columns.
  std::vector<std::vector<const FractionalColumn*>> by_bidder(n);
  for (const FractionalColumn& column : fractional.columns) {
    by_bidder[static_cast<std::size_t>(column.bidder)].push_back(&column);
  }
  std::vector<Bundle> sampled(n, kEmptyBundle);
  for (std::size_t v = 0; v < n; ++v) {
    const double u = rng.uniform();
    double cumulative = 0.0;
    for (const FractionalColumn* column : by_bidder[v]) {
      cumulative += column->x / denominator;
      if (u < cumulative) {
        sampled[v] = column->bundle;
        break;
      }
    }
  }

  // Conflict resolution, ascending pi: as in Algorithm 1, a conflict with a
  // kept earlier vertex on ANY channel j of v's bundle drops v's ENTIRE
  // bundle (not just channel j). This is deliberate -- see the contract in
  // asymmetric.hpp: per-channel trimming would leave sub-bundles the
  // survival analysis never values, so the whole set is charged. Only
  // earlier vertices are kept when v is checked, so the binary fit check
  // against the kept set is exactly that test.
  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (int v : instance.order()) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (sampled[sv] != kEmptyBundle &&
        instance.fits(allocation.bundles, sv, sampled[sv])) {
      allocation.bundles[sv] = sampled[sv];
    }
  }
  return allocation;
}

Allocation best_asymmetric_rounds(const AsymmetricInstance& instance,
                                  const FractionalSolution& fractional,
                                  int repetitions, std::uint64_t seed,
                                  const Deadline& deadline, bool* timed_out) {
  // round_asymmetric's domain check, hoisted out of the parallel loop: an
  // exception may not escape an OpenMP worker.
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "round_asymmetric: unweighted per-channel graphs only");
  }
  return detail::best_rounds(
      instance.num_bidders(), repetitions, seed, deadline, timed_out,
      [&](Rng& rng) { return round_asymmetric(instance, fractional, rng); },
      [&](const Allocation& a) { return instance.welfare(a); });
}

namespace {

/// The binary fit policy of the branch-and-bound search: no incremental
/// state, the check reads the assignment directly.
struct BinaryFit {
  const AsymmetricInstance& instance;

  [[nodiscard]] bool fits(std::span<const Bundle> assigned, std::size_t v,
                          Bundle t) const {
    return instance.fits(assigned, v, t);
  }
  void place(std::size_t, Bundle) {}
  void remove(std::size_t, Bundle) {}
};

}  // namespace

ExactResult solve_asymmetric_exact(const AsymmetricInstance& instance,
                                   ExactOptions options) {
  if (instance.num_channels() > options.max_channels) {
    throw std::invalid_argument(
        "solve_asymmetric_exact: too many channels for B&B");
  }
  // The search prunes on binary conflicts (BinaryFit); weighted
  // graphs admit allocations (incoming weight < 1) that pruning would
  // never visit, so claiming exactness there would be wrong.
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "solve_asymmetric_exact: unweighted per-channel graphs only");
  }
  return detail::branch_and_bound(instance, options, BinaryFit{instance});
}

namespace {

/// Shared guard of the bundle-enumerating greedy baselines.
void require_explicit_channels(const AsymmetricInstance& instance,
                               const char* who) {
  if (instance.num_channels() > kExplicitChannelLimit) {
    throw std::invalid_argument(
        std::string(who) + ": k <= " + std::to_string(kExplicitChannelLimit) +
        " required, got " + std::to_string(instance.num_channels()) +
        " (use asymmetric-colgen for larger instances)");
  }
}

}  // namespace

Allocation greedy_by_value_asymmetric(const AsymmetricInstance& instance) {
  require_explicit_channels(instance, "greedy_by_value_asymmetric");
  const int k = instance.num_channels();
  const std::size_t n = instance.num_bidders();

  std::vector<double> max_values(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      max_values[v] = std::max(max_values[v], instance.value(v, t));
    }
  }
  std::vector<std::size_t> bidders(n);
  std::iota(bidders.begin(), bidders.end(), 0);
  std::stable_sort(bidders.begin(), bidders.end(),
                   [&](std::size_t a, std::size_t b) {
                     return max_values[a] > max_values[b];
                   });

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (std::size_t v : bidders) {
    Bundle best = kEmptyBundle;
    double best_value = 0.0;
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value > best_value && instance.fits(allocation.bundles, v, t)) {
        best = t;
        best_value = value;
      }
    }
    allocation.bundles[v] = best;
  }
  return allocation;
}

Allocation greedy_by_density_asymmetric(const AsymmetricInstance& instance) {
  require_explicit_channels(instance, "greedy_by_density_asymmetric");
  const int k = instance.num_channels();
  const std::size_t n = instance.num_bidders();

  struct Bid {
    std::size_t bidder;
    Bundle bundle;
    double density;
  };
  std::vector<Bid> bids;
  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value > 0.0) {
        bids.push_back(Bid{v, t, value / bundle_size(t)});
      }
    }
  }
  std::stable_sort(bids.begin(), bids.end(), [](const Bid& a, const Bid& b) {
    return a.density > b.density;
  });

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (const Bid& bid : bids) {
    if (allocation.bundles[bid.bidder] != kEmptyBundle) continue;
    if (instance.fits(allocation.bundles, bid.bidder, bid.bundle)) {
      allocation.bundles[bid.bidder] = bid.bundle;
    }
  }
  return allocation;
}

}  // namespace ssa
