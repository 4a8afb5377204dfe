#include "core/greedy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ssa {

namespace {
/// Whether bidder v can take bundle t given the current allocation.
bool fits(const AuctionInstance& instance, const Allocation& allocation,
          std::size_t v, Bundle t) {
  Allocation trial = allocation;
  trial.bundles[v] = t;
  return instance.feasible(trial);
}
}  // namespace

Allocation greedy_by_value(const AuctionInstance& instance) {
  const int k = instance.num_channels();
  if (k > kExplicitChannelLimit) {
    throw std::invalid_argument("greedy_by_value: k <= " +
                                std::to_string(kExplicitChannelLimit) +
                                " required");
  }
  const std::size_t n = instance.num_bidders();

  std::vector<std::size_t> bidders(n);
  std::iota(bidders.begin(), bidders.end(), 0);
  std::vector<double> max_values(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) max_values[v] = instance.valuation(v).max_value();
  std::stable_sort(bidders.begin(), bidders.end(), [&](std::size_t a, std::size_t b) {
    return max_values[a] > max_values[b];
  });

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (std::size_t v : bidders) {
    Bundle best = kEmptyBundle;
    double best_value = 0.0;
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value > best_value && fits(instance, allocation, v, t)) {
        best = t;
        best_value = value;
      }
    }
    allocation.bundles[v] = best;
  }
  return allocation;
}

Allocation greedy_by_density(const AuctionInstance& instance) {
  const int k = instance.num_channels();
  if (k > kExplicitChannelLimit) {
    throw std::invalid_argument("greedy_by_density: k <= " +
                                std::to_string(kExplicitChannelLimit) +
                                " required");
  }
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
    if (fits(instance, allocation, bid.bidder, bid.bundle)) {
      allocation.bundles[bid.bidder] = bid.bundle;
    }
  }
  return allocation;
}

namespace {

/// Local-ratio maximum-weight independent set with the given vertex
/// weights; the core of both local-ratio baselines.
std::vector<bool> local_ratio_mwis(const ConflictGraph& graph,
                                   const Ordering& order,
                                   const std::vector<int>& position,
                                   std::vector<double> residual) {
  const std::size_t n = graph.size();
  std::vector<int> stack;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    if (residual[v] <= 0.0) continue;
    stack.push_back(*it);
    for (int u : graph.neighbors(v)) {
      if (position[static_cast<std::size_t>(u)] < position[v]) {
        residual[static_cast<std::size_t>(u)] -= residual[v];
      }
    }
  }
  std::vector<bool> chosen(n, false);
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    bool blocked = false;
    for (int u : graph.neighbors(v)) {
      if (chosen[static_cast<std::size_t>(u)]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) chosen[v] = true;
  }
  return chosen;
}

}  // namespace

Allocation local_ratio_single_channel(const AuctionInstance& instance) {
  if (instance.num_channels() != 1) {
    throw std::invalid_argument("local_ratio_single_channel: k must be 1");
  }
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "local_ratio_single_channel: unweighted graphs only");
  }
  const std::size_t n = instance.num_bidders();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  const Bundle channel = 1u;

  // Phase 1 (descending pi): pay residual value forward to backward
  // neighbors; stack the vertices that were still positive.
  std::vector<double> residual(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) residual[v] = instance.value(v, channel);
  std::vector<int> stack;
  for (auto it = instance.order().rbegin(); it != instance.order().rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    if (residual[v] <= 0.0) continue;
    stack.push_back(*it);
    for (int u : graph.neighbors(v)) {
      if (position[static_cast<std::size_t>(u)] < position[v]) {
        residual[static_cast<std::size_t>(u)] -= residual[v];
      }
    }
  }

  // Phase 2 (LIFO pop = ascending pi): build a maximal independent set.
  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  std::vector<bool> chosen(n, false);
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    bool blocked = false;
    for (int u : graph.neighbors(v)) {
      if (chosen[static_cast<std::size_t>(u)]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      chosen[v] = true;
      allocation.bundles[v] = channel;
    }
  }
  return allocation;
}

Allocation greedy_submodular(const AuctionInstance& instance) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const ConflictGraph& graph = instance.graph();

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  // holders[j]: bidders currently assigned channel j (the independence
  // constraint is per channel).
  std::vector<std::vector<int>> holders(static_cast<std::size_t>(k));

  for (;;) {
    std::size_t best_bidder = n;
    int best_channel = k;
    double best_marginal = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      const double base = allocation.bundles[v] == kEmptyBundle
                              ? 0.0
                              : instance.value(v, allocation.bundles[v]);
      for (int j = 0; j < k; ++j) {
        if (bundle_has(allocation.bundles[v], j)) continue;
        const double marginal =
            instance.value(v, allocation.bundles[v] | (1u << j)) - base;
        // Strict improvement with the deterministic (bidder, channel)
        // tie-break baked into the scan order.
        if (marginal <= best_marginal) continue;
        bool conflicts = false;
        for (const int u : holders[static_cast<std::size_t>(j)]) {
          if (graph.has_conflict(static_cast<std::size_t>(u), v)) {
            conflicts = true;
            break;
          }
        }
        if (conflicts) continue;
        best_bidder = v;
        best_channel = j;
        best_marginal = marginal;
      }
    }
    if (best_bidder == n) break;  // no pair improves welfare
    allocation.bundles[best_bidder] |= (1u << best_channel);
    holders[static_cast<std::size_t>(best_channel)].push_back(
        static_cast<int>(best_bidder));
  }
  return allocation;
}

Allocation local_ratio_per_channel(const AuctionInstance& instance) {
  if (!instance.unweighted()) {
    throw std::invalid_argument(
        "local_ratio_per_channel: unweighted graphs only");
  }
  const std::size_t n = instance.num_bidders();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();

  Allocation allocation;
  allocation.bundles.assign(n, kEmptyBundle);
  for (int j = 0; j < instance.num_channels(); ++j) {
    // Marginal value of adding channel j to each bidder's current bundle.
    // Non-monotone valuations can make this negative; those bidders simply
    // do not compete for j.
    std::vector<double> marginal(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      const Bundle with_j = allocation.bundles[v] | (1u << j);
      marginal[v] =
          instance.value(v, with_j) - instance.value(v, allocation.bundles[v]);
    }
    const std::vector<bool> winners =
        local_ratio_mwis(graph, instance.order(), position, marginal);
    for (std::size_t v = 0; v < n; ++v) {
      if (winners[v] && marginal[v] > 0.0) {
        allocation.bundles[v] |= (1u << j);
      }
    }
  }
  return allocation;
}

}  // namespace ssa
