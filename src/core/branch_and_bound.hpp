#pragma once
/// \file branch_and_bound.hpp
/// Shared skeleton of the exact winner-determination searches (symmetric
/// solve_exact and Section-6 solve_asymmetric_exact): DFS over bidders in
/// index order, each bidder's positive-value bundles tried best value
/// first, a suffix bound (welfare so far plus every later bidder's best
/// value), the node budget, the cooperative deadline polled every 4096
/// nodes, and the ExactResult mapping. Centralized so the two families'
/// budget and time-out semantics cannot diverge; only the fit check
/// differs between them.

#include <algorithm>
#include <span>
#include <vector>

#include "core/exact.hpp"

namespace ssa::detail {

/// \p Fit decides whether bidder v may take bundle t next to the current
/// assignment and tracks whatever incremental state that check needs:
///   bool fits(std::span<const Bundle> assigned, std::size_t v, Bundle t);
///   void place(std::size_t v, Bundle t);   // v now holds t
///   void remove(std::size_t v, Bundle t);  // undoes place(v, t)
template <typename Instance, typename Fit>
ExactResult branch_and_bound(const Instance& instance,
                             const ExactOptions& options, Fit fit) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();

  // Candidate bundles per bidder, best value first; prune zero values.
  std::vector<std::vector<Bundle>> candidates(n);
  std::vector<double> remaining_max(n + 1, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      if (instance.value(v, t) > 0.0) candidates[v].push_back(t);
    }
    std::sort(candidates[v].begin(), candidates[v].end(),
              [&](Bundle a, Bundle b) {
                return instance.value(v, a) > instance.value(v, b);
              });
  }
  for (std::size_t v = n; v-- > 0;) {
    const double vmax =
        candidates[v].empty() ? 0.0 : instance.value(v, candidates[v][0]);
    remaining_max[v] = remaining_max[v + 1] + vmax;
  }

  std::vector<Bundle> assigned(n, kEmptyBundle);
  ExactResult result;  // the incumbent: welfare 0, nobody served
  result.allocation.bundles = assigned;
  long long budget = options.node_budget;
  // A pre-expired deadline returns the empty incumbent.
  result.timed_out = options.deadline.expired();

  const auto recurse = [&](const auto& self, std::size_t v,
                           double welfare) -> void {
    if (budget-- <= 0 || result.timed_out) return;
    // Cooperative deadline: polled every 4096 nodes.
    if ((budget & 4095) == 0 && options.deadline.expired()) {
      result.timed_out = true;
      return;
    }
    if (welfare > result.welfare) {
      result.welfare = welfare;
      result.allocation.bundles = assigned;
      // assigned beyond v is empty by the invariant below.
    }
    if (v >= n) return;
    if (welfare + remaining_max[v] <= result.welfare) return;  // bound

    for (Bundle t : candidates[v]) {
      if (!fit.fits(assigned, v, t)) continue;
      assigned[v] = t;
      fit.place(v, t);
      self(self, v + 1, welfare + instance.value(v, t));
      fit.remove(v, t);
      assigned[v] = kEmptyBundle;
    }
    // Branch: v gets nothing.
    self(self, v + 1, welfare);
  };
  if (!result.timed_out) recurse(recurse, 0, 0.0);
  result.exact = budget > 0 && !result.timed_out;
  return result;
}

}  // namespace ssa::detail
