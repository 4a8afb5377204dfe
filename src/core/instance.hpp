#pragma once
/// \file instance.hpp
/// The combinatorial auction with conflict graph (Problem 1): a conflict
/// graph (possibly edge-weighted), an ordering pi with its inductive
/// independence value rho, k channels, and one valuation per bidder.

#include <span>
#include <vector>

#include "core/allocation.hpp"
#include "core/bundle.hpp"
#include "core/valuation.hpp"
#include "graph/conflict_graph.hpp"
#include "graph/inductive_independence.hpp"
#include "graph/ordering.hpp"

namespace ssa {

/// Immutable auction instance.
class AuctionInstance {
 public:
  /// \p rho is the inductive independence value used in the LP right-hand
  /// sides; pass 0 to have it measured with the verifier (clamped to >= 1,
  /// since the LP scaling and the analysis assume rho >= 1).
  AuctionInstance(ConflictGraph graph, Ordering order, int num_channels,
                  std::vector<ValuationPtr> valuations, double rho = 0.0);

  [[nodiscard]] std::size_t num_bidders() const noexcept {
    return valuations_.size();
  }
  [[nodiscard]] int num_channels() const noexcept { return k_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] const ConflictGraph& graph() const noexcept { return graph_; }
  /// Channel j's conflict graph: every channel shares the one graph. The
  /// accessor AsymmetricInstance also has, so LP and search code reads
  /// both channel models the same way (auction_lp.hpp).
  [[nodiscard]] const ConflictGraph& graph(int /*channel*/) const noexcept {
    return graph_;
  }
  [[nodiscard]] const Ordering& order() const noexcept { return order_; }
  /// pi(v) for each vertex.
  [[nodiscard]] const std::vector<int>& positions() const noexcept {
    return position_;
  }
  [[nodiscard]] const Valuation& valuation(std::size_t v) const {
    return *valuations_.at(v);
  }
  [[nodiscard]] const std::vector<ValuationPtr>& valuations() const noexcept {
    return valuations_;
  }

  /// b_{v,T}.
  [[nodiscard]] double value(std::size_t v, Bundle bundle) const {
    return valuations_[v]->value(bundle);
  }

  /// Social welfare of an allocation.
  [[nodiscard]] double welfare(const Allocation& allocation) const;

  /// Feasibility per Problem 1.
  [[nodiscard]] bool feasible(const Allocation& allocation) const {
    return is_feasible(allocation, graph_, k_);
  }

  /// Whether all edge weights are binary (selects Algorithm 1 vs 2+3).
  [[nodiscard]] bool unweighted() const noexcept { return unweighted_; }

  /// A copy with bidder \p v's valuation replaced (mechanism experiments).
  [[nodiscard]] AuctionInstance with_valuation(std::size_t v,
                                               ValuationPtr valuation) const;

  /// A copy with bidder \p v's valuation zeroed out (VCG -v welfare).
  [[nodiscard]] AuctionInstance without_bidder(std::size_t v) const;

 private:
  ConflictGraph graph_;
  Ordering order_;
  std::vector<int> position_;
  int k_;
  double rho_;
  std::vector<ValuationPtr> valuations_;
  bool unweighted_;
};

}  // namespace ssa
