#include "core/exact.hpp"

#include <span>
#include <stdexcept>

#include "core/branch_and_bound.hpp"

namespace ssa {

namespace {

/// Weighted feasibility for the branch-and-bound search, checked
/// incrementally: per-(vertex, channel) incoming weights of the current
/// assignment.
class IncomingWeightFit {
 public:
  explicit IncomingWeightFit(const AuctionInstance& instance)
      : instance_(instance),
        incoming_(instance.num_bidders() *
                      static_cast<std::size_t>(instance.num_channels()),
                  0.0) {}

  /// Whether bidder v can take bundle t against the current assignment.
  [[nodiscard]] bool fits(std::span<const Bundle> assigned, std::size_t v,
                          Bundle t) const {
    const int k = instance_.num_channels();
    const auto& graph = instance_.graph();
    for (int j = 0; j < k; ++j) {
      if (!bundle_has(t, j)) continue;
      // v's own incoming weight on channel j must stay below 1 ...
      if (incoming_[v * static_cast<std::size_t>(k) +
                    static_cast<std::size_t>(j)] >= 1.0) {
        return false;
      }
      // ... and v must not push any current holder u to >= 1.
      for (std::size_t u = 0; u < v; ++u) {
        if (!bundle_has(assigned[u], j)) continue;
        const double w_vu = graph.weight(v, u);
        if (w_vu > 0.0 &&
            incoming_[u * static_cast<std::size_t>(k) +
                      static_cast<std::size_t>(j)] +
                    w_vu >=
                1.0) {
          return false;
        }
      }
    }
    return true;
  }

  void place(std::size_t v, Bundle t) { apply(v, t, +1.0); }
  void remove(std::size_t v, Bundle t) { apply(v, t, -1.0); }

 private:
  void apply(std::size_t v, Bundle t, double sign) {
    const int k = instance_.num_channels();
    const auto& graph = instance_.graph();
    const std::size_t n = instance_.num_bidders();
    for (int j = 0; j < k; ++j) {
      if (!bundle_has(t, j)) continue;
      for (std::size_t u = 0; u < n; ++u) {
        if (u == v) continue;
        const double w_vu = graph.weight(v, u);
        if (w_vu > 0.0) {
          incoming_[u * static_cast<std::size_t>(k) +
                    static_cast<std::size_t>(j)] += sign * w_vu;
        }
      }
    }
  }

  const AuctionInstance& instance_;
  std::vector<double> incoming_;  ///< (vertex, channel) incoming weight
};

}  // namespace

ExactResult solve_exact(const AuctionInstance& instance, ExactOptions options) {
  if (instance.num_channels() > options.max_channels) {
    throw std::invalid_argument("solve_exact: too many channels for B&B");
  }
  return detail::branch_and_bound(instance, options,
                                  IncomingWeightFit(instance));
}

}  // namespace ssa
