#include "service/selection_policy.hpp"

namespace ssa::service {

std::vector<std::string> DefaultSelectionPolicy::chain(
    const std::string& requested, const AnyInstance& instance,
    const SolveOptions& /*options*/) const {
  if (requested != kAutoSolver) {
    // Explicit requests are a contract: run that solver, surface its error.
    return {requested};
  }
  if (instance.empty()) {
    // Nothing to inspect; let the primary solver report the empty view.
    return {"greedy-value"};
  }

  const bool small =
      instance.num_bidders() <= reach_.max_bidders &&
      instance.num_channels() <= reach_.max_channels;

  std::vector<std::string> chain;
  if (instance.is_asymmetric()) {
    const bool explicit_ok = instance.num_channels() <= kExplicitChannelLimit;
    if (small) chain.push_back("asymmetric-exact");
    // The Section 6 rounding is proven for unweighted per-channel graphs
    // only; on weighted instances it would reject, so skip it up front.
    // Its explicit LP additionally caps the channel count.
    if (instance.unweighted() && explicit_ok) {
      chain.push_back("asymmetric-lp-rounding");
    }
    // The decomposition path covers what the explicit solvers cannot:
    // weighted graphs and k beyond the enumeration cap.
    chain.push_back("asymmetric-colgen");
    if (explicit_ok) {
      chain.push_back("asymmetric-greedy-density");
      chain.push_back("asymmetric-greedy-value");
    }
    return chain;
  }

  if (small) chain.push_back("exact");
  if (instance.num_channels() == 1 && instance.unweighted()) {
    chain.push_back("local-ratio-k1");  // factor rho, cheaper than the LP
  }
  chain.push_back("lp-rounding");
  chain.push_back("greedy-density");
  chain.push_back("greedy-value");
  return chain;
}

}  // namespace ssa::service
