#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/best_rounds.hpp"
#include "support/parallel.hpp"

namespace ssa {

namespace {

/// Fractional columns of one bidder restricted to one decomposition half.
struct BidderDistribution {
  std::vector<Bundle> bundles;
  std::vector<double> cumulative;  ///< running sums of x_{v,T} / denominator
};

/// Builds, for l in {0, 1}, the per-bidder sampling distributions of the
/// decomposed solution x^(l): l = 0 keeps |T| <= sqrt(k), l = 1 the rest.
std::vector<std::vector<BidderDistribution>> decompose(
    const AuctionInstance& instance, const FractionalSolution& fractional,
    double denominator) {
  const double sqrt_k = std::sqrt(static_cast<double>(instance.num_channels()));
  std::vector<std::vector<BidderDistribution>> halves(
      2, std::vector<BidderDistribution>(instance.num_bidders()));
  for (const FractionalColumn& column : fractional.columns) {
    const int half = bundle_size(column.bundle) <= sqrt_k + 1e-12 ? 0 : 1;
    BidderDistribution& dist =
        halves[half][static_cast<std::size_t>(column.bidder)];
    const double previous = dist.cumulative.empty() ? 0.0 : dist.cumulative.back();
    dist.bundles.push_back(column.bundle);
    dist.cumulative.push_back(previous + column.x / denominator);
  }
  return halves;
}

/// Samples a bundle from a cumulative distribution with uniform value u.
Bundle sample(const BidderDistribution& dist, double u) {
  for (std::size_t i = 0; i < dist.cumulative.size(); ++i) {
    if (u < dist.cumulative[i]) return dist.bundles[i];
  }
  return kEmptyBundle;
}

/// Tentative allocation for one decomposition half from per-vertex uniforms.
Allocation rounding_stage(const std::vector<BidderDistribution>& dists,
                          std::span<const double> uniforms) {
  Allocation allocation;
  allocation.bundles.resize(dists.size(), kEmptyBundle);
  for (std::size_t v = 0; v < dists.size(); ++v) {
    allocation.bundles[v] = sample(dists[v], uniforms[v]);
  }
  return allocation;
}

/// Symmetric weight v receives from pi-earlier vertices sharing a channel
/// with it (1 per such neighbor on unweighted graphs).
double earlier_incoming(const AuctionInstance& instance,
                        const Allocation& allocation, std::size_t v) {
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  double incoming = 0.0;
  for (int u : graph.neighbors(v)) {
    const std::size_t su = static_cast<std::size_t>(u);
    if (position[su] < position[v] &&
        (allocation.bundles[su] & allocation.bundles[v]) != kEmptyBundle) {
      incoming += graph.coupling_weight(su, v);
    }
  }
  return incoming;
}

/// Algorithm 1 conflict resolution: keep a vertex only when no kept
/// pi-earlier neighbor shares a channel.
void resolve_conflicts_unweighted(const AuctionInstance& instance,
                                  Allocation& allocation) {
  for (int v : instance.order()) {  // ascending pi
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] != kEmptyBundle &&
        earlier_incoming(instance, allocation, sv) > 0.0) {
      allocation.bundles[sv] = kEmptyBundle;
    }
  }
}

/// Algorithm 2 partial conflict resolution: drop a vertex when the incoming
/// symmetric weight from kept pi-earlier vertices sharing a channel reaches
/// 1/2 (Condition (5)).
void resolve_conflicts_partial(const AuctionInstance& instance,
                               Allocation& allocation) {
  for (int v : instance.order()) {  // ascending pi
    const std::size_t sv = static_cast<std::size_t>(v);
    if (allocation.bundles[sv] != kEmptyBundle &&
        earlier_incoming(instance, allocation, sv) >= 0.5) {
      allocation.bundles[sv] = kEmptyBundle;
    }
  }
}

/// Shared skeleton of Algorithms 1 and 2: round both decomposition halves
/// with the given per-vertex uniforms, resolve, return the better result.
template <typename Resolver>
Allocation round_with_uniforms(const AuctionInstance& instance,
                               const FractionalSolution& fractional,
                               double denominator,
                               std::span<const double> uniforms_half0,
                               std::span<const double> uniforms_half1,
                               const Resolver& resolve) {
  const auto halves = decompose(instance, fractional, denominator);
  Allocation best;
  best.bundles.assign(instance.num_bidders(), kEmptyBundle);
  double best_welfare = -1.0;
  for (int half = 0; half < 2; ++half) {
    Allocation candidate = rounding_stage(
        halves[static_cast<std::size_t>(half)],
        half == 0 ? uniforms_half0 : uniforms_half1);
    resolve(instance, candidate);
    const double welfare = instance.welfare(candidate);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best = std::move(candidate);
    }
  }
  return best;
}

std::vector<double> draw_uniforms(Rng& rng, std::size_t n) {
  std::vector<double> uniforms(n);
  for (double& u : uniforms) u = rng.uniform();
  return uniforms;
}

}  // namespace

Allocation round_unweighted(const AuctionInstance& instance,
                            const FractionalSolution& fractional, Rng& rng) {
  if (!instance.unweighted()) {
    throw std::invalid_argument("round_unweighted: instance has edge weights");
  }
  const double denominator =
      2.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
      instance.rho();
  const auto u0 = draw_uniforms(rng, instance.num_bidders());
  const auto u1 = draw_uniforms(rng, instance.num_bidders());
  return round_with_uniforms(instance, fractional, denominator, u0, u1,
                             resolve_conflicts_unweighted);
}

Allocation round_weighted_partial(const AuctionInstance& instance,
                                  const FractionalSolution& fractional,
                                  Rng& rng) {
  const double denominator =
      4.0 * std::sqrt(static_cast<double>(instance.num_channels())) *
      instance.rho();
  const auto u0 = draw_uniforms(rng, instance.num_bidders());
  const auto u1 = draw_uniforms(rng, instance.num_bidders());
  return round_with_uniforms(instance, fractional, denominator, u0, u1,
                             resolve_conflicts_partial);
}

bool is_partly_feasible(const AuctionInstance& instance,
                        const Allocation& allocation) {
  for (std::size_t v = 0; v < allocation.size(); ++v) {
    if (allocation.bundles[v] != kEmptyBundle &&
        earlier_incoming(instance, allocation, v) >= 0.5) {
      return false;
    }
  }
  return true;
}

Allocation finalize_partial(const AuctionInstance& instance,
                            const Allocation& partial) {
  const std::size_t n = instance.num_bidders();
  const auto& graph = instance.graph();

  // Remaining pool V' (vertices not yet placed in any candidate).
  std::vector<bool> remaining(n, false);
  std::size_t remaining_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (partial.bundles[v] != kEmptyBundle) {
      remaining[v] = true;
      ++remaining_count;
    }
  }

  // Descending-pi processing order.
  std::vector<int> descending(instance.order().rbegin(),
                              instance.order().rend());

  Allocation best;
  best.bundles.assign(n, kEmptyBundle);
  double best_welfare = instance.welfare(best);

  const int iteration_cap =
      static_cast<int>(std::ceil(std::log2(std::max<std::size_t>(n, 2)))) + 4;
  for (int iteration = 0; iteration < iteration_cap && remaining_count > 0;
       ++iteration) {
    Allocation candidate;
    candidate.bundles.assign(n, kEmptyBundle);
    for (std::size_t v = 0; v < n; ++v) {
      if (remaining[v]) candidate.bundles[v] = partial.bundles[v];
    }
    const std::size_t before = remaining_count;
    for (int v : descending) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (!remaining[sv] || candidate.bundles[sv] == kEmptyBundle) continue;
      double incoming = 0.0;
      for (int u : graph.neighbors(sv)) {
        const std::size_t su = static_cast<std::size_t>(u);
        if ((candidate.bundles[su] & candidate.bundles[sv]) != kEmptyBundle) {
          incoming += graph.coupling_weight(su, sv);
        }
      }
      if (incoming < 1.0) {
        remaining[sv] = false;  // v is served by this candidate
        --remaining_count;
      } else {
        candidate.bundles[sv] = kEmptyBundle;  // retry in a later candidate
      }
    }
    if (remaining_count == before) break;  // not partly feasible; stop safely
    const double welfare = instance.welfare(candidate);
    if (welfare > best_welfare) {
      best_welfare = welfare;
      best = std::move(candidate);
    }
  }
  return best;
}

Allocation round_once(const AuctionInstance& instance,
                      const FractionalSolution& fractional, Rng& rng) {
  if (instance.unweighted()) {
    return round_unweighted(instance, fractional, rng);
  }
  return finalize_partial(instance,
                          round_weighted_partial(instance, fractional, rng));
}

Allocation best_of_rounds(const AuctionInstance& instance,
                          const FractionalSolution& fractional,
                          int repetitions, std::uint64_t seed,
                          const Deadline& deadline, bool* timed_out) {
  return detail::best_rounds(
      instance.num_bidders(), repetitions, seed, deadline, timed_out,
      [&](Rng& rng) { return round_once(instance, fractional, rng); },
      [&](const Allocation& a) { return instance.welfare(a); });
}

Allocation derandomized_round(const AuctionInstance& instance,
                              const FractionalSolution& fractional,
                              const PairwiseFamily& family) {
  const std::size_t n = instance.num_bidders();
  const double sqrt_k = std::sqrt(static_cast<double>(instance.num_channels()));
  const double denominator = (instance.unweighted() ? 2.0 : 4.0) * sqrt_k *
                             instance.rho();
  const std::uint64_t seeds = family.seed_count();

  // One rounding pass with seed s's per-vertex thresholds.
  const auto round_with_seed = [&](std::uint64_t s) {
    const std::vector<double> uniforms = family.values(s, n);
    if (instance.unweighted()) {
      return round_with_uniforms(instance, fractional, denominator, uniforms,
                                 uniforms, resolve_conflicts_unweighted);
    }
    return finalize_partial(
        instance, round_with_uniforms(instance, fractional, denominator,
                                      uniforms, uniforms,
                                      resolve_conflicts_partial));
  };

  std::vector<double> welfare(seeds, 0.0);
  parallel_for(static_cast<std::ptrdiff_t>(seeds), [&](std::ptrdiff_t s) {
    welfare[static_cast<std::size_t>(s)] =
        instance.welfare(round_with_seed(static_cast<std::uint64_t>(s)));
  });

  std::uint64_t best_seed = 0;
  for (std::uint64_t s = 1; s < seeds; ++s) {
    if (welfare[s] > welfare[best_seed]) best_seed = s;
  }
  return round_with_seed(best_seed);
}

}  // namespace ssa
