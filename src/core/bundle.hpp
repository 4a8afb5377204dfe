#pragma once
/// \file bundle.hpp
/// Channel bundles as bitmasks. Channel j (0-based) is bit j; the library
/// supports up to 30 channels, which the explicit-LP paths further restrict
/// to kExplicitChannelLimit (the demand-oracle paths only ever enumerate
/// per-bidder columns).

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace ssa {

/// Subset of channels [0, k).
using Bundle = std::uint32_t;

/// Upper limit on k imposed by the Bundle representation.
inline constexpr int kMaxChannels = 30;

/// Largest k served by the algorithms that enumerate all 2^k - 1 bundles
/// per bidder: the explicit LPs (solve_auction_lp, solve_asymmetric_lp),
/// the greedy baselines of both families and the mechanism's explicit
/// path. Beyond it only the column-generation solvers serve.
inline constexpr int kExplicitChannelLimit = 12;

/// Empty bundle constant.
inline constexpr Bundle kEmptyBundle = 0;

/// Number of channels in the bundle.
[[nodiscard]] constexpr int bundle_size(Bundle bundle) noexcept {
  return std::popcount(bundle);
}

/// True when channel j is in the bundle.
[[nodiscard]] constexpr bool bundle_has(Bundle bundle, int channel) noexcept {
  return ((bundle >> channel) & 1u) != 0;
}

/// Bundle of all k channels.
[[nodiscard]] constexpr Bundle full_bundle(int k) {
  if (k < 0 || k > kMaxChannels) throw std::invalid_argument("full_bundle: k");
  return k == 0 ? 0u : ((1u << k) - 1u);
}

/// Number of subsets of [0, k) (including the empty one).
[[nodiscard]] constexpr std::uint32_t num_bundles(int k) {
  return full_bundle(k) + 1u;
}

}  // namespace ssa
