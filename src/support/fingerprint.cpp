#include "support/fingerprint.hpp"

#include <bit>
#include <cstdio>

namespace ssa {
namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// All conflict data of one graph: size, then (u, v, weight) for every
/// non-zero directed weight in row-major order. Hashing only the non-zeros
/// keeps dense-but-sparse graphs cheap; the (u, v) coordinates make the
/// encoding prefix-free per graph once the size is mixed first.
void mix_graph(FingerprintHasher& hasher, const ConflictGraph& graph) {
  hasher.mix(graph.size());
  for (std::size_t u = 0; u < graph.size(); ++u) {
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const double w = graph.weight(u, v);
      if (w != 0.0) {
        hasher.mix(u);
        hasher.mix(v);
        hasher.mix(w);
      }
    }
  }
}

void mix_ordering(FingerprintHasher& hasher, const Ordering& order) {
  hasher.mix(order.size());
  for (const int v : order) hasher.mix(v);
}

/// Value table of one valuation over k channels: exhaustive for small k,
/// singletons + full bundle + a fixed pseudo-random sample beyond that
/// (see the header for the collision semantics).
void mix_valuation(FingerprintHasher& hasher, const Valuation& valuation,
                   int k) {
  hasher.mix(k);
  const Bundle full = static_cast<Bundle>((1ull << k) - 1);
  if (k <= kExhaustiveChannels) {
    for (Bundle t = 1; t <= full; ++t) hasher.mix(valuation.value(t));
    return;
  }
  for (int j = 0; j < k; ++j) {
    hasher.mix(valuation.value(static_cast<Bundle>(1u) << j));
  }
  hasher.mix(valuation.value(full));
  std::uint64_t state = 0x5eedful;
  for (int s = 0; s < kSampledBundles; ++s) {
    state = mix64(state + 0x9e3779b97f4a7c15ull);
    const Bundle t = static_cast<Bundle>(state) & full;
    if (t != kEmptyBundle) hasher.mix(valuation.value(t));
  }
}

void mix_valuations(FingerprintHasher& hasher,
                    const std::vector<ValuationPtr>& valuations, int k) {
  hasher.mix(valuations.size());
  for (const ValuationPtr& valuation : valuations) {
    mix_valuation(hasher, *valuation, k);
  }
}

/// Mixes every bidder's valuation support (which bundles have positive
/// value), packed 64 bundles per mixed word; nothing beyond
/// kExhaustiveChannels (see the structural fingerprints below).
template <typename Instance>
void mix_supports(FingerprintHasher& hasher, const Instance& instance) {
  if (instance.num_channels() > kExhaustiveChannels) return;
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    std::uint64_t word = 0;
    int filled = 0;
    for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
      word = (word << 1) | (instance.value(v, t) > 0.0 ? 1u : 0u);
      if (++filled == 64) {
        hasher.mix(word);
        word = 0;
        filled = 0;
      }
    }
    if (filled > 0) hasher.mix(word);
  }
}

}  // namespace

std::string Fingerprint::hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buffer);
}

void FingerprintHasher::mix_word(std::uint64_t value) noexcept {
  // Two decorrelated lanes: lane a chains through the finalizer, lane b is
  // a Weyl-sequence accumulator over the finalized inputs. Together they
  // behave as one 128-bit state for the collision rates that matter here.
  a_ = mix64(a_ ^ value);
  b_ = mix64(b_ + 0x9e3779b97f4a7c15ull + mix64(value));
}

void FingerprintHasher::mix(double value) noexcept {
  if (value == 0.0) value = 0.0;  // collapse -0.0 onto +0.0
  mix(std::bit_cast<std::uint64_t>(value));
}

void FingerprintHasher::mix(std::string_view text) noexcept {
  mix(text.size());
  std::uint64_t word = 0;
  int filled = 0;
  for (const char c : text) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++filled == 8) {
      mix(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) mix(word);
}

Fingerprint FingerprintHasher::digest() const noexcept {
  // Cross-finalize so hi depends on both lanes (and likewise lo).
  return Fingerprint{mix64(a_ + b_), mix64(b_ ^ (a_ << 1 | a_ >> 63))};
}

Fingerprint fingerprint(const AuctionInstance& instance) {
  FingerprintHasher hasher;
  hasher.mix(std::string_view("symmetric"));
  hasher.mix(instance.num_bidders());
  hasher.mix(instance.num_channels());
  hasher.mix(instance.rho());
  mix_ordering(hasher, instance.order());
  mix_graph(hasher, instance.graph());
  mix_valuations(hasher, instance.valuations(), instance.num_channels());
  return hasher.digest();
}

Fingerprint fingerprint(const AsymmetricInstance& instance) {
  FingerprintHasher hasher;
  hasher.mix(std::string_view("asymmetric"));
  hasher.mix(instance.num_bidders());
  hasher.mix(instance.num_channels());
  hasher.mix(instance.rho());
  mix_ordering(hasher, instance.order());
  for (const ConflictGraph& graph : instance.graphs()) {
    mix_graph(hasher, graph);
  }
  mix_valuations(hasher, instance.valuations(), instance.num_channels());
  return hasher.digest();
}

Fingerprint fingerprint(const AnyInstance& instance) {
  if (instance.is_symmetric()) return fingerprint(instance.symmetric());
  if (instance.is_asymmetric()) return fingerprint(instance.asymmetric());
  FingerprintHasher hasher;
  hasher.mix(std::string_view("empty"));
  return hasher.digest();
}

Fingerprint structural_fingerprint(const AuctionInstance& instance) {
  FingerprintHasher hasher;
  hasher.mix(std::string_view("symmetric-structure"));
  hasher.mix(instance.num_bidders());
  hasher.mix(instance.num_channels());
  hasher.mix(instance.rho());
  mix_ordering(hasher, instance.order());
  mix_graph(hasher, instance.graph());
  // The explicit LP emits one column per positive-value bundle
  // (solve_auction_lp skips zeros), so two instances only share a
  // constraint matrix when their valuation SUPPORTS match too -- values
  // may differ, the zero/nonzero pattern may not. Beyond
  // kExhaustiveChannels the explicit LP refuses
  // anyway (column generation owns those instances, and generated columns
  // carry no reusable basis), so the support is left out of the hash.
  mix_supports(hasher, instance);
  return hasher.digest();
}

Fingerprint structural_fingerprint(const AsymmetricInstance& instance) {
  FingerprintHasher hasher;
  hasher.mix(std::string_view("asymmetric-structure"));
  hasher.mix(instance.num_bidders());
  hasher.mix(instance.num_channels());
  hasher.mix(instance.rho());
  mix_ordering(hasher, instance.order());
  for (const ConflictGraph& graph : instance.graphs()) {
    mix_graph(hasher, graph);
  }
  // Same support-pattern rule as the symmetric family: both the explicit
  // asymmetric LP and the column-generation master emit columns only for
  // positive-value bundles, so structural equality requires equal
  // zero/nonzero supports (values may still differ -- churn variants
  // rescale, they do not move zeros). Beyond kExhaustiveChannels the
  // support is left out: the column pool filters zero-value seeds on
  // reuse, so a support mismatch there degrades the warm start without
  // affecting correctness.
  mix_supports(hasher, instance);
  return hasher.digest();
}

Fingerprint structural_fingerprint(const AnyInstance& instance) {
  if (instance.is_symmetric()) {
    return structural_fingerprint(instance.symmetric());
  }
  if (instance.is_asymmetric()) {
    return structural_fingerprint(instance.asymmetric());
  }
  FingerprintHasher hasher;
  hasher.mix(std::string_view("empty-structure"));
  return hasher.digest();
}

}  // namespace ssa
