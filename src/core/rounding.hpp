#pragma once
/// \file rounding.hpp
/// The paper's LP-rounding algorithms.
///
///  - Algorithm 1 (unweighted): split the LP solution into bundles of size
///    <= sqrt(k) and > sqrt(k); round each vertex independently with
///    probability x_{v,T} / (2 sqrt(k) rho); resolve conflicts toward the
///    pi-earlier vertex. Expected welfare >= b* / (8 sqrt(k) rho) (Thm 3).
///  - Algorithm 2 (weighted): probabilities x_{v,T} / (4 sqrt(k) rho) and
///    partial conflict resolution (drop v when the incoming symmetric
///    weight from earlier vertices sharing a channel reaches 1/2), giving a
///    partly-feasible allocation, Eq. (5); >= b*/(16 sqrt(k) rho) (Lem 7).
///  - Algorithm 3: turns a partly-feasible allocation into a feasible one,
///    losing at most a ceil(log n) factor (Lemma 8).
///
/// On top: best-of-R Monte-Carlo wrapper (parallelized) and the
/// deterministic pairwise-independent-seed variant mentioned in Section 5.

#include <cstdint>

#include "core/auction_lp.hpp"
#include "core/instance.hpp"
#include "support/deadline.hpp"
#include "support/pairwise.hpp"
#include "support/random.hpp"

namespace ssa {

/// Algorithm 1. Requires an unweighted instance.
[[nodiscard]] Allocation round_unweighted(const AuctionInstance& instance,
                                          const FractionalSolution& fractional,
                                          Rng& rng);

/// Algorithm 2: returns a partly-feasible allocation (Eq. (5) holds).
[[nodiscard]] Allocation round_weighted_partial(
    const AuctionInstance& instance, const FractionalSolution& fractional,
    Rng& rng);

/// Condition (5): incoming symmetric weight from pi-earlier vertices
/// sharing a channel is < 1/2 for every vertex.
[[nodiscard]] bool is_partly_feasible(const AuctionInstance& instance,
                                      const Allocation& allocation);

/// Algorithm 3: decomposes a partly-feasible allocation into <= ceil(log n)
/// feasible candidates and returns the best.
[[nodiscard]] Allocation finalize_partial(const AuctionInstance& instance,
                                          const Allocation& partial);

/// One full rounding pass: Algorithm 1 for unweighted instances, Algorithms
/// 2 + 3 for weighted ones.
[[nodiscard]] Allocation round_once(const AuctionInstance& instance,
                                    const FractionalSolution& fractional,
                                    Rng& rng);

/// Best of \p repetitions independent rounding passes (parallel, but
/// deterministic for a fixed \p seed regardless of thread count as long as
/// \p deadline does not fire). Repetition 0 always runs so the result is a
/// feasible allocation even under an expired deadline; repetitions skipped
/// after expiry set *\p timed_out (when non-null) -- a truncated run is
/// reported, never silent.
[[nodiscard]] Allocation best_of_rounds(const AuctionInstance& instance,
                                        const FractionalSolution& fractional,
                                        int repetitions, std::uint64_t seed,
                                        const Deadline& deadline = {},
                                        bool* timed_out = nullptr);

/// Deterministic rounding: evaluates every seed of a pairwise-independent
/// family (per-vertex thresholds quantized to multiples of 1/p) and keeps
/// the best allocation. The family average matches the randomized bound up
/// to the 1/p quantization, so the maximum attains it.
[[nodiscard]] Allocation derandomized_round(const AuctionInstance& instance,
                                            const FractionalSolution& fractional,
                                            const PairwiseFamily& family);

}  // namespace ssa
