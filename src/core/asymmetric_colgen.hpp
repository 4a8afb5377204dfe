#pragma once
/// \file asymmetric_colgen.hpp
/// Demand-oracle column generation for asymmetric (Section 6) instances --
/// the decomposition that lifts the explicit-enumeration cap
/// (AsymmetricInstance::kExplicitChannelLimit) and admits weighted
/// per-channel graphs. The restricted master carries the same rows as
/// solve_asymmetric_lp (n*k interference rows at rho, n convexity rows at
/// 1); columns arrive from a per-bidder demand oracle priced with
/// p_{v,j} = sum over forward neighbors u in graph j of wbar_j(v,u) *
/// y_{u,j} (Section 2.2 transplanted to per-channel graphs; the greedy
/// demand view follows Hoefer-Kesselheim's submodular treatment,
/// arXiv:1110.5753). Equivalently, each generated column is a Benders
/// feasibility cut on the dual -- the loop itself lives in lp/benders.hpp.
///
/// Warm starts: a donor run's generated columns plus terminal basis form
/// an AsymmetricColumnPool, keyed by structural_fingerprint in the
/// service's per-shard ColumnPoolCache. Seeding a churn variant's master
/// with the donor pool collapses the oracle loop to the handful of rounds
/// that churn actually changed, and the donor basis warm-starts the first
/// master solve (composing with PR 8's basis reuse).
///
/// Payload identity (warm == cold, bitwise): for k <=
/// kLiftedDemandChannels both the master objective AND the oracle use the
/// shared symmetry-breaking lift (lifted_value in auction_lp.hpp), making
/// the LP optimum generically unique, and the oracle separates at the
/// engine's own tolerance so warm and cold runs terminate at the same
/// vertex. The returned solution is then extracted from a final canonical
/// re-solve: a fresh LP over exactly the terminal support columns in
/// sorted (bidder, bundle) order, solved cold -- warm and cold runs that
/// agree on the support set solve literally the same LP and return
/// bitwise-identical objectives and weights, regardless of column arrival
/// order. Beyond kLiftedDemandChannels the oracle falls back to the
/// valuation's own (unlifted) demand closed form and identity is only
/// generic, exactly like the symmetric colgen path.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/asymmetric.hpp"
#include "core/auction_lp.hpp"
#include "lp/benders.hpp"

namespace ssa {

/// A donor run's column pool: the (bidder, bundle) meanings of every
/// master column it generated plus its terminal simplex basis. Runtime
/// only -- never serialized, never snapshotted (like BasisSnapshot, it is
/// an in-memory warm-start artifact keyed by structural fingerprint).
struct AsymmetricColumnPool {
  std::vector<std::pair<std::uint32_t, Bundle>> columns;
  lp::BasisSnapshot basis;
  std::uint32_t num_bidders = 0;
  int num_channels = 0;

  [[nodiscard]] bool empty() const noexcept { return columns.empty(); }
};

/// Diagnostics of one colgen solve (SolveReport surfaces rounds/columns).
struct AsymmetricColGenStats {
  int rounds = 0;
  int columns_generated = 0;  ///< oracle columns only; pool seeds excluded
  bool proved_optimal = false;
  bool pool_warm_started = false;  ///< a compatible donor pool seeded the master
  long long pivots = 0;            ///< main loop + final canonical re-solve
};

/// Bundle-enumeration ceiling of the exact LIFTED demand oracle; above it
/// the oracle delegates to Valuation::demand closed forms (unlifted).
inline constexpr int kLiftedDemandChannels = 20;

/// The pricing-round cap is lp::BendersOptions' default.
struct AsymmetricColGenOptions {
  lp::SimplexOptions simplex = {};
  /// Donor pool to seed the master with; ignored when its dimensions do
  /// not match the instance. The donor basis warm-starts the first solve
  /// (cold fallback on any incompatibility).
  const AsymmetricColumnPool* pool = nullptr;
  /// When non-null, receives this run's full column set and terminal
  /// basis for banking (cleared when the solve did not reach optimality).
  AsymmetricColumnPool* pool_export = nullptr;
};

/// Master rows of the asymmetric LP: n*k interference rows "(u, j) <= rho"
/// followed by n convexity rows "sum_T x_{v,T} <= 1" (no columns).
[[nodiscard]] lp::LinearProgram build_asymmetric_master_rows(
    const AsymmetricInstance& instance);

/// Column entries of variable (v, T) against the per-channel graphs:
/// wbar_j(v, u) in row (u, j) for forward neighbors u and j in T, plus the
/// convexity row of v.
[[nodiscard]] std::vector<lp::ColumnEntry> asymmetric_bundle_column(
    const AsymmetricInstance& instance, int bidder, Bundle bundle);

/// Solves the asymmetric LP by demand-oracle column generation; works for
/// any k <= AsymmetricInstance::kMaxChannels and for weighted per-channel
/// graphs. For k <= kLiftedDemandChannels the objective is lifted
/// (generically unique optimum; the reported value exceeds the true LP
/// value by at most kTiebreakScale relative and stays a valid upper bound
/// on the integral optimum).
[[nodiscard]] FractionalSolution solve_asymmetric_lp_colgen(
    const AsymmetricInstance& instance, AsymmetricColGenStats* stats = nullptr,
    const AsymmetricColGenOptions& options = {});

/// Deterministic integral allocation from a fractional support: columns in
/// decreasing x * value order (stable on ties), each accepted when its
/// bundle fits the per-channel graphs under the conservative binary
/// conflict check (never infeasible; on weighted graphs it may leave
/// weighted-feasible value on the table, like the greedy baselines). The
/// weighted-instance rounding stage of the colgen solver: randomized
/// rounding's survival analysis needs unweighted graphs, this does not --
/// and it is a pure function of the fractional payload, so pool-warm and
/// cold runs allocate identically.
[[nodiscard]] Allocation greedy_fit_from_columns(
    const AsymmetricInstance& instance,
    const std::vector<FractionalColumn>& columns);

}  // namespace ssa
