#pragma once
/// \file auction_lp.hpp
/// The paper's LP relaxations (1) (unweighted) and (4) (edge-weighted) in
/// one builder: the coefficient of column (v, T) in row (u, j) is
/// wbar(v, u) when pi(v) < pi(u) and j in T (in unweighted graphs wbar is 1
/// on edges), the per-bidder convexity row caps sum_T x_{v,T} at 1, and the
/// (u, j) rows have right-hand side rho. LP (1)/(4) is the Section-6 LP
/// with wbar_j = wbar on every channel, so each builder below reads channel
/// j's graph through instance.graph(j) and serves AuctionInstance and
/// AsymmetricInstance alike.
///
/// Two solution paths:
///  - explicit: enumerate all 2^k - 1 bundles per bidder
///    (k <= kExplicitChannelLimit);
///  - column generation with demand oracles (Section 2.2): bidder-specific
///    prices p_{v,j} = sum_{u: v in Gamma_pi(u)} wbar_j(v,u) * y_{u,j}
///    (bidder_prices) turn the dual separation problem into a demand
///    query.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "lp/benders.hpp"
#include "lp/lp_model.hpp"

namespace ssa {

class AsymmetricInstance;

/// One non-zero of the fractional allocation.
struct FractionalColumn {
  int bidder = 0;
  Bundle bundle = kEmptyBundle;
  double x = 0.0;
};

/// Fractional optimum of LP (1)/(4).
struct FractionalSolution {
  lp::SolveStatus status = lp::SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<FractionalColumn> columns;  ///< x > 0 entries only
  /// Simplex pivots spent producing this solution. An in-process run
  /// diagnostic, NOT part of the payload: the wire/snapshot codec skips it
  /// (SolveReport::pivots is the serialized counterpart) and payload
  /// equality ignores it -- warm and cold solves of one instance disagree
  /// here by design while agreeing on everything above.
  long long pivots = 0;
};

/// Warm-start side channel of the explicit LP path. Runtime-only: never
/// serialized, never part of a cache key. `hint`, when set, is installed
/// by the engine (falling back to a cold solve on any incompatibility --
/// the payload is warm/cold-invariant, see lp/simplex.hpp); `exported`,
/// when set, receives the optimal basis of this solve; and
/// `columns_per_bidder`, when set, receives each bidder's structural
/// column span, which is what the delta remaps below consume.
struct LpWarmStart {
  const lp::BasisSnapshot* hint = nullptr;
  lp::BasisSnapshot* exported = nullptr;                     ///< out
  std::vector<std::uint32_t>* columns_per_bidder = nullptr;  ///< out
  bool warm_started = false;                                 ///< out
};

/// Row index of constraint (u, j) in the master LP (needed by extensions).
[[nodiscard]] constexpr int channel_row(std::size_t u, int j, int k) {
  return static_cast<int>(u) * k + j;
}

/// Deterministic unit in [0, 1) from (bidder, bundle) -- a splitmix64 mix.
/// The shared ingredient of the symmetry-breaking lift below; exposed so
/// the asymmetric column-generation path (asymmetric_colgen.cpp) lifts its
/// master AND its pricing oracle with the exact same per-column unit.
[[nodiscard]] double tiebreak_unit(std::size_t v, Bundle t);

/// Relative scale of the symmetry-breaking lift. Must exceed the engine's
/// optimality tolerance (1e-9) by enough that a previously tied vertex
/// shows a strictly improving reduced cost, and stay far inside every
/// consumer's comparison tolerance (colgen equality allows 1e-6 relative):
/// the lift moves the reported LP value by at most kTiebreakScale relative.
inline constexpr double kTiebreakScale = 1e-7;

/// Objective coefficient of column (v, t) under the symmetry-breaking
/// lift: \p value plus a deterministic per-column relative bump. The lift
/// only ever INCREASES a coefficient, so a lifted LP value stays a valid
/// upper bound on the integral optimum; it depends only on (bidder,
/// bundle), so churn variants of one structure are lifted identically and
/// basis/column-pool reuse is unaffected.
[[nodiscard]] inline double lifted_value(double value, std::size_t v,
                                         Bundle t) {
  return value * (1.0 + kTiebreakScale * tiebreak_unit(v, t));
}

/// Builds the master LP rows (no columns) for an instance: n*k rows
/// "(u,j) <= rho" followed by n rows "sum_T x_{v,T} <= 1".
[[nodiscard]] lp::LinearProgram build_master_rows(const AuctionInstance& instance);
[[nodiscard]] lp::LinearProgram build_master_rows(
    const AsymmetricInstance& instance);

/// Column entries of variable (v, T) for the master LP: wbar_j(v, u) in
/// row (u, j) for every forward neighbor u of v in channel j's graph and
/// j in T, plus the convexity row of v. The entry order is unspecified;
/// LinearProgram::add_column normalizes it.
[[nodiscard]] std::vector<lp::ColumnEntry> bundle_column(
    const AuctionInstance& instance, int bidder, Bundle bundle);
[[nodiscard]] std::vector<lp::ColumnEntry> bundle_column(
    const AsymmetricInstance& instance, int bidder, Bundle bundle);

/// Bidder-specific prices of Section 2.2 from master row duals:
/// prices[j] = sum over forward neighbors u of v in channel j's graph of
/// wbar_j(v, u) * y_{u,j}, summed in ascending u. \p prices is resized
/// to k.
void bidder_prices(const AuctionInstance& instance,
                   std::span<const double> duals, std::size_t v,
                   std::vector<double>& prices);
void bidder_prices(const AsymmetricInstance& instance,
                   std::span<const double> duals, std::size_t v,
                   std::vector<double>& prices);

/// The (bidder, bundle) pair a master column stands for.
using ColumnMeaning = std::pair<int, Bundle>;

/// The FractionalSolution of a master solve whose column c means
/// meaning[c]: status, objective, pivots and, when optimal, every column
/// with x > 1e-9.
[[nodiscard]] FractionalSolution extract_fractional(
    const lp::Solution& solution, std::span<const ColumnMeaning> meaning);

/// Solves the LP by explicit bundle enumeration; requires
/// k <= kExplicitChannelLimit. Columns with zero value are skipped (they
/// cannot help a packing LP).
/// \p warm, when non-null, threads a basis hint in and the optimal basis
/// out (see LpWarmStart); the result is identical to the cold solve's
/// whenever the optimal vertex is unique.
[[nodiscard]] FractionalSolution solve_auction_lp(
    const AuctionInstance& instance, lp::SimplexOptions options = {},
    LpWarmStart* warm = nullptr);

/// Remaps an optimal basis of instance A into a warm-start hint for A plus
/// one bidder appended as vertex old_n (any ordering position): old channel
/// rows and old structural columns keep their indices, old convexity rows
/// shift past the new bidder's channel rows, and every new row starts with
/// its own slack basic. The delta re-solve path: build the grown LP as
/// usual, install the remapped basis, and let the engine's restricted
/// phase-1 repair absorb the new bidder's rows instead of re-pivoting from
/// scratch. \p old_columns_per_bidder and \p new_bidder_columns are the
/// column spans of the donor solve and of the appended bidder (the latter
/// = the new bidder's positive-value bundles).
[[nodiscard]] lp::BasisSnapshot remap_basis_for_added_bidder(
    const lp::BasisSnapshot& basis, std::size_t old_n, int k,
    const std::vector<std::uint32_t>& old_columns_per_bidder,
    std::uint32_t new_bidder_columns);

/// Remaps an optimal basis of instance A into a warm-start hint for A with
/// bidder \p removed truly dropped from the graph, later vertices shifted
/// down by one. (Note this is NOT AuctionInstance::without_bidder, which
/// zeroes the valuation but keeps the vertex and all its LP rows; the
/// delta helpers model a bidder set that actually changed size.) The
/// removed bidder's columns and
/// rows leave the basis; every orphaned basis position falls back to the
/// slack of its row, and install-time validation re-repairs the rest.
[[nodiscard]] lp::BasisSnapshot remap_basis_for_removed_bidder(
    const lp::BasisSnapshot& basis, std::size_t old_n, int k, int removed,
    const std::vector<std::uint32_t>& old_columns_per_bidder);

/// Statistics of a column-generation solve (E6 measures these; the
/// symmetric and the Section-6 colgen paths both report through it).
struct ColGenStats {
  int rounds = 0;
  int columns_generated = 0;  ///< oracle columns only; pool seeds excluded
  bool proved_optimal = false;
  bool pool_warm_started = false;  ///< a compatible donor pool seeded the master
  long long pivots = 0;            ///< every simplex pivot of the solve
};

/// Solves the LP with demand-oracle column generation (the unseeded,
/// unhinted lp::solve_with_benders loop); works for any k.
[[nodiscard]] FractionalSolution solve_auction_lp_colgen(
    const AuctionInstance& instance, ColGenStats* stats = nullptr,
    lp::BendersOptions options = {});

}  // namespace ssa
