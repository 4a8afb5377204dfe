#include "core/auction_lp.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace ssa {

lp::LinearProgram build_master_rows(const AuctionInstance& instance) {
  lp::LinearProgram master(lp::Objective::kMaximize);
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  for (std::size_t u = 0; u < n; ++u) {
    for (int j = 0; j < k; ++j) {
      master.add_row(lp::RowSense::kLessEqual, instance.rho());
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    master.add_row(lp::RowSense::kLessEqual, 1.0);
  }
  return master;
}

std::vector<lp::ColumnEntry> bundle_column(const AuctionInstance& instance,
                                           int bidder, Bundle bundle) {
  if (bundle == kEmptyBundle) {
    throw std::invalid_argument("bundle_column: empty bundle has no column");
  }
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();
  const std::size_t v = static_cast<std::size_t>(bidder);

  std::vector<lp::ColumnEntry> entries;
  // Interference rows: (u, j) for forward neighbors u of v and j in T.
  for (int u : graph.neighbors(v)) {
    if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
    const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
    if (wbar <= 0.0) continue;
    for (int j = 0; j < k; ++j) {
      if (bundle_has(bundle, j)) {
        entries.push_back({channel_row(static_cast<std::size_t>(u), j, k), wbar});
      }
    }
  }
  // Convexity row of bidder v.
  entries.push_back({static_cast<int>(n) * k + bidder, 1.0});
  return entries;
}

double tiebreak_unit(std::size_t v, Bundle t) {
  std::uint64_t x = (static_cast<std::uint64_t>(v) << 32) ^
                    (static_cast<std::uint64_t>(t) + 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

namespace {

/// Objective coefficient of column (v, t) in the EXPLICIT master:
/// b_{v,T} under the shared symmetry-breaking lift (lifted_value in the
/// header). Auction instances carry exactly tied alternate optima for real
/// (equal-value bundles of one bidder), and the warm-start contract
/// requires cold and warm solves to terminate at the SAME optimal vertex
/// from any starting basis -- a generically unique optimum is what makes
/// the terminal vertex start-independent. The SYMMETRIC column-generation
/// path below is left unlifted: its demand oracle prices columns with the
/// true values, and a lifted master under an unlifted oracle could
/// terminate epsilon-short of lifted-optimal. Explicit and colgen
/// objectives therefore differ by <= kTiebreakScale relative
/// (tests/test_auction_lp.cpp compares them within 1e-6). The asymmetric
/// colgen path lifts BOTH master and oracle instead -- see
/// asymmetric_colgen.cpp.
[[nodiscard]] double explicit_objective(const AuctionInstance& instance,
                                        std::size_t v, Bundle t) {
  return lifted_value(instance.value(v, t), v, t);
}

FractionalSolution extract(const AuctionInstance& instance,
                           const lp::Solution& solution,
                           const std::vector<std::pair<int, Bundle>>& meaning) {
  FractionalSolution result;
  result.status = solution.status;
  result.objective = solution.objective;
  result.pivots = solution.pivots;
  if (solution.status != lp::SolveStatus::kOptimal) return result;
  for (std::size_t j = 0; j < meaning.size(); ++j) {
    if (solution.x[j] > 1e-9) {
      result.columns.push_back(FractionalColumn{
          meaning[j].first, meaning[j].second, solution.x[j]});
    }
  }
  (void)instance;
  return result;
}

}  // namespace

FractionalSolution solve_auction_lp(const AuctionInstance& instance,
                                    lp::SimplexOptions options,
                                    LpWarmStart* warm) {
  const int k = instance.num_channels();
  if (k > 12) {
    throw std::invalid_argument(
        "solve_auction_lp: explicit enumeration limited to k <= 12; use "
        "solve_auction_lp_colgen");
  }
  lp::LinearProgram master = build_master_rows(instance);
  std::vector<std::pair<int, Bundle>> meaning;
  if (warm != nullptr && warm->columns_per_bidder != nullptr) {
    warm->columns_per_bidder->assign(instance.num_bidders(), 0);
  }
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      if (instance.value(v, t) <= 0.0) continue;
      master.add_column(explicit_objective(instance, v, t),
                        bundle_column(instance, static_cast<int>(v), t));
      meaning.emplace_back(static_cast<int>(v), t);
      if (warm != nullptr && warm->columns_per_bidder != nullptr) {
        ++(*warm->columns_per_bidder)[v];
      }
    }
  }
  lp::SimplexEngine engine(options);
  lp::Solution solution;
  bool warm_used = false;
  if (warm != nullptr && warm->hint != nullptr && !warm->hint->empty()) {
    solution = engine.solve(master, *warm->hint, &warm_used);
  } else {
    solution = engine.solve(master);
  }
  if (warm != nullptr) {
    warm->warm_started = warm_used;
    if (warm->exported != nullptr &&
        solution.status == lp::SolveStatus::kOptimal) {
      *warm->exported = engine.export_basis();
    }
  }
  return extract(instance, solution, meaning);
}

namespace {

/// Slack-of-row snapshot entry (the cold default of a basis position).
[[nodiscard]] lp::BasisSnapshot::Entry slack_entry(std::int32_t row) {
  return {lp::BasisSnapshot::Kind::kSlack, row};
}

}  // namespace

lp::BasisSnapshot remap_basis_for_added_bidder(
    const lp::BasisSnapshot& basis, std::size_t old_n, int k,
    const std::vector<std::uint32_t>& old_columns_per_bidder,
    std::uint32_t new_bidder_columns) {
  const std::size_t old_rows = old_n * static_cast<std::size_t>(k) + old_n;
  std::uint32_t old_structurals = 0;
  for (const std::uint32_t count : old_columns_per_bidder) {
    old_structurals += count;
  }
  if (basis.rows != old_rows || basis.structurals != old_structurals ||
      old_columns_per_bidder.size() != old_n) {
    throw std::invalid_argument(
        "remap_basis_for_added_bidder: snapshot does not match the donor "
        "instance's dimensions");
  }
  // Row remap: channel rows (u, j) with u < old_n keep their index; the
  // convexity row of v moves from old_n*k + v to (old_n+1)*k + v.
  const auto remap_row = [&](std::int32_t row) {
    const std::int32_t channel_rows =
        static_cast<std::int32_t>(old_n) * static_cast<std::int32_t>(k);
    if (row < channel_rows) return row;
    return row + static_cast<std::int32_t>(k);
  };

  lp::BasisSnapshot grown;
  grown.rows = static_cast<std::uint32_t>((old_n + 1) * static_cast<std::size_t>(k) +
                                          old_n + 1);
  grown.structurals = old_structurals + new_bidder_columns;
  grown.basic.resize(grown.rows);
  // Every position starts as its row's slack: the new bidder's channel and
  // convexity rows come up slack-basic and the install-time repair absorbs
  // whatever interference the old allocation pushes onto them.
  for (std::uint32_t i = 0; i < grown.rows; ++i) {
    grown.basic[i] = slack_entry(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < basis.basic.size(); ++i) {
    lp::BasisSnapshot::Entry entry = basis.basic[i];
    if (entry.kind != lp::BasisSnapshot::Kind::kStructural) {
      entry.index = remap_row(entry.index);
    }
    grown.basic[static_cast<std::size_t>(
        remap_row(static_cast<std::int32_t>(i)))] = entry;
  }
  return grown;
}

lp::BasisSnapshot remap_basis_for_removed_bidder(
    const lp::BasisSnapshot& basis, std::size_t old_n, int k, int removed,
    const std::vector<std::uint32_t>& old_columns_per_bidder) {
  const std::size_t old_rows = old_n * static_cast<std::size_t>(k) + old_n;
  std::uint32_t old_structurals = 0;
  for (const std::uint32_t count : old_columns_per_bidder) {
    old_structurals += count;
  }
  if (basis.rows != old_rows || basis.structurals != old_structurals ||
      old_columns_per_bidder.size() != old_n || removed < 0 ||
      static_cast<std::size_t>(removed) >= old_n) {
    throw std::invalid_argument(
        "remap_basis_for_removed_bidder: snapshot does not match the donor "
        "instance's dimensions");
  }
  const std::size_t new_n = old_n - 1;
  // Column spans per bidder in the donor's structural numbering.
  std::vector<std::uint32_t> start(old_n + 1, 0);
  for (std::size_t v = 0; v < old_n; ++v) {
    start[v + 1] = start[v] + old_columns_per_bidder[v];
  }
  const auto remap_column = [&](std::int32_t column) -> std::int32_t {
    const std::uint32_t c = static_cast<std::uint32_t>(column);
    if (c < start[static_cast<std::size_t>(removed)]) return column;
    if (c < start[static_cast<std::size_t>(removed) + 1]) return -1;
    return column - static_cast<std::int32_t>(
                        old_columns_per_bidder[static_cast<std::size_t>(removed)]);
  };
  const auto remap_row = [&](std::int32_t row) -> std::int32_t {
    const std::int32_t channel_rows =
        static_cast<std::int32_t>(old_n) * static_cast<std::int32_t>(k);
    if (row < channel_rows) {
      const std::int32_t u = row / k;
      if (u < removed) return row;
      if (u == removed) return -1;
      return row - k;
    }
    const std::int32_t v = row - channel_rows;
    if (v < removed) {
      return static_cast<std::int32_t>(new_n) * k + v;
    }
    if (v == removed) return -1;
    return static_cast<std::int32_t>(new_n) * k + v - 1;
  };

  lp::BasisSnapshot shrunk;
  shrunk.rows =
      static_cast<std::uint32_t>(new_n * static_cast<std::size_t>(k) + new_n);
  shrunk.structurals =
      old_structurals - old_columns_per_bidder[static_cast<std::size_t>(removed)];
  shrunk.basic.resize(shrunk.rows);
  for (std::uint32_t i = 0; i < shrunk.rows; ++i) {
    shrunk.basic[i] = slack_entry(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < basis.basic.size(); ++i) {
    const std::int32_t position = remap_row(static_cast<std::int32_t>(i));
    if (position < 0) continue;  // the removed bidder's own rows
    lp::BasisSnapshot::Entry entry = basis.basic[i];
    if (entry.kind == lp::BasisSnapshot::Kind::kStructural) {
      entry.index = remap_column(entry.index);
    } else {
      entry.index = remap_row(entry.index);
    }
    // Orphaned references (the removed bidder's columns or rows) keep the
    // position's slack; install-time repair finishes the job.
    if (entry.index < 0) continue;
    shrunk.basic[static_cast<std::size_t>(position)] = entry;
  }
  return shrunk;
}

FractionalSolution solve_auction_lp_colgen(
    const AuctionInstance& instance, ColGenStats* stats,
    lp::BendersOptions options) {
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const auto& graph = instance.graph();
  const auto& position = instance.positions();

  lp::LinearProgram master = build_master_rows(instance);
  std::vector<std::pair<int, Bundle>> meaning;
  // Track proposed columns to be robust against dual degeneracy.
  std::vector<std::vector<bool>> proposed(
      n, std::vector<bool>(k <= 20 ? num_bundles(k) : 0, false));
  const bool track = k <= 20;

  const lp::PricingOracle oracle =
      [&](const lp::Solution& rmp) -> std::vector<lp::PricedColumn> {
    std::vector<lp::PricedColumn> columns;
    std::vector<double> prices(static_cast<std::size_t>(k), 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      // Bidder-specific prices p_{v,j} = sum over forward neighbors u of
      // wbar(v,u) * y_{u,j} (Section 2.2).
      std::fill(prices.begin(), prices.end(), 0.0);
      for (int u : graph.neighbors(v)) {
        if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
        const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
        if (wbar <= 0.0) continue;
        for (int j = 0; j < k; ++j) {
          prices[static_cast<std::size_t>(j)] +=
              wbar * rmp.duals[static_cast<std::size_t>(
                         channel_row(static_cast<std::size_t>(u), j, k))];
        }
      }
      const DemandResult demand = instance.valuation(v).demand(prices);
      if (demand.bundle == kEmptyBundle) continue;
      const double z_v = rmp.duals[n * static_cast<std::size_t>(k) + v];
      if (demand.utility > z_v + 1e-7) {
        if (track && proposed[v][demand.bundle]) continue;
        if (track) proposed[v][demand.bundle] = true;
        columns.push_back(lp::PricedColumn{
            instance.value(v, demand.bundle),
            bundle_column(instance, static_cast<int>(v), demand.bundle)});
        meaning.emplace_back(static_cast<int>(v), demand.bundle);
      }
    }
    return columns;
  };

  const lp::BendersResult result =
      lp::solve_with_benders(master, oracle, {}, options);
  if (stats != nullptr) {
    stats->rounds = result.rounds;
    stats->columns_generated = result.columns_added;
    stats->proved_optimal = result.proved_optimal;
  }
  return extract(instance, result.solution, meaning);
}

}  // namespace ssa
