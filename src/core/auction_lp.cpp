#include "core/auction_lp.hpp"

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/asymmetric.hpp"

namespace ssa {

namespace {

// One implementation per LP step for both channel models: Instance is
// AuctionInstance (every channel reads the shared graph) or
// AsymmetricInstance (channel j reads its own graph).

template <typename Instance>
lp::LinearProgram master_rows(const Instance& instance) {
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

template <typename Instance>
std::vector<lp::ColumnEntry> column_of(const Instance& instance, int bidder,
                                       Bundle bundle) {
  if (bundle == kEmptyBundle) {
    throw std::invalid_argument("bundle_column: empty bundle has no column");
  }
  const std::size_t n = instance.num_bidders();
  const int k = instance.num_channels();
  const auto& position = instance.positions();
  const std::size_t v = static_cast<std::size_t>(bidder);

  std::vector<lp::ColumnEntry> entries;
  // Interference rows: (u, j) for j in T and forward neighbors u of v in
  // channel j's graph.
  for (int j = 0; j < k; ++j) {
    if (!bundle_has(bundle, j)) continue;
    const ConflictGraph& graph = instance.graph(j);
    for (int u : graph.neighbors(v)) {
      if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
      const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
      if (wbar <= 0.0) continue;
      entries.push_back({channel_row(static_cast<std::size_t>(u), j, k), wbar});
    }
  }
  // Convexity row of bidder v.
  entries.push_back({static_cast<int>(n) * k + bidder, 1.0});
  return entries;
}

template <typename Instance>
void prices_of(const Instance& instance, std::span<const double> duals,
               std::size_t v, std::vector<double>& prices) {
  const int k = instance.num_channels();
  const auto& position = instance.positions();
  prices.resize(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    const ConflictGraph& graph = instance.graph(j);
    double price = 0.0;
    for (int u : graph.neighbors(v)) {
      if (position[static_cast<std::size_t>(u)] <= position[v]) continue;
      const double wbar = graph.coupling_weight(v, static_cast<std::size_t>(u));
      if (wbar <= 0.0) continue;
      price += wbar * duals[static_cast<std::size_t>(
                          channel_row(static_cast<std::size_t>(u), j, k))];
    }
    prices[static_cast<std::size_t>(j)] = price;
  }
}

/// The explicit master: one column per (bidder, bundle) of positive value,
/// costed b_{v,T} (under the symmetry-breaking lift when \p lifted),
/// solved by one engine (with \p warm threading a basis in and out when
/// non-null).
template <typename Instance>
FractionalSolution solve_explicit(const Instance& instance,
                                  lp::SimplexOptions options,
                                  LpWarmStart* warm, bool lifted) {
  const int k = instance.num_channels();
  lp::LinearProgram master = build_master_rows(instance);
  std::vector<ColumnMeaning> meaning;
  std::vector<std::uint32_t>* spans =
      warm != nullptr ? warm->columns_per_bidder : nullptr;
  if (spans != nullptr) spans->assign(instance.num_bidders(), 0);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const double value = instance.value(v, t);
      if (value <= 0.0) continue;
      master.add_column(lifted ? lifted_value(value, v, t) : value,
                        bundle_column(instance, static_cast<int>(v), t));
      meaning.emplace_back(static_cast<int>(v), t);
      if (spans != nullptr) ++(*spans)[v];
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
  return extract_fractional(solution, meaning);
}

}  // namespace

lp::LinearProgram build_master_rows(const AuctionInstance& instance) {
  return master_rows(instance);
}

lp::LinearProgram build_master_rows(const AsymmetricInstance& instance) {
  return master_rows(instance);
}

std::vector<lp::ColumnEntry> bundle_column(const AuctionInstance& instance,
                                           int bidder, Bundle bundle) {
  return column_of(instance, bidder, bundle);
}

std::vector<lp::ColumnEntry> bundle_column(const AsymmetricInstance& instance,
                                           int bidder, Bundle bundle) {
  return column_of(instance, bidder, bundle);
}

void bidder_prices(const AuctionInstance& instance,
                   std::span<const double> duals, std::size_t v,
                   std::vector<double>& prices) {
  prices_of(instance, duals, v, prices);
}

void bidder_prices(const AsymmetricInstance& instance,
                   std::span<const double> duals, std::size_t v,
                   std::vector<double>& prices) {
  prices_of(instance, duals, v, prices);
}

FractionalSolution extract_fractional(const lp::Solution& solution,
                                      std::span<const ColumnMeaning> meaning) {
  FractionalSolution result;
  result.status = solution.status;
  result.objective = solution.objective;
  result.pivots = solution.pivots;
  if (solution.status != lp::SolveStatus::kOptimal) return result;
  for (std::size_t c = 0; c < meaning.size(); ++c) {
    if (solution.x[c] > 1e-9) {
      result.columns.push_back(
          FractionalColumn{meaning[c].first, meaning[c].second, solution.x[c]});
    }
  }
  return result;
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

FractionalSolution solve_auction_lp(const AuctionInstance& instance,
                                    lp::SimplexOptions options,
                                    LpWarmStart* warm) {
  if (instance.num_channels() > kExplicitChannelLimit) {
    throw std::invalid_argument(
        "solve_auction_lp: explicit enumeration limited to k <= " +
        std::to_string(kExplicitChannelLimit) +
        "; use solve_auction_lp_colgen");
  }
  // The objective is b_{v,T} under the shared symmetry-breaking lift
  // (lifted_value in the header). Auction instances carry exactly tied
  // alternate optima for real (equal-value bundles of one bidder), and the
  // warm-start contract requires cold and warm solves to terminate at the
  // SAME optimal vertex from any starting basis -- a generically unique
  // optimum is what makes the terminal vertex start-independent. The
  // SYMMETRIC column-generation path below is left unlifted: its demand
  // oracle prices columns with the true values, and a lifted master under
  // an unlifted oracle could terminate epsilon-short of lifted-optimal.
  // Explicit and colgen objectives therefore differ by <= kTiebreakScale
  // relative (tests/test_auction_lp.cpp compares them within 1e-6). The
  // asymmetric colgen path lifts BOTH master and oracle instead -- see
  // asymmetric_colgen.cpp.
  return solve_explicit(instance, options, warm, /*lifted=*/true);
}

FractionalSolution solve_asymmetric_lp(const AsymmetricInstance& instance,
                                       lp::SimplexOptions options) {
  const int k = instance.num_channels();
  // This path materializes every one of the 2^k - 1 bundles per bidder;
  // beyond the explicit limit the caller must use the demand-oracle
  // column-generation solver (solve_asymmetric_lp_colgen) instead.
  if (k > kExplicitChannelLimit) {
    throw std::invalid_argument(
        "solve_asymmetric_lp: k <= " + std::to_string(kExplicitChannelLimit) +
        " required, got " + std::to_string(k) +
        " (use asymmetric-colgen for larger instances)");
  }
  return solve_explicit(instance, options, nullptr, /*lifted=*/false);
}

namespace {

/// A snapshot whose every basis position holds its row's slack (the cold
/// default of a basis position).
[[nodiscard]] lp::BasisSnapshot slack_basis(std::size_t rows,
                                            std::uint32_t structurals) {
  lp::BasisSnapshot basis;
  basis.rows = static_cast<std::uint32_t>(rows);
  basis.structurals = structurals;
  for (std::uint32_t i = 0; i < basis.rows; ++i) {
    basis.basic.push_back(
        {lp::BasisSnapshot::Kind::kSlack, static_cast<std::int32_t>(i)});
  }
  return basis;
}

}  // namespace

lp::BasisSnapshot remap_basis_for_added_bidder(
    const lp::BasisSnapshot& basis, std::size_t old_n, int k,
    const std::vector<std::uint32_t>& old_columns_per_bidder,
    std::uint32_t new_bidder_columns) {
  const std::size_t old_rows = old_n * static_cast<std::size_t>(k) + old_n;
  const std::uint32_t old_structurals =
      std::accumulate(old_columns_per_bidder.begin(),
                      old_columns_per_bidder.end(), std::uint32_t{0});
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

  // Every position starts as its row's slack: the new bidder's channel and
  // convexity rows come up slack-basic and the install-time repair absorbs
  // whatever interference the old allocation pushes onto them.
  lp::BasisSnapshot grown =
      slack_basis((old_n + 1) * static_cast<std::size_t>(k) + old_n + 1,
                  old_structurals + new_bidder_columns);
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
  const std::uint32_t old_structurals =
      std::accumulate(old_columns_per_bidder.begin(),
                      old_columns_per_bidder.end(), std::uint32_t{0});
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

  lp::BasisSnapshot shrunk = slack_basis(
      new_n * static_cast<std::size_t>(k) + new_n,
      old_structurals -
          old_columns_per_bidder[static_cast<std::size_t>(removed)]);
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

  lp::LinearProgram master = build_master_rows(instance);
  std::vector<ColumnMeaning> meaning;
  // Track proposed columns to be robust against dual degeneracy.
  std::vector<std::vector<bool>> proposed(
      n, std::vector<bool>(k <= 20 ? num_bundles(k) : 0, false));
  const bool track = k <= 20;

  const lp::PricingOracle oracle =
      [&](const lp::Solution& rmp) -> std::vector<lp::PricedColumn> {
    std::vector<lp::PricedColumn> columns;
    std::vector<double> prices;
    for (std::size_t v = 0; v < n; ++v) {
      bidder_prices(instance, rmp.duals, v, prices);
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
    stats->pivots = result.pivots;
  }
  return extract_fractional(result.solution, meaning);
}

}  // namespace ssa
