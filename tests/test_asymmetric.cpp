// Tests for asymmetric channels (Section 6): per-channel feasibility, the
// 1/(2 k rho) rounding, the Theorem 18 hardness construction, and the
// shared-graph case, where the Section-6 LP is LP (1)/(4).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/asymmetric.hpp"
#include "gen/scenario.hpp"
#include "graph/independent_set.hpp"
#include "graph/inductive_independence.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace ssa {
namespace {

TEST(AsymmetricInstance, ValidatesInput) {
  std::vector<ConflictGraph> graphs;
  graphs.emplace_back(3);
  graphs.emplace_back(4);  // size mismatch
  std::vector<ValuationPtr> vals(3, std::make_shared<AdditiveValuation>(
                                        std::vector<double>{1.0, 1.0}));
  EXPECT_THROW(
      AsymmetricInstance(std::move(graphs), identity_ordering(3), vals),
      std::invalid_argument);
}

TEST(AsymmetricInstance, FeasibilityIsPerChannel) {
  // Edge {0,1} only on channel 0: sharing channel 1 is fine.
  std::vector<ConflictGraph> graphs;
  graphs.emplace_back(2);
  graphs.back().add_edge(0, 1);
  graphs.emplace_back(2);
  std::vector<ValuationPtr> vals(2, std::make_shared<AdditiveValuation>(
                                        std::vector<double>{1.0, 1.0}));
  const AsymmetricInstance instance(std::move(graphs), identity_ordering(2),
                                    vals);
  Allocation both_on_0;
  both_on_0.bundles = {0b01u, 0b01u};
  EXPECT_FALSE(instance.feasible(both_on_0));
  Allocation both_on_1;
  both_on_1.bundles = {0b10u, 0b10u};
  EXPECT_TRUE(instance.feasible(both_on_1));
  Allocation split;
  split.bundles = {0b01u, 0b10u};
  EXPECT_TRUE(instance.feasible(split));
}

class AsymmetricRounding : public ::testing::TestWithParam<int> {};

TEST_P(AsymmetricRounding, AlwaysFeasible) {
  const AsymmetricInstance instance = gen::make_random_asymmetric(
      14, 3, 0.25, gen::ValuationMix::kMixed,
      static_cast<std::uint64_t>(GetParam()) + 600);
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 25; ++trial) {
    const Allocation allocation = round_asymmetric(instance, lp, rng);
    EXPECT_TRUE(instance.feasible(allocation));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsymmetricRounding, ::testing::Range(0, 8));

TEST(AsymmetricRounding, ExpectedWelfareMeetsSection6Bound) {
  // Section 6: the adapted analysis gives E[welfare] >= b* / (4 k rho)
  // (the 2 k rho sampling loses another factor <= 2 to conflict removal).
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(16, 2, 0.2, gen::ValuationMix::kMixed, 777);
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const double bound = lp.objective / (4.0 * 2.0 * instance.rho());
  Rng rng(31);
  RunningStats stats;
  for (int trial = 0; trial < 400; ++trial) {
    stats.add(instance.welfare(round_asymmetric(instance, lp, rng)));
  }
  EXPECT_GE(stats.mean() + 3.0 * stats.ci95_halfwidth(), bound);
}

TEST(AsymmetricRounding, ConflictOnOneChannelDropsTheWholeBundle) {
  // Regression pin for the Section 6 conflict-resolution step. The paper
  // keeps Algorithm 1's structure: a vertex that loses against a kept
  // pi-earlier neighbor on ANY channel of its bundle is removed ENTIRELY.
  // Per-channel trimming would be wrong here -- a single-minded bidder
  // would be left holding a worthless sub-bundle (the analysis never
  // charges it) while still blocking later vertices on surviving channels.
  //
  // Two single-minded bidders both want {0,1} at value 1; they conflict
  // only on channel 0. Under full drop the later bidder ends with the full
  // bundle or nothing -- the strict sub-bundle {1} (what trimming would
  // produce whenever both sample) must never appear.
  std::vector<ConflictGraph> graphs;
  graphs.emplace_back(2);
  graphs.back().add_edge(0, 1);  // channel 0 only
  graphs.emplace_back(2);
  std::vector<ValuationPtr> vals(
      2, std::make_shared<SingleMindedValuation>(2, full_bundle(2), 1.0));
  const AsymmetricInstance instance(std::move(graphs), identity_ordering(2),
                                    vals);
  ASSERT_DOUBLE_EQ(instance.rho(), 1.0);

  const FractionalSolution lp = solve_asymmetric_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(lp.objective, 2.0, 1e-6);  // both x_{v,{0,1}} = 1

  // Sampling probability is x / (2 k rho) = 1/4 per bidder, so both sample
  // together in ~1/16 of the trials; with 400 trials the drop path is
  // exercised many times for this fixed seed.
  Rng rng(2026);
  RunningStats stats;
  int full_drops = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Allocation allocation = round_asymmetric(instance, lp, rng);
    ASSERT_TRUE(instance.feasible(allocation));
    for (std::size_t v = 0; v < 2; ++v) {
      // Full bundle or nothing -- never a trimmed sub-bundle.
      EXPECT_TRUE(allocation.bundles[v] == kEmptyBundle ||
                  allocation.bundles[v] == full_bundle(2))
          << "trial " << trial << " bidder " << v << " holds sub-bundle "
          << allocation.bundles[v];
    }
    // Both winning would violate the channel-0 edge.
    EXPECT_FALSE(allocation.bundles[0] == full_bundle(2) &&
                 allocation.bundles[1] == full_bundle(2));
    if (allocation.bundles[0] == full_bundle(2) &&
        allocation.bundles[1] == kEmptyBundle) {
      ++full_drops;
    }
    stats.add(instance.welfare(allocation));
  }
  // The conflict-drop path actually ran (P[no occurrence] < 1e-5).
  EXPECT_GT(full_drops, 0);
  // And the welfare guarantee the full drop is priced for still holds:
  // E[welfare] >= b* / (4 k rho) = 0.25.
  const double bound = lp.objective / (4.0 * 2.0 * instance.rho());
  EXPECT_GE(stats.mean() + 3.0 * stats.ci95_halfwidth(), bound);
}

TEST(AsymmetricRounding, ExpiredDeadlineTruncatesButStaysFeasible) {
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(14, 2, 0.3, gen::ValuationMix::kMixed, 55);
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  bool timed_out = false;
  const Allocation allocation = best_asymmetric_rounds(
      instance, lp, 64, 9, Deadline::after(1e-9), &timed_out);
  EXPECT_TRUE(timed_out);  // repetitions beyond the first were skipped
  EXPECT_TRUE(instance.feasible(allocation));  // repetition 0 always runs
  // An unlimited deadline reports no truncation and matches the default.
  bool untruncated = false;
  const Allocation full =
      best_asymmetric_rounds(instance, lp, 16, 9, Deadline{}, &untruncated);
  EXPECT_FALSE(untruncated);
  EXPECT_EQ(full.bundles, best_asymmetric_rounds(instance, lp, 16, 9).bundles);
}

TEST(AsymmetricRounding, BestOfRoundsDeterministic) {
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(12, 2, 0.3, gen::ValuationMix::kMixed, 88);
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  const Allocation a = best_asymmetric_rounds(instance, lp, 16, 9);
  const Allocation b = best_asymmetric_rounds(instance, lp, 16, 9);
  EXPECT_EQ(a.bundles, b.bundles);
  EXPECT_TRUE(instance.feasible(a));
}

TEST(HardnessInstance, WelfareEqualsIndependentSetSize) {
  // Theorem 18: allocations of welfare b correspond to independent sets of
  // size b in the original degree-bounded graph. Check that any feasible
  // allocation's winner set is independent in the union graph.
  const AsymmetricInstance instance = gen::make_hardness_instance(20, 4, 2, 5);
  // Union graph of all channels.
  ConflictGraph union_graph(20);
  for (int j = 0; j < instance.num_channels(); ++j) {
    for (std::size_t u = 0; u < 20; ++u) {
      for (int v : instance.graph(j).neighbors(u)) {
        if (static_cast<std::size_t>(v) > u) {
          union_graph.add_edge(u, static_cast<std::size_t>(v));
        }
      }
    }
  }
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const Allocation allocation = round_asymmetric(instance, lp, rng);
    ASSERT_TRUE(instance.feasible(allocation));
    std::vector<int> winners;
    double welfare = 0.0;
    for (std::size_t v = 0; v < allocation.size(); ++v) {
      if (allocation.bundles[v] == full_bundle(2)) {
        winners.push_back(static_cast<int>(v));
        welfare += 1.0;
      }
    }
    EXPECT_TRUE(union_graph.is_independent(winners));
    EXPECT_NEAR(instance.welfare(allocation), welfare, 1e-12);
  }
}

TEST(HardnessInstance, ChannelGraphsRespectRhoBudget) {
  // Each channel graph gets at most d/k backward edges per vertex under the
  // identity ordering, so rho_j(pi) <= d/k.
  const int d = 6, k = 3;
  const AsymmetricInstance instance = gen::make_hardness_instance(24, d, k, 9);
  for (int j = 0; j < k; ++j) {
    const VertexRho rho = rho_of_ordering(instance.graph(j), instance.order());
    EXPECT_LE(rho.value, static_cast<double>(d / k));
  }
  EXPECT_DOUBLE_EQ(instance.rho(), static_cast<double>(d / k));
}

TEST(HardnessInstance, ValuationsAreAllOrNothing) {
  const AsymmetricInstance instance = gen::make_hardness_instance(10, 4, 2, 3);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    EXPECT_DOUBLE_EQ(instance.value(v, full_bundle(2)), 1.0);
    EXPECT_DOUBLE_EQ(instance.value(v, 0b01u), 0.0);
    EXPECT_DOUBLE_EQ(instance.value(v, 0b10u), 0.0);
  }
}

TEST(AsymmetricLp, DominatesSymmetricTreatment) {
  // The asymmetric LP must be a relaxation: its value is at least the
  // welfare of any feasible allocation found by rounding.
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(14, 2, 0.3, gen::ValuationMix::kMixed, 44);
  const FractionalSolution lp = solve_asymmetric_lp(instance);
  const Allocation best = best_asymmetric_rounds(instance, lp, 64, 3);
  EXPECT_GE(lp.objective, instance.welfare(best) - 1e-6);
}

/// Builds the Section-6 instance whose every channel graph is the
/// symmetric instance's graph G and checks that both flavours build the
/// same LP: equal master rows, equal (v, T) columns after LinearProgram
/// normalisation, and bitwise-equal Section 2.2 prices for random duals.
void expect_shared_graph_lp_is_symmetric_lp(const AuctionInstance& symmetric,
                                            std::uint64_t seed) {
  const int k = symmetric.num_channels();
  const std::size_t n = symmetric.num_bidders();
  const AsymmetricInstance shared(
      std::vector<ConflictGraph>(static_cast<std::size_t>(k),
                                 symmetric.graph()),
      symmetric.order(), symmetric.valuations(), symmetric.rho());
  ASSERT_EQ(shared.rho(), symmetric.rho());

  lp::LinearProgram a = build_master_rows(symmetric);
  lp::LinearProgram b = build_master_rows(shared);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_rows(), n * static_cast<std::size_t>(k) + n);
  for (std::size_t row = 0; row < a.num_rows(); ++row) {
    EXPECT_EQ(a.row_sense(row), b.row_sense(row)) << "row " << row;
    EXPECT_EQ(a.rhs(row), b.rhs(row)) << "row " << row;
  }

  for (std::size_t v = 0; v < n; ++v) {
    for (Bundle t = 1; t < num_bundles(k); ++t) {
      const int bidder = static_cast<int>(v);
      const int ca = a.add_column(0.0, bundle_column(symmetric, bidder, t));
      const int cb = b.add_column(0.0, bundle_column(shared, bidder, t));
      const auto left = a.column(static_cast<std::size_t>(ca));
      const auto right = b.column(static_cast<std::size_t>(cb));
      ASSERT_EQ(left.size(), right.size()) << "v " << v << " T " << t;
      for (std::size_t e = 0; e < left.size(); ++e) {
        EXPECT_EQ(left[e].row, right[e].row);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(left[e].coeff),
                  std::bit_cast<std::uint64_t>(right[e].coeff));
      }
    }
  }

  Rng rng(seed);
  std::vector<double> duals(a.num_rows(), 0.0);
  std::vector<double> left;
  std::vector<double> right;
  for (int trial = 0; trial < 8; ++trial) {
    for (double& dual : duals) {
      dual = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 7.0);
    }
    for (std::size_t v = 0; v < n; ++v) {
      bidder_prices(symmetric, duals, v, left);
      bidder_prices(shared, duals, v, right);
      ASSERT_EQ(left.size(), static_cast<std::size_t>(k));
      ASSERT_EQ(right.size(), static_cast<std::size_t>(k));
      for (std::size_t j = 0; j < left.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(left[j]),
                  std::bit_cast<std::uint64_t>(right[j]))
            << "v " << v << " channel " << j;
      }
    }
  }
}

TEST(SharedGraphLp, UnweightedSection6LpIsTheSymmetricLp) {
  const AuctionInstance instance =
      gen::make_disk_auction(10, 3, gen::ValuationMix::kMixed, 61);
  ASSERT_TRUE(instance.unweighted());
  expect_shared_graph_lp_is_symmetric_lp(instance, 1);
}

TEST(SharedGraphLp, WeightedSection6LpIsTheSymmetricLp) {
  const AuctionInstance instance = gen::make_physical_auction(
      9, 3, PowerScheme::kUniform, gen::ValuationMix::kMixed, 62);
  ASSERT_FALSE(instance.unweighted());
  expect_shared_graph_lp_is_symmetric_lp(instance, 2);
}

}  // namespace
}  // namespace ssa
