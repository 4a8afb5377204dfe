// Failure-injection and resource-exhaustion tests: every "give up" path in
// the library must degrade gracefully (report inexactness / non-optimal
// status, stay feasible) instead of crashing or silently lying.

#include <gtest/gtest.h>

#include "core/auction_lp.hpp"
#include "core/exact.hpp"
#include "core/greedy.hpp"
#include "core/rounding.hpp"
#include "gen/scenario.hpp"
#include "graph/independent_set.hpp"
#include "graph/inductive_independence.hpp"
#include "lp/simplex.hpp"
#include "mechanism/decomposition.hpp"
#include "support/pairwise.hpp"

namespace ssa {
namespace {

TEST(FailureInjection, SimplexIterationLimitReported) {
  lp::SimplexOptions options;
  options.max_iterations = 1;
  const AuctionInstance instance =
      gen::make_disk_auction(15, 3, gen::ValuationMix::kMixed, 1);
  const FractionalSolution lp = solve_auction_lp(instance, options);
  EXPECT_EQ(lp.status, lp::SolveStatus::kIterationLimit);
  EXPECT_TRUE(lp.columns.empty());
}

TEST(FailureInjection, RoundingOnNonOptimalLpIsEmptyButSafe) {
  const AuctionInstance instance =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 2);
  FractionalSolution bad;
  bad.status = lp::SolveStatus::kIterationLimit;  // no columns
  Rng rng(1);
  const Allocation allocation = round_unweighted(instance, bad, rng);
  EXPECT_EQ(allocation.winners(), 0u);
  EXPECT_TRUE(instance.feasible(allocation));
}

TEST(FailureInjection, BranchAndBoundBudgetExhaustionIsHonest) {
  // A tiny node budget must flag exact = false and still return a valid
  // (possibly suboptimal) independent set.
  Rng rng(3);
  ConflictGraph graph(20);
  for (std::size_t u = 0; u < 20; ++u) {
    for (std::size_t v = u + 1; v < 20; ++v) {
      if (rng.bernoulli(0.2)) graph.add_edge(u, v);
    }
  }
  std::vector<double> weights(20, 1.0);
  const IndependenceOptimum starved =
      max_weight_independent_set(graph, weights, /*node_budget=*/3);
  EXPECT_FALSE(starved.exact);
  EXPECT_TRUE(graph.is_independent(starved.members));
  const IndependenceOptimum full = max_weight_independent_set(graph, weights);
  EXPECT_TRUE(full.exact);
  EXPECT_LE(starved.value, full.value + 1e-12);
}

TEST(FailureInjection, RhoVerifierBudgetPropagates) {
  Rng rng(4);
  const auto transmitters = gen::random_transmitters(40, 30.0, 1.0, 4.0, rng);
  const ModelGraph model = disk_graph(transmitters);
  const VertexRho starved = rho_of_ordering(model.graph, model.order, 1);
  const VertexRho full = rho_of_ordering(model.graph, model.order);
  EXPECT_TRUE(full.exact);
  // A starved verifier reports a lower bound and flags inexactness
  // (unless the graph is trivial enough to finish in one node).
  EXPECT_LE(starved.value, full.value + 1e-12);
}

TEST(FailureInjection, ExactSolverBudgetExhaustionIsHonest) {
  const AuctionInstance instance =
      gen::make_disk_auction(12, 2, gen::ValuationMix::kMixed, 5);
  ExactOptions options;
  options.node_budget = 2;
  const ExactResult starved = solve_exact(instance, options);
  EXPECT_FALSE(starved.exact);
  EXPECT_TRUE(instance.feasible(starved.allocation));
  const ExactResult full = solve_exact(instance);
  EXPECT_TRUE(full.exact);
  EXPECT_LE(starved.welfare, full.welfare + 1e-9);
}

TEST(FailureInjection, ColumnGenerationRoundCapReported) {
  const AuctionInstance instance =
      gen::make_disk_auction(14, 4, gen::ValuationMix::kMixed, 6);
  lp::BendersOptions options;
  options.max_rounds = 1;
  ColGenStats stats;
  const FractionalSolution capped =
      solve_auction_lp_colgen(instance, &stats, options);
  EXPECT_FALSE(stats.proved_optimal);
  EXPECT_EQ(capped.status, lp::SolveStatus::kOptimal);  // RMP optimum
  // The capped value is a valid lower bound on the true LP optimum.
  const FractionalSolution full = solve_auction_lp(instance);
  EXPECT_LE(capped.objective, full.objective + 1e-7);
}

TEST(FailureInjection, DecompositionRoundCapLeavesResidual) {
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 7);
  const FractionalSolution lp = solve_auction_lp(instance);
  DecompositionOptions options;
  options.max_rounds = 0;  // no pricing at all
  const Decomposition decomposition =
      decompose_fractional(instance, lp, options);
  // Residual must be reported (the s-columns absorb everything) and the
  // distribution still sums to one over feasible allocations.
  EXPECT_GT(decomposition.residual, 0.0);
  double total = 0.0;
  for (const auto& entry : decomposition.entries) {
    total += entry.probability;
    EXPECT_TRUE(instance.feasible(entry.allocation));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FailureInjection, InvalidArgumentsThrowEverywhere) {
  const AuctionInstance instance =
      gen::make_disk_auction(6, 2, gen::ValuationMix::kMixed, 8);
  const FractionalSolution lp = solve_auction_lp(instance);
  EXPECT_THROW((void)best_of_rounds(instance, lp, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)local_ratio_per_channel(gen::make_physical_auction(
                   6, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 8)),
               std::invalid_argument);
  EXPECT_THROW(PairwiseFamily(0), std::invalid_argument);
  EXPECT_THROW(ConflictGraph(4).set_weight(0, 0, 1.0), std::invalid_argument);
  std::vector<double> bad_metric{0.0, 1.0, 2.0, 0.0};  // asymmetric
  EXPECT_THROW(ExplicitMetric(2, bad_metric), std::invalid_argument);
}

TEST(FailureInjection, FinalizeOnNonPartlyFeasibleInputTerminates) {
  // Hand the finalizer an allocation that grossly violates Condition (5);
  // it must terminate (iteration cap) and return something feasible.
  const AuctionInstance instance = gen::make_physical_auction(
      14, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 9);
  Allocation everyone;
  everyone.bundles.assign(instance.num_bidders(), full_bundle(2));
  const Allocation out = finalize_partial(instance, everyone);
  EXPECT_TRUE(instance.feasible(out));
}

TEST(FailureInjection, LocalRatioPerChannelFeasibleOnMixedValuations) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const AuctionInstance instance =
        gen::make_disk_auction(15, 3, gen::ValuationMix::kMixed, 100 + seed);
    const Allocation allocation = local_ratio_per_channel(instance);
    EXPECT_TRUE(instance.feasible(allocation));
    // Sanity: it should find some welfare when anything is positive.
    EXPECT_GE(instance.welfare(allocation), 0.0);
  }
}

TEST(FailureInjection, LocalRatioPerChannelMatchesSingleChannelOnK1) {
  const AuctionInstance instance =
      gen::make_disk_auction(12, 1, gen::ValuationMix::kAdditive, 11);
  const Allocation multi = local_ratio_per_channel(instance);
  const Allocation single = local_ratio_single_channel(instance);
  EXPECT_EQ(multi.bundles, single.bundles);
}

}  // namespace
}  // namespace ssa
