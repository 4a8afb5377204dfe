// Tests for the Section-6 solvers behind the unified registry: the
// "asymmetric-*" entries' diagnostics blocks (LP upper bound, the 2 k rho
// factor, the b*/(4 k rho) expectation guarantee), the exact B&B reference,
// the greedy baselines, the single-sourced channel-count limit, and
// cooperative time budgets on the asymmetric path.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/api.hpp"
#include "gen/scenario.hpp"

namespace ssa {
namespace {

TEST(AsymmetricSolvers, LpRoundingFillsTheSection6DiagnosticsBlock) {
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(14, 3, 0.25, gen::ValuationMix::kMixed, 604);
  SolveOptions options;
  options.seed = 11;
  options.pipeline.rounding_repetitions = 32;
  const SolveReport report =
      registry().create("asymmetric-lp-rounding")->solve(instance, options);

  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(instance.feasible(report.allocation));
  ASSERT_TRUE(report.lp_upper_bound.has_value());
  EXPECT_GT(*report.lp_upper_bound, 0.0);
  ASSERT_TRUE(report.fractional.has_value());
  // The factor carries the Section 6 sampling scale 2 k rho; conflict
  // survival costs another <= 2, so the proven expectation bound is
  // b* / (2 * factor) = b* / (4 k rho).
  EXPECT_DOUBLE_EQ(report.factor, 2.0 * 3.0 * instance.rho());
  EXPECT_NEAR(report.guarantee, *report.lp_upper_bound / (2.0 * report.factor),
              1e-9);
  // The LP is a relaxation: the rounded welfare never beats b*.
  EXPECT_LE(report.welfare, *report.lp_upper_bound + 1e-6);
  EXPECT_FALSE(report.exact);
  EXPECT_FALSE(report.timed_out);
}

TEST(AsymmetricSolvers, ExactDominatesRoundingAndGreedyBaselines) {
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 71);
  SolveOptions options;
  options.seed = 5;
  options.pipeline.rounding_repetitions = 32;

  const SolveReport exact =
      make_solver("asymmetric-exact")->solve(instance, options);
  ASSERT_TRUE(exact.error.empty()) << exact.error;
  EXPECT_TRUE(exact.exact);
  EXPECT_DOUBLE_EQ(exact.factor, 1.0);
  EXPECT_DOUBLE_EQ(exact.guarantee, exact.welfare);
  EXPECT_TRUE(instance.feasible(exact.allocation));

  for (const char* name : {"asymmetric-lp-rounding", "asymmetric-greedy-value",
                           "asymmetric-greedy-density"}) {
    const SolveReport report = make_solver(name)->solve(instance, options);
    ASSERT_TRUE(report.error.empty()) << name << ": " << report.error;
    EXPECT_TRUE(report.feasible) << name;
    EXPECT_LE(report.welfare, exact.welfare + 1e-9) << name;
    if (report.lp_upper_bound) {
      // OPT lies below the LP optimum (relaxation).
      EXPECT_LE(exact.welfare, *report.lp_upper_bound + 1e-6) << name;
    }
  }
}

TEST(AsymmetricSolvers, GreedyBaselinesAreDeterministic) {
  const AsymmetricInstance instance =
      gen::make_random_asymmetric(12, 2, 0.3, gen::ValuationMix::kMixed, 99);
  for (const char* name :
       {"asymmetric-greedy-value", "asymmetric-greedy-density"}) {
    const SolveReport a = make_solver(name)->solve(instance);
    const SolveReport b = make_solver(name)->solve(instance);
    EXPECT_EQ(a.allocation.bundles, b.allocation.bundles) << name;
    EXPECT_GT(a.welfare, 0.0) << name;
  }
}

TEST(AsymmetricSolvers, HardnessInstanceFeedsTheRegistryDirectly) {
  // The gen hook in action: the Theorem 18 construction runs through the
  // registry without touching the free functions.
  const AsymmetricInstance instance = gen::make_hardness_instance(16, 4, 2, 9);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 48;
  const SolveReport report =
      make_solver("asymmetric-lp-rounding")->solve(instance, options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.factor, 2.0 * 2.0 * instance.rho());
}

TEST(AsymmetricSolvers, ChannelLimitIsSingleSourced) {
  // Two constants rule the asymmetric path since the decomposition solver
  // landed: the instance constructor accepts up to the library-wide
  // ssa::kMaxChannels (the Bundle word bound), while the EXPLICIT
  // enumeration paths (solve_asymmetric_lp and both greedies) refuse
  // beyond the library-wide ssa::kExplicitChannelLimit and point at
  // asymmetric-colgen.
  EXPECT_EQ(AsymmetricInstance::kMaxChannels, ssa::kMaxChannels);
  EXPECT_EQ(ssa::kExplicitChannelLimit, 12);

  const auto build = [](int k) {
    std::vector<ConflictGraph> graphs(static_cast<std::size_t>(k),
                                      ConflictGraph(2));
    std::vector<double> per_channel(static_cast<std::size_t>(k), 1.0);
    std::vector<ValuationPtr> vals(
        2, std::make_shared<AdditiveValuation>(per_channel));
    return AsymmetricInstance(std::move(graphs), identity_ordering(2), vals);
  };

  // k = 13 now constructs fine...
  const AsymmetricInstance wide = build(ssa::kExplicitChannelLimit + 1);
  EXPECT_EQ(wide.num_channels(), 13);
  // ...but every explicit-enumeration entry refuses it with a message
  // naming the limit and the colgen escape hatch.
  for (const char* name : {"asymmetric-lp-rounding", "asymmetric-greedy-value",
                           "asymmetric-greedy-density"}) {
    const SolveReport report = make_solver(name)->solve(wide);
    EXPECT_FALSE(report.error.empty()) << name;
    EXPECT_NE(report.error.find("12"), std::string::npos) << report.error;
    EXPECT_NE(report.error.find("asymmetric-colgen"), std::string::npos)
        << report.error;
  }

  // The constructor still guards the library-wide Bundle bound (checked
  // before the per-bidder valuation shapes, so legal valuations suffice).
  try {
    std::vector<ConflictGraph> graphs(
        static_cast<std::size_t>(ssa::kMaxChannels) + 1, ConflictGraph(2));
    std::vector<double> per_channel(
        static_cast<std::size_t>(ssa::kMaxChannels), 1.0);
    std::vector<ValuationPtr> vals(
        2, std::make_shared<AdditiveValuation>(per_channel));
    const AsymmetricInstance bad(std::move(graphs), identity_ordering(2),
                                 vals);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find(std::to_string(ssa::kMaxChannels)),
              std::string::npos)
        << e.what();
  }
}

TEST(AsymmetricSolvers, WeightedGraphsAreAStructuredDomainError) {
  // Rounding requires unweighted per-channel graphs; through the registry
  // the violation surfaces as SolveReport::error, never an exception.
  std::vector<ConflictGraph> graphs;
  graphs.emplace_back(2);
  graphs.back().set_weight(0, 1, 0.5);  // weighted edge
  graphs.emplace_back(2);
  std::vector<ValuationPtr> vals(2, std::make_shared<AdditiveValuation>(
                                        std::vector<double>{1.0, 1.0}));
  const AsymmetricInstance instance(std::move(graphs), identity_ordering(2),
                                    vals);
  // Both the rounding and the exact solver prune/sample under binary
  // conflicts, so both reject weighted graphs rather than producing an
  // unsound result (the exact solver would otherwise claim a false OPT).
  for (const char* name : {"asymmetric-lp-rounding", "asymmetric-exact"}) {
    const SolveReport report = make_solver(name)->solve(instance);
    EXPECT_FALSE(report.error.empty()) << name;
    EXPECT_NE(report.error.find("unweighted"), std::string::npos) << name;
    EXPECT_FALSE(report.feasible) << name;
  }
}

TEST(AsymmetricSolvers, BatchAcrossThreadCountsIsDeterministic) {
  // The satellite check extended to the asymmetric entries: a batch over
  // every asymmetric solver, serial vs parallel.
  const AsymmetricInstance a =
      gen::make_random_asymmetric(12, 2, 0.3, gen::ValuationMix::kMixed, 31);
  const AsymmetricInstance b = gen::make_hardness_instance(14, 4, 2, 32);
  const std::vector<LabelledInstance> instances = {{"asym-random", a},
                                                   {"asym-hardness", b}};
  const std::vector<std::string> solvers = {
      "asymmetric-lp-rounding", "asymmetric-exact", "asymmetric-greedy-value",
      "asymmetric-greedy-density"};
  SolveOptions options;
  options.seed = 77;
  options.pipeline.rounding_repetitions = 16;
  const std::vector<BatchJob> jobs = cross_jobs(instances, solvers, options);

  const BatchResult serial = solve_batch(jobs, BatchOptions{.threads = 1});
  const BatchResult parallel = solve_batch(jobs, BatchOptions{.threads = 0});
  ASSERT_EQ(serial.reports.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(serial.reports[i].error.empty())
        << serial.reports[i].solver << ": " << serial.reports[i].error;
    EXPECT_EQ(serial.reports[i].allocation.bundles,
              parallel.reports[i].allocation.bundles)
        << serial.labels[i] << "/" << serial.reports[i].solver;
    EXPECT_DOUBLE_EQ(serial.reports[i].welfare, parallel.reports[i].welfare);
  }
}

}  // namespace
}  // namespace ssa
