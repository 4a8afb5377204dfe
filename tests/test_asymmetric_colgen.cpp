// Tests for the decomposition solve path ("asymmetric-colgen"): the
// restricted-master/pricing-oracle LP agrees with the explicit LP and the
// exact B&B reference on small instances, lifts the k <= 12 explicit
// enumeration cap, admits weighted per-channel graphs, and its column-pool
// warm start (WarmStartContext::pool_hint) is payload-invariant -- a warm
// solve reports bitwise the same answer as the cold solve of the same
// instance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/asymmetric_colgen.hpp"
#include "gen/scenario.hpp"
#include "wire/codec.hpp"

namespace ssa {
namespace {

/// Support-preserving valuation churn (the E15 workload): rescales one
/// bidder's positive bundle values, leaving the structure -- and thus the
/// column pool's validity -- untouched.
AsymmetricInstance rescale_bidder(const AsymmetricInstance& instance,
                                  std::size_t v, double factor) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * factor;
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

/// A weighted asymmetric chain instance (k = 2): rejected by the Section 6
/// rounding, served by the decomposition path.
AsymmetricInstance weighted_chain(std::size_t n) {
  std::vector<ConflictGraph> graphs;
  for (int channel = 0; channel < 2; ++channel) {
    ConflictGraph graph(n);
    for (std::size_t u = 0; u + 1 < n; ++u) {
      graph.set_weight(u, u + 1, 0.4);
      graph.set_weight(u + 1, u, 0.4);
    }
    graphs.push_back(std::move(graph));
  }
  std::vector<ValuationPtr> valuations;
  for (std::size_t v = 0; v < n; ++v) {
    valuations.push_back(std::make_shared<AdditiveValuation>(
        std::vector<double>{3.0 + static_cast<double>(v), 2.0}));
  }
  return AsymmetricInstance(std::move(graphs), identity_ordering(n),
                            std::move(valuations));
}

TEST(AsymmetricColgen, AgreesWithExplicitLpAndExactOnSmallInstances) {
  for (const std::uint64_t seed : {41ull, 42ull, 43ull, 44ull}) {
    const AsymmetricInstance instance = gen::make_random_asymmetric(
        9, 2, 0.3, gen::ValuationMix::kMixed, seed);
    SolveOptions options;
    options.seed = 7;
    options.pipeline.rounding_repetitions = 32;

    const SolveReport colgen =
        make_solver("asymmetric-colgen")->solve(instance, options);
    ASSERT_TRUE(colgen.error.empty()) << colgen.error;
    EXPECT_TRUE(colgen.feasible);
    EXPECT_TRUE(instance.feasible(colgen.allocation));
    EXPECT_GE(colgen.oracle_rounds, 1u);
    EXPECT_GE(colgen.columns_generated, 1u);
    ASSERT_TRUE(colgen.lp_upper_bound.has_value());

    // The restricted master converges to the same LP optimum the explicit
    // formulation reaches (the lift perturbs values by a relative 1e-7 at
    // most, far below this tolerance).
    const SolveReport explicit_lp =
        make_solver("asymmetric-lp-rounding")->solve(instance, options);
    ASSERT_TRUE(explicit_lp.error.empty()) << explicit_lp.error;
    ASSERT_TRUE(explicit_lp.lp_upper_bound.has_value());
    EXPECT_NEAR(*colgen.lp_upper_bound, *explicit_lp.lp_upper_bound,
                1e-4 * (1.0 + *explicit_lp.lp_upper_bound))
        << "seed " << seed;

    // And OPT sits below the colgen bound (it is a relaxation).
    const SolveReport exact =
        make_solver("asymmetric-exact")->solve(instance, options);
    ASSERT_TRUE(exact.error.empty()) << exact.error;
    EXPECT_LE(exact.welfare, *colgen.lp_upper_bound + 1e-4);
    EXPECT_LE(colgen.welfare, exact.welfare + 1e-9) << "seed " << seed;
  }
}

TEST(AsymmetricColgen, SolvesBeyondTheExplicitEnumerationCap) {
  // k = 13/14: one channel past the explicit cap; the enumeration solvers
  // refuse, the decomposition path serves.
  for (const int k : {13, 14}) {
    const AsymmetricInstance instance = gen::make_random_asymmetric(
        6, k, 0.3, gen::ValuationMix::kMixed, 1000 + static_cast<std::uint64_t>(k));
    SolveOptions options;
    options.seed = 3;
    options.pipeline.rounding_repetitions = 16;

    const SolveReport refused =
        make_solver("asymmetric-lp-rounding")->solve(instance, options);
    EXPECT_FALSE(refused.error.empty());
    EXPECT_NE(refused.error.find("asymmetric-colgen"), std::string::npos)
        << refused.error;

    const SolveReport report =
        make_solver("asymmetric-colgen")->solve(instance, options);
    ASSERT_TRUE(report.error.empty()) << report.error;
    EXPECT_TRUE(report.feasible);
    EXPECT_TRUE(instance.feasible(report.allocation));
    ASSERT_TRUE(report.lp_upper_bound.has_value());
    EXPECT_LE(report.welfare, *report.lp_upper_bound + 1e-6);
    EXPECT_GE(report.columns_generated, 1u);
  }
}

TEST(AsymmetricColgen, WeightedGraphsAreAdmitted) {
  const AsymmetricInstance instance = weighted_chain(14);
  const SolveReport report = make_solver("asymmetric-colgen")->solve(instance);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(instance.feasible(report.allocation));
  EXPECT_GT(report.welfare, 0.0);
  ASSERT_TRUE(report.lp_upper_bound.has_value());
  EXPECT_LE(report.welfare, *report.lp_upper_bound + 1e-6);
}

/// Banks a pool from \p donor, churns the valuations, then solves each
/// variant twice: cold and pool-seeded. The reports must agree bitwise on
/// every payload field (wire::reports_payload_equal excludes exactly the
/// timing/diagnostic class).
void expect_pool_warm_equals_cold(const AsymmetricInstance& donor,
                                  int variants) {
  SolveOptions options;
  options.seed = 13;
  options.pipeline.rounding_repetitions = 16;

  WarmStartContext bank;
  SolveOptions donor_options = options;
  donor_options.warm_context = &bank;
  const SolveReport donor_report =
      make_solver("asymmetric-colgen")->solve(donor, donor_options);
  ASSERT_TRUE(donor_report.error.empty()) << donor_report.error;
  ASSERT_TRUE(bank.has_pool_export);
  EXPECT_FALSE(bank.pool_exported.empty());

  for (int i = 0; i < variants; ++i) {
    const AsymmetricInstance variant = rescale_bidder(
        donor, static_cast<std::size_t>(i) % donor.num_bidders(),
        1.0 + 0.07 * static_cast<double>(i + 1));

    const SolveReport cold =
        make_solver("asymmetric-colgen")->solve(variant, options);
    ASSERT_TRUE(cold.error.empty()) << cold.error;
    EXPECT_FALSE(cold.warm_started);

    WarmStartContext warm_context;
    warm_context.pool_hint = &bank.pool_exported;
    SolveOptions warm_options = options;
    warm_options.warm_context = &warm_context;
    const SolveReport warm =
        make_solver("asymmetric-colgen")->solve(variant, warm_options);
    ASSERT_TRUE(warm.error.empty()) << warm.error;
    EXPECT_TRUE(warm.warm_started) << "variant " << i;
    EXPECT_TRUE(wire::reports_payload_equal(warm, cold)) << "variant " << i;

    // warm_start = false pins a cold solve even with the hint present.
    WarmStartContext ignored;
    ignored.pool_hint = &bank.pool_exported;
    SolveOptions opted_out = options;
    opted_out.warm_start = false;
    opted_out.warm_context = &ignored;
    const SolveReport forced_cold =
        make_solver("asymmetric-colgen")->solve(variant, opted_out);
    EXPECT_FALSE(forced_cold.warm_started);
    EXPECT_TRUE(wire::reports_payload_equal(forced_cold, cold));
  }
}

TEST(AsymmetricColgen, PoolWarmSolveIsPayloadIdenticalToCold) {
  {
    SCOPED_TRACE("weighted chain, n = 12, k = 2");
    expect_pool_warm_equals_cold(weighted_chain(12), 8);
  }
  // The churn benchmark's asymmetric shape: n = 8, k = 13, one channel
  // past the explicit cap, lifted oracle.
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    SCOPED_TRACE("random n = 8, k = 13, seed " + std::to_string(seed));
    expect_pool_warm_equals_cold(
        gen::make_random_asymmetric(8, 13, 0.3, gen::ValuationMix::kMixed,
                                    seed),
        4);
  }
}

TEST(AsymmetricColgen, IncompatiblePoolsAreIgnoredNotTrusted) {
  // A pool banked for a DIFFERENT structure (dimension mismatch) must be
  // skipped: the solve runs cold and stays correct.
  const AsymmetricInstance donor = weighted_chain(8);
  WarmStartContext bank;
  SolveOptions donor_options;
  donor_options.warm_context = &bank;
  (void)make_solver("asymmetric-colgen")->solve(donor, donor_options);
  ASSERT_TRUE(bank.has_pool_export);

  const AsymmetricInstance other = weighted_chain(9);  // different n
  const SolveReport cold = make_solver("asymmetric-colgen")->solve(other);
  WarmStartContext mismatched;
  mismatched.pool_hint = &bank.pool_exported;
  SolveOptions options;
  options.warm_context = &mismatched;
  const SolveReport report =
      make_solver("asymmetric-colgen")->solve(other, options);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.warm_started);
  EXPECT_TRUE(wire::reports_payload_equal(report, cold));
}

}  // namespace
}  // namespace ssa
