// Tests for the Lavi-Swamy mechanism (Section 5): fractional VCG,
// decomposition validity (sum lambda = 1, sum lambda chi = x*/alpha, every
// entry feasible), payment scaling, individual rationality and empirical
// truthfulness under misreports.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "api/api.hpp"
#include "gen/scenario.hpp"
#include "mechanism/decomposition.hpp"
#include "mechanism/fractional_vcg.hpp"
#include "mechanism/mechanism.hpp"
#include "support/fingerprint.hpp"
#include "wire/codec.hpp"

namespace ssa {
namespace {

AuctionInstance small_instance(std::uint64_t seed) {
  return gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, seed);
}

/// Runs the Section 5 mechanism through the unified Solver API and hands
/// back its payload.
MechanismOutcome registry_mechanism(const AuctionInstance& instance) {
  const SolveReport report = make_solver("mechanism")->solve(instance);
  return *report.mechanism;
}

TEST(FractionalVcg, PaymentsNonNegativeAndBounded) {
  const AuctionInstance instance = small_instance(1);
  const FractionalVcg vcg = fractional_vcg(instance);
  ASSERT_EQ(vcg.optimum.status, lp::SolveStatus::kOptimal);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    EXPECT_GE(vcg.payments[v], 0.0);
    // VCG payment never exceeds the bidder's fractional value share.
    EXPECT_LE(vcg.payments[v], vcg.bidder_value[v] + 1e-6);
  }
}

TEST(FractionalVcg, ZeroBidderPaysNothing) {
  const AuctionInstance instance = small_instance(2);
  const AuctionInstance zeroed = instance.without_bidder(0);
  const FractionalVcg vcg = fractional_vcg(zeroed);
  EXPECT_NEAR(vcg.payments[0], 0.0, 1e-9);
  EXPECT_NEAR(vcg.bidder_value[0], 0.0, 1e-9);
}

class DecompositionValidity : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionValidity, ReconstructsScaledOptimum) {
  const AuctionInstance instance =
      small_instance(static_cast<std::uint64_t>(GetParam()) + 700);
  const FractionalSolution lp = solve_auction_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const Decomposition decomposition = decompose_fractional(instance, lp);

  // Probabilities form a distribution.
  double total = 0.0;
  for (const DecompositionEntry& entry : decomposition.entries) {
    EXPECT_GE(entry.probability, 0.0);
    total += entry.probability;
    EXPECT_TRUE(instance.feasible(entry.allocation));
  }
  EXPECT_NEAR(total, 1.0, 1e-6);

  // The residual certifies sum lambda chi = x*/alpha.
  EXPECT_LE(decomposition.residual, 1e-6);

  // Recompute the coordinate sums explicitly.
  std::map<std::pair<int, Bundle>, double> reconstructed;
  for (const DecompositionEntry& entry : decomposition.entries) {
    for (std::size_t v = 0; v < entry.allocation.size(); ++v) {
      if (entry.allocation.bundles[v] != kEmptyBundle) {
        reconstructed[{static_cast<int>(v), entry.allocation.bundles[v]}] +=
            entry.probability;
      }
    }
  }
  for (const FractionalColumn& column : lp.columns) {
    const double target = column.x / decomposition.alpha;
    const double got = reconstructed[{column.bidder, column.bundle}];
    EXPECT_NEAR(got, target, 1e-5)
        << "coordinate (" << column.bidder << ", " << column.bundle << ")";
    reconstructed.erase({column.bidder, column.bundle});
  }
  // Nothing outside supp(x*).
  for (const auto& [coord, mass] : reconstructed) {
    EXPECT_NEAR(mass, 0.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionValidity, ::testing::Range(0, 6));

TEST(Decomposition, DefaultAlphaFollowsPaper) {
  const AuctionInstance unweighted = small_instance(3);
  EXPECT_NEAR(default_alpha(unweighted),
              8.0 * std::sqrt(2.0) * unweighted.rho(), 1e-12);
  const AuctionInstance weighted = gen::make_physical_auction(
      8, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 3);
  const double log_n = std::ceil(std::log2(8.0));
  EXPECT_NEAR(default_alpha(weighted),
              16.0 * std::sqrt(2.0) * weighted.rho() * log_n, 1e-12);
}

TEST(Mechanism, ExpectedPaymentMatchesScaledVcg) {
  const AuctionInstance instance = small_instance(4);
  const MechanismOutcome outcome = registry_mechanism(instance);
  // E[p_v] over the decomposition = p^f_v / alpha by the payment rule.
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    double expected = 0.0;
    for (const DecompositionEntry& entry : outcome.decomposition.entries) {
      const Bundle bundle = entry.allocation.bundles[v];
      if (bundle == kEmptyBundle || outcome.vcg.bidder_value[v] <= 1e-12) {
        continue;
      }
      expected += entry.probability * outcome.vcg.payments[v] *
                  instance.value(v, bundle) / outcome.vcg.bidder_value[v];
    }
    EXPECT_NEAR(expected, outcome.expected_payments[v], 1e-5)
        << "bidder " << v;
  }
}

TEST(Mechanism, SampledAllocationFeasibleAndPaymentsCharged) {
  const AuctionInstance instance = small_instance(5);
  const MechanismOutcome outcome = registry_mechanism(instance);
  EXPECT_TRUE(instance.feasible(outcome.allocation));
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    EXPECT_GE(outcome.payments[v], 0.0);
    if (outcome.allocation.bundles[v] == kEmptyBundle) {
      EXPECT_DOUBLE_EQ(outcome.payments[v], 0.0);
    }
  }
}

TEST(Mechanism, IndividualRationalityInExpectation) {
  const AuctionInstance instance = small_instance(6);
  const MechanismOutcome outcome = registry_mechanism(instance);
  const std::vector<double> utilities =
      expected_utilities(outcome, instance, instance);
  for (std::size_t v = 0; v < instance.num_bidders(); ++v) {
    EXPECT_GE(utilities[v], -1e-6) << "bidder " << v;
  }
}

class Truthfulness : public ::testing::TestWithParam<int> {};

TEST_P(Truthfulness, MisreportsDoNotHelpInExpectation) {
  // Truthful-in-expectation: for each bidder, the expected utility under
  // truthful reporting is at least the expected utility under a misreport
  // (tolerance covers the decomposition residual).
  const AuctionInstance truth =
      small_instance(static_cast<std::uint64_t>(GetParam()) + 800);
  const MechanismOutcome truthful_outcome = registry_mechanism(truth);
  const std::vector<double> truthful_utilities =
      expected_utilities(truthful_outcome, truth, truth);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  for (std::size_t v = 0; v < truth.num_bidders(); v += 3) {
    // Misreport: scale the bidder's valuation up or down.
    const double factor = rng.bernoulli(0.5) ? 3.0 : 0.25;
    std::vector<double> scaled(num_bundles(truth.num_channels()), 0.0);
    for (Bundle t = 1; t < num_bundles(truth.num_channels()); ++t) {
      scaled[t] = factor * truth.value(v, t);
    }
    const AuctionInstance reported = truth.with_valuation(
        v, std::make_shared<ExplicitValuation>(truth.num_channels(),
                                               std::move(scaled)));
    const MechanismOutcome lie_outcome = registry_mechanism(reported);
    const std::vector<double> lie_utilities =
        expected_utilities(lie_outcome, truth, reported);
    EXPECT_LE(lie_utilities[v], truthful_utilities[v] + 1e-3)
        << "bidder " << v << " gained by misreporting x" << factor;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Truthfulness, ::testing::Range(0, 5));

TEST(Mechanism, WeightedInstanceSupported) {
  const AuctionInstance instance = gen::make_physical_auction(
      7, 2, PowerScheme::kUniform, gen::ValuationMix::kMixed, 9);
  const MechanismOutcome outcome = registry_mechanism(instance);
  EXPECT_TRUE(instance.feasible(outcome.allocation));
  EXPECT_LE(outcome.decomposition.residual, 1e-5);
}


/// Digest of the "mechanism" solver's serialized report (wall time zeroed:
/// the one field that re-measures per run).
std::string mechanism_report_digest(const AuctionInstance& instance,
                                    const SolveOptions& options,
                                    SolveReport& report) {
  report = make_solver("mechanism")->solve(instance, options);
  report.wall_time_seconds = 0.0;
  wire::Writer writer;
  wire::write_report(writer, report);
  FingerprintHasher hasher;
  hasher.mix(std::string_view(writer.buffer()));
  hasher.mix(writer.buffer().size());
  return hasher.digest().hex();
}

TEST(MechanismGolden, ReportBytesOnFixedInstances) {
  // Pins the whole serialized payload -- VCG optimum and payments, the
  // decomposition entries, rounds, columns_generated, residual, pivots --
  // of two fixed runs: one over the column-generation LP with the
  // decomposition uncapped, one over the explicit LP with max_rounds
  // capped. Recorded before the decomposition moved onto
  // lp::solve_with_benders; any drift means the shared driver changed
  // the Section 5 payload.
  SolveOptions colgen;
  colgen.seed = 11;
  colgen.mechanism.use_colgen = true;
  SolveReport first;
  EXPECT_EQ(mechanism_report_digest(
                gen::make_disk_auction(6, 2, gen::ValuationMix::kMixed, 31),
                colgen, first),
            "424b1574af16a55cf658d6e8d00de530");
  EXPECT_EQ(first.mechanism->decomposition.rounds, 5);
  EXPECT_EQ(first.mechanism->decomposition.columns_generated, 5);
  EXPECT_EQ(first.mechanism->decomposition.entries.size(), 6u);

  SolveOptions capped;
  capped.seed = 5;
  capped.mechanism.decomposition.max_rounds = 3;
  SolveReport second;
  EXPECT_EQ(mechanism_report_digest(
                gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 7),
                capped, second),
            "50bf584dff10c9d54aa2ab99759b7d09");
  EXPECT_EQ(second.mechanism->decomposition.rounds, 3);
  EXPECT_EQ(second.mechanism->decomposition.columns_generated, 3);
  EXPECT_EQ(second.mechanism->decomposition.entries.size(), 3u);
}

}  // namespace
}  // namespace ssa
