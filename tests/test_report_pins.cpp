// Byte pins of whole serialized solver reports on fixed small instances,
// in the style of MechanismGolden: lp-rounding (explicit and forced column
// generation, unweighted and weighted), asymmetric-lp-rounding, exact,
// asymmetric-exact and asymmetric-colgen at the n=8, k=13 churn shape.
// The digests were recorded before the symmetric and Section-6 LP
// builders, price loops, extractions and branch-and-bound searches were
// merged into one implementation each; any drift means the merge changed
// a payload.

#include <gtest/gtest.h>

#include <string>

#include "api/api.hpp"
#include "gen/scenario.hpp"
#include "support/fingerprint.hpp"
#include "wire/codec.hpp"

namespace ssa {
namespace {

/// Which report fields to zero before digesting. Wall time re-measures on
/// every run; the column-generation diagnostics (pivots, pricing rounds,
/// generated columns) depend on the order columns reach the simplex
/// engine and are not part of the payload.
enum class Zero { kWallTime, kColgenDiagnostics };

template <typename Instance>
std::string report_digest(const std::string& solver, const Instance& instance,
                          const SolveOptions& options, Zero zero) {
  SolveReport report =
      make_solver(solver)->solve(AnyInstance(instance), options);
  EXPECT_TRUE(report.error.empty()) << solver << ": " << report.error;
  report.wall_time_seconds = 0.0;
  if (zero == Zero::kColgenDiagnostics) {
    report.pivots = 0;
    report.oracle_rounds = 0;
    report.columns_generated = 0;
  }
  wire::Writer writer;
  wire::write_report(writer, report);
  FingerprintHasher hasher;
  hasher.mix(std::string_view(writer.buffer()));
  hasher.mix(writer.buffer().size());
  return hasher.digest().hex();
}

SolveOptions pinned_options(std::uint64_t seed) {
  SolveOptions options;
  options.seed = seed;
  options.pipeline.rounding_repetitions = 16;
  return options;
}

TEST(ReportPins, LpRoundingExplicit) {
  const SolveOptions options = pinned_options(3);
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_disk_auction(
                              12, 3, gen::ValuationMix::kMixed, 101),
                          options, Zero::kWallTime),
            "1bb6d6894279d9f31069bc2a678168a5");
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_physical_auction(
                              10, 2, PowerScheme::kUniform,
                              gen::ValuationMix::kMixed, 102),
                          options, Zero::kWallTime),
            "f786149c2dc4ae7f481ddfc0870f5820");
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_random_graph_auction(
                              14, 4, 0.3, gen::ValuationMix::kMixed, 103),
                          options, Zero::kWallTime),
            "709d604eb8bb974e068ae793c892fd2d");
}

TEST(ReportPins, LpRoundingForcedColgen) {
  SolveOptions options = pinned_options(3);
  options.pipeline.force_column_generation = true;
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_disk_auction(
                              12, 3, gen::ValuationMix::kMixed, 101),
                          options, Zero::kWallTime),
            "21e50a2ad9f1b34de5a16c329b32f567");
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_physical_auction(
                              10, 2, PowerScheme::kUniform,
                              gen::ValuationMix::kMixed, 102),
                          options, Zero::kWallTime),
            "a314cfa1c9df0ae40ed915797f05e7aa");
  EXPECT_EQ(report_digest("lp-rounding",
                          gen::make_random_graph_auction(
                              14, 4, 0.3, gen::ValuationMix::kMixed, 103),
                          options, Zero::kWallTime),
            "72123c33119e5c479b0fc4c27282b27c");
}

TEST(ReportPins, AsymmetricLpRounding) {
  const SolveOptions options = pinned_options(5);
  EXPECT_EQ(report_digest("asymmetric-lp-rounding",
                          gen::make_random_asymmetric(
                              9, 3, 0.3, gen::ValuationMix::kMixed, 201),
                          options, Zero::kWallTime),
            "28342ccfbd713715d8d4f85451e8853c");
  EXPECT_EQ(report_digest("asymmetric-lp-rounding",
                          gen::make_hardness_instance(12, 6, 3, 202),
                          options, Zero::kWallTime),
            "1428889ecc7ce8d4e0beee2c358318c8");
}

TEST(ReportPins, Exact) {
  const SolveOptions options = pinned_options(0);
  EXPECT_EQ(report_digest("exact",
                          gen::make_disk_auction(
                              9, 2, gen::ValuationMix::kMixed, 301),
                          options, Zero::kWallTime),
            "768b267ca6a2ce0bd76a6822e28ebeef");
  EXPECT_EQ(report_digest("exact",
                          gen::make_physical_auction(
                              8, 2, PowerScheme::kUniform,
                              gen::ValuationMix::kMixed, 302),
                          options, Zero::kWallTime),
            "c9cb532ca4b915b75fa39025ca5ad46b");
}

TEST(ReportPins, AsymmetricExact) {
  const SolveOptions options = pinned_options(0);
  EXPECT_EQ(report_digest("asymmetric-exact",
                          gen::make_random_asymmetric(
                              8, 3, 0.3, gen::ValuationMix::kMixed, 401),
                          options, Zero::kWallTime),
            "557cde9b24134d9e4039903c2b1cc4cd");
  EXPECT_EQ(report_digest("asymmetric-exact",
                          gen::make_hardness_instance(10, 6, 3, 402),
                          options, Zero::kWallTime),
            "43f2d2452ba01a25e24d0fbac6c62d7c");
}

TEST(ReportPins, AsymmetricColgenAtTheChurnShape) {
  // n = 8, k = 13: one channel past the explicit cap, the asymmetric
  // request shape of the churn benchmark.
  const SolveOptions options = pinned_options(7);
  const char* expected[] = {"0e09b951447af4b4270d49520b9e22b7",
                            "ce5c7da630719e8bc9d8103b0d7f4788",
                            "7c3e593ee2375fced5b6c87f7b90ff5f"};
  for (std::uint64_t s = 0; s < 3; ++s) {
    EXPECT_EQ(report_digest("asymmetric-colgen",
                            gen::make_random_asymmetric(
                                8, 13, 0.3, gen::ValuationMix::kMixed,
                                501 + s),
                            options, Zero::kColgenDiagnostics),
              expected[s])
        << "seed " << 501 + s;
  }
}

}  // namespace
}  // namespace ssa
