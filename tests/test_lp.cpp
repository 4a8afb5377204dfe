// Tests for the revised-simplex solver and the column-generation engine.
// Random packing LPs are verified by certificate: primal feasibility, dual
// feasibility (all reduced costs <= 0) and strong duality together prove
// optimality without an external solver.

#include <gtest/gtest.h>

#include <cmath>

#include "lp/benders.hpp"
#include "lp/lp_model.hpp"
#include "lp/simplex.hpp"
#include "support/random.hpp"

namespace ssa::lp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x = 4, y = 0, obj 12.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 6.0);
  model.add_column(3.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 3.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 12.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 4.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 0.0, 1e-9);
}

TEST(Simplex, KnownFractionalOptimum) {
  // max x + y s.t. 2x + y <= 2, x + 2y <= 2 -> x = y = 2/3, obj 4/3.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 2.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 2.0);
  model.add_column(1.0, {{r0, 2.0}, {r1, 1.0}});
  model.add_column(1.0, {{r0, 1.0}, {r1, 2.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 4.0 / 3.0, 1e-9);
}

TEST(Simplex, Minimization) {
  // min 2x + 3y s.t. x + y >= 4, x <= 3 -> x = 3, y = 1, obj 9.
  LinearProgram model(Objective::kMinimize);
  const int r0 = model.add_row(RowSense::kGreaterEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 3.0);
  model.add_column(2.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(3.0, {{r0, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 9.0, 1e-9);
}

TEST(Simplex, EqualityRows) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> x = 1, y = 2, obj 5.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kEqual, 3.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 2.0);
  model.add_column(1.0, {{r0, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(Simplex, NegativeRhsHandled) {
  // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, -2.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 5.0);
  model.add_column(1.0, {{r0, -1.0}, {r1, 1.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2.
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 1.0);
  const int r1 = model.add_row(RowSense::kGreaterEqual, 2.0);
  model.add_column(1.0, {{r0, 1.0}, {r1, 1.0}});
  EXPECT_EQ(solve(model).status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 1.0);
  model.add_column(1.0, {});  // no constraint touches the column
  (void)r0;
  EXPECT_EQ(solve(model).status, SolveStatus::kUnbounded);
}

TEST(Simplex, ZeroColumnsGiveZeroObjective) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kLessEqual, 1.0);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(solution.objective, 0.0);
}

TEST(Simplex, EqualityWithZeroColumnsInfeasible) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kEqual, 1.0);
  EXPECT_EQ(solve(model).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LinearProgram model(Objective::kMaximize);
  std::vector<int> rows;
  for (int i = 0; i < 12; ++i) rows.push_back(model.add_row(RowSense::kLessEqual, 1.0));
  std::vector<ColumnEntry> entries;
  for (int r : rows) entries.push_back({r, 1.0});
  model.add_column(1.0, entries);
  model.add_column(1.0, entries);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-9);
}

TEST(Simplex, StrongDualityOnSimpleProblem) {
  LinearProgram model(Objective::kMaximize);
  const int r0 = model.add_row(RowSense::kLessEqual, 4.0);
  const int r1 = model.add_row(RowSense::kLessEqual, 6.0);
  model.add_column(3.0, {{r0, 1.0}, {r1, 1.0}});
  model.add_column(2.0, {{r0, 1.0}, {r1, 3.0}});
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  const double dual_value =
      solution.duals[0] * 4.0 + solution.duals[1] * 6.0;
  EXPECT_NEAR(dual_value, solution.objective, 1e-8);
  EXPECT_GE(solution.duals[0], -1e-9);
  EXPECT_GE(solution.duals[1], -1e-9);
}

/// Certificate check for a random packing LP: feasibility, dual
/// feasibility, strong duality.
class RandomPackingLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomPackingLp, OptimalityCertificate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t rows = 3 + rng.uniform_int(10);
  const std::size_t cols = 3 + rng.uniform_int(20);
  LinearProgram model(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    model.add_row(RowSense::kLessEqual, rng.uniform(1.0, 10.0));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<ColumnEntry> entries;
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) {
        entries.push_back({static_cast<int>(r), rng.uniform(0.1, 2.0)});
      }
    }
    if (entries.empty()) {  // an unconstrained column would be unbounded
      entries.push_back({static_cast<int>(rng.uniform_int(rows)),
                         rng.uniform(0.1, 2.0)});
    }
    model.add_column(rng.uniform(0.5, 5.0), entries);
  }
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);

  // Primal feasibility.
  EXPECT_LE(model.max_violation(solution.x), 1e-7);
  // Dual feasibility: c_j - y^T A_j <= tol for every column, y >= 0.
  for (std::size_t r = 0; r < rows; ++r) EXPECT_GE(solution.duals[r], -1e-8);
  for (std::size_t c = 0; c < cols; ++c) {
    double rc = model.cost(c);
    for (const auto& entry : model.column(c)) {
      rc -= solution.duals[static_cast<std::size_t>(entry.row)] * entry.coeff;
    }
    EXPECT_LE(rc, 1e-7) << "column " << c;
  }
  // Strong duality.
  double dual_value = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    dual_value += solution.duals[r] * model.rhs(r);
  }
  EXPECT_NEAR(dual_value, solution.objective,
              1e-6 * (1.0 + std::abs(solution.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPackingLp, ::testing::Range(0, 25));

TEST(Simplex, IncrementalColumnAdditionMatchesScratchSolve) {
  Rng rng(99);
  LinearProgram model(Objective::kMaximize);
  for (int r = 0; r < 6; ++r) model.add_row(RowSense::kLessEqual, 5.0);
  for (int c = 0; c < 4; ++c) {
    std::vector<ColumnEntry> entries;
    for (int r = 0; r < 6; ++r) {
      if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
    }
    model.add_column(rng.uniform(1.0, 3.0), entries);
  }
  SimplexEngine engine;
  Solution first = engine.solve(model);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  // Add two more columns both ways.
  std::vector<std::pair<double, std::vector<ColumnEntry>>> extra;
  for (int c = 0; c < 2; ++c) {
    std::vector<ColumnEntry> entries;
    for (int r = 0; r < 6; ++r) {
      if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
    }
    extra.emplace_back(rng.uniform(2.0, 6.0), entries);
  }
  for (const auto& [cost, entries] : extra) {
    engine.add_column(cost, entries);
    model.add_column(cost, entries);
  }
  const Solution incremental = engine.resolve();
  const Solution scratch = solve(model);
  ASSERT_EQ(incremental.status, SolveStatus::kOptimal);
  ASSERT_EQ(scratch.status, SolveStatus::kOptimal);
  EXPECT_NEAR(incremental.objective, scratch.objective, 1e-7);
}

/// A random packing LP with a generic (unique-vertex) optimum; shared by
/// the warm-start tests below.
LinearProgram random_packing_lp(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t rows = 4 + rng.uniform_int(8);
  const std::size_t cols = 6 + rng.uniform_int(14);
  LinearProgram model(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    model.add_row(RowSense::kLessEqual, rng.uniform(1.0, 10.0));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<ColumnEntry> entries;
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) {
        entries.push_back({static_cast<int>(r), rng.uniform(0.1, 2.0)});
      }
    }
    if (entries.empty()) {
      entries.push_back({static_cast<int>(rng.uniform_int(rows)),
                         rng.uniform(0.1, 2.0)});
    }
    model.add_column(rng.uniform(0.5, 5.0), entries);
  }
  return model;
}

TEST(WarmStart, ExportedBasisRoundTripsAndResolvesPivotFree) {
  const LinearProgram model = random_packing_lp(7);
  SimplexEngine cold_engine;
  const Solution cold = cold_engine.solve(model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const BasisSnapshot basis = cold_engine.export_basis();
  EXPECT_FALSE(basis.empty());
  EXPECT_EQ(basis.basic.size(), static_cast<std::size_t>(basis.rows));

  // Re-solving the SAME model from its own optimal basis needs no pivots
  // and reproduces the solution bitwise.
  SimplexEngine warm_engine;
  bool warm_used = false;
  const Solution warm = warm_engine.solve(model, basis, &warm_used);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm_used);
  EXPECT_EQ(warm.pivots, 0);
  EXPECT_EQ(warm.x, cold.x);  // bitwise, not approximately
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(WarmStart, PerturbedObjectiveReusesBasisWithFewerPivots) {
  // The warm-start workload: same constraint matrix, perturbed objective.
  // The old basis stays primal feasible, so the warm solve re-optimizes in
  // (far) fewer pivots and lands on the identical payload.
  int strictly_fewer = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const LinearProgram base = random_packing_lp(seed);
    SimplexEngine donor;
    ASSERT_EQ(donor.solve(base).status, SolveStatus::kOptimal);
    const BasisSnapshot basis = donor.export_basis();

    Rng rng(seed ^ 0xabcdef);
    LinearProgram perturbed(Objective::kMaximize);
    for (std::size_t r = 0; r < base.num_rows(); ++r) {
      perturbed.add_row(base.row_sense(r), base.rhs(r));
    }
    for (std::size_t c = 0; c < base.num_columns(); ++c) {
      perturbed.add_column(base.cost(c) * rng.uniform(0.95, 1.05),
                           {base.column(c).begin(), base.column(c).end()});
    }

    SimplexEngine cold_engine;
    const Solution cold = cold_engine.solve(perturbed);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    SimplexEngine warm_engine;
    bool warm_used = false;
    const Solution warm = warm_engine.solve(perturbed, basis, &warm_used);
    ASSERT_EQ(warm.status, SolveStatus::kOptimal);
    EXPECT_TRUE(warm_used);
    EXPECT_LE(warm.pivots, cold.pivots) << "seed " << seed;
    if (warm.pivots < cold.pivots) ++strictly_fewer;
    // Payload identity is the warm-start contract: bitwise, not "near".
    EXPECT_EQ(warm.x, cold.x) << "seed " << seed;
    EXPECT_EQ(warm.objective, cold.objective) << "seed " << seed;
  }
  EXPECT_GE(strictly_fewer, 5);  // the reuse must actually save work
}

TEST(WarmStart, ChangedRhsRepairsViaRestrictedPhase1) {
  // Shrinking an rhs can make the donor basis primal infeasible; the
  // install must repair it (restricted phase 1) and still reach the true
  // optimum -- identical to the cold solve of the modified model.
  const LinearProgram base = random_packing_lp(11);
  SimplexEngine donor;
  ASSERT_EQ(donor.solve(base).status, SolveStatus::kOptimal);
  const BasisSnapshot basis = donor.export_basis();

  LinearProgram modified(Objective::kMaximize);
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    modified.add_row(base.row_sense(r), base.rhs(r) * (r % 2 ? 0.3 : 1.0));
  }
  for (std::size_t c = 0; c < base.num_columns(); ++c) {
    modified.add_column(base.cost(c),
                        {base.column(c).begin(), base.column(c).end()});
  }

  const Solution cold = solve(modified);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  SimplexEngine warm_engine;
  const Solution warm = warm_engine.solve(modified, basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.x, cold.x);
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(WarmStart, IncompatibleHintFallsBackToCold) {
  const LinearProgram model = random_packing_lp(3);
  SimplexEngine donor;
  ASSERT_EQ(donor.solve(random_packing_lp(20)).status, SolveStatus::kOptimal);
  const BasisSnapshot foreign = donor.export_basis();

  // Dimension mismatch: rejected, cold solve still optimal.
  SimplexEngine engine;
  bool warm_used = true;
  const Solution fallback = engine.solve(model, foreign, &warm_used);
  ASSERT_EQ(fallback.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm_used);
  EXPECT_EQ(fallback.x, solve(model).x);

  // Singular basis (every position the same column): rejected the same way.
  SimplexEngine own_donor;
  ASSERT_EQ(own_donor.solve(model).status, SolveStatus::kOptimal);
  BasisSnapshot corrupt = own_donor.export_basis();
  for (BasisSnapshot::Entry& entry : corrupt.basic) {
    entry = corrupt.basic.front();
  }
  SimplexEngine engine2;
  warm_used = true;
  const Solution fallback2 = engine2.solve(model, corrupt, &warm_used);
  ASSERT_EQ(fallback2.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm_used);
  EXPECT_EQ(fallback2.x, solve(model).x);
}

TEST(ColumnGeneration, ReachesFullModelOptimum) {
  // Full model: 8 columns over 4 rows; the oracle reveals columns lazily.
  Rng rng(123);
  const std::size_t rows = 4, cols = 8;
  std::vector<double> rhs(rows);
  for (auto& b : rhs) b = rng.uniform(2.0, 6.0);
  std::vector<double> costs(cols);
  std::vector<std::vector<ColumnEntry>> entries(cols);
  LinearProgram full(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) full.add_row(RowSense::kLessEqual, rhs[r]);
  for (std::size_t c = 0; c < cols; ++c) {
    costs[c] = rng.uniform(1.0, 4.0);
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.6)) {
        entries[c].push_back({static_cast<int>(r), rng.uniform(0.2, 1.0)});
      }
    }
    full.add_column(costs[c], entries[c]);
  }
  const double full_optimum = solve(full).objective;

  LinearProgram master(Objective::kMaximize);
  for (std::size_t r = 0; r < rows; ++r) {
    master.add_row(RowSense::kLessEqual, rhs[r]);
  }
  std::vector<bool> added(cols, false);
  const PricingOracle oracle =
      [&](const Solution& rmp) -> std::vector<PricedColumn> {
    // Return the best positive-reduced-cost column not yet added.
    int best = -1;
    double best_rc = 1e-7;
    for (std::size_t c = 0; c < cols; ++c) {
      if (added[c]) continue;
      double rc = costs[c];
      for (const auto& entry : entries[c]) {
        rc -= rmp.duals[static_cast<std::size_t>(entry.row)] * entry.coeff;
      }
      if (rc > best_rc) {
        best_rc = rc;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) return {};
    added[static_cast<std::size_t>(best)] = true;
    return {PricedColumn{costs[static_cast<std::size_t>(best)],
                         entries[static_cast<std::size_t>(best)]}};
  };
  // No seeds and no basis hint: the plain column-generation loop.
  const BendersResult result = solve_with_benders(master, oracle, {});
  EXPECT_TRUE(result.proved_optimal);
  EXPECT_FALSE(result.warm_started);
  EXPECT_EQ(result.columns_added,
            static_cast<int>(master.num_columns()));
  EXPECT_NEAR(result.solution.objective, full_optimum, 1e-7);
}

TEST(LpModel, ValidatesInput) {
  LinearProgram model(Objective::kMaximize);
  model.add_row(RowSense::kLessEqual, 1.0);
  EXPECT_THROW(model.add_column(1.0, {{5, 1.0}}), std::out_of_range);
  model.add_column(1.0, {{0, 0.5}, {0, 0.25}});  // duplicates merged
  EXPECT_EQ(model.column(0).size(), 1u);
  EXPECT_DOUBLE_EQ(model.column(0)[0].coeff, 0.75);
}

TEST(LpModel, MaxViolationMeasuresAllSenses) {
  LinearProgram model(Objective::kMaximize);
  const int le = model.add_row(RowSense::kLessEqual, 1.0);
  const int ge = model.add_row(RowSense::kGreaterEqual, 1.0);
  const int eq = model.add_row(RowSense::kEqual, 1.0);
  model.add_column(0.0, {{le, 1.0}, {ge, 1.0}, {eq, 1.0}});
  EXPECT_NEAR(model.max_violation(std::vector<double>{2.0}), 1.0, 1e-12);
  EXPECT_NEAR(model.max_violation(std::vector<double>{1.0}), 0.0, 1e-12);
  EXPECT_NEAR(model.max_violation(std::vector<double>{0.5}), 0.5, 1e-12);
}

}  // namespace
}  // namespace ssa::lp
