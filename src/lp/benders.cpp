#include "lp/benders.hpp"

namespace ssa::lp {

BendersResult solve_with_benders(LinearProgram& master,
                                 const PricingOracle& oracle,
                                 const std::vector<PricedColumn>& seeds,
                                 const BendersOptions& options,
                                 BasisSnapshot* export_basis) {
  BendersResult result;
  if (export_basis != nullptr) *export_basis = BasisSnapshot{};
  for (const PricedColumn& seed : seeds) {
    master.add_column(seed.cost, seed.entries);
  }

  SimplexEngine engine(options.simplex);
  if (options.basis_hint != nullptr && !options.basis_hint->empty()) {
    result.solution =
        engine.solve(master, *options.basis_hint, &result.warm_started);
  } else {
    result.solution = engine.solve(master);
  }

  for (result.rounds = 1; result.rounds <= options.max_rounds;
       ++result.rounds) {
    if (result.solution.status != SolveStatus::kOptimal) {
      result.pivots = engine.pivots();
      return result;
    }
    const std::vector<PricedColumn> columns = oracle(result.solution);
    if (columns.empty()) {
      result.proved_optimal = true;
      result.pivots = engine.pivots();
      if (export_basis != nullptr) *export_basis = engine.export_basis();
      return result;
    }
    // The engine gets the column as the master stored it (sorted by row,
    // duplicates merged), exactly as seed columns reach it through the
    // loaded master, so no oracle's entry order feeds the engine's
    // arithmetic.
    for (const auto& column : columns) {
      const int index = master.add_column(column.cost, column.entries);
      engine.add_column(master.cost(static_cast<std::size_t>(index)),
                        master.column(static_cast<std::size_t>(index)));
      ++result.columns_added;
    }
    result.solution = engine.resolve();
  }
  result.pivots = engine.pivots();
  return result;
}

}  // namespace ssa::lp
