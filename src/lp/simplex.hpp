#pragma once
/// \file simplex.hpp
/// Two-phase revised primal simplex with a dense basis inverse.
///
/// Design notes
///  - All variables are non-negative; rows are <=, =, or >=. Internally the
///    problem is converted to max c x, A x = b, b >= 0 with slack/surplus
///    columns and phase-1 artificials.
///  - The basis inverse is maintained with eta (Gauss-Jordan) updates and
///    periodically refactorized from scratch to bound numerical drift.
///  - Dantzig pricing with an automatic switch to Bland's rule after a run
///    of degenerate pivots guarantees termination in practice.
///  - Columns can be appended after a solve and the engine resumes from the
///    current basis, which is what the column-generation loops need: adding
///    a column keeps the current basis primal feasible.
///  - An optimal basis can be exported as a BasisSnapshot and installed
///    into a later solve of a similar LP (warm start): the engine rebuilds
///    the basis inverse, repairs primal feasibility with a phase 1
///    restricted to the violated rows, and re-optimizes. Incompatible or
///    singular snapshots fall back to a cold solve, so a warm solve never
///    fails where a cold one would succeed.
///  - Canonical extraction: at optimality the positive support's values are
///    recomputed from the active-row system by a deterministic elimination
///    that depends only on the LP data and the optimal vertex -- NOT on the
///    pivot path or the final basis. Warm- and cold-started solves of the
///    same LP therefore return bitwise-identical x and objective whenever
///    the optimal vertex is unique (generic instances), which is what lets
///    the serving layer reuse bases without perturbing payloads.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/lp_model.hpp"
#include "support/deadline.hpp"
#include "support/matrix.hpp"

namespace ssa::lp {

/// Solver tunables. Defaults are suitable for the auction LPs in this
/// library (hundreds to a few thousand rows).
struct SimplexOptions {
  double tolerance = 1e-9;        ///< feasibility/optimality tolerance
  int max_iterations = 200000;    ///< total pivot limit
  int refactor_period = 256;      ///< pivots between basis refactorizations
  int bland_after_stalls = 64;    ///< degenerate pivots before Bland's rule
  /// Cooperative wall-clock deadline, polled every few pivots; an expired
  /// deadline makes the solve return SolveStatus::kTimeLimit. Default:
  /// unlimited.
  Deadline deadline = {};
};

/// A compact, engine-independent description of a simplex basis: one entry
/// per row position recording which variable occupies it. Structural
/// variables are identified by their LP column index, slack/surplus and
/// artificial variables by the row they belong to, so a snapshot exported
/// from one engine can be installed into a fresh engine that loaded an LP
/// of the same shape (same row count and structural column count).
struct BasisSnapshot {
  enum class Kind : std::uint8_t {
    kStructural = 0,  ///< index = LP column
    kSlack = 1,       ///< index = owning row (slack or surplus)
    kArtificial = 2,  ///< index = owning row (basic at zero at export time)
  };
  struct Entry {
    Kind kind = Kind::kSlack;
    std::int32_t index = 0;
  };
  std::uint32_t rows = 0;         ///< row count of the donor LP
  std::uint32_t structurals = 0;  ///< structural column count of the donor LP
  std::vector<Entry> basic;       ///< one entry per basis position

  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

/// Stateful simplex engine supporting incremental column addition.
class SimplexEngine {
 public:
  explicit SimplexEngine(SimplexOptions options = {});

  /// Loads and solves \p lp from scratch.
  Solution solve(const LinearProgram& lp);

  /// Loads \p lp and warm-starts from \p hint: installs the snapshot's
  /// basis, repairs primal feasibility (phase 1 restricted to the violated
  /// positions), and re-optimizes. Falls back to a cold solve -- reported
  /// through \p warm_used, when given -- if the snapshot's dimensions do
  /// not match the LP, the basis matrix is singular, or the repair cannot
  /// reach feasibility. The returned payload is identical to the cold
  /// solve's whenever the optimal vertex is unique (see the file comment).
  Solution solve(const LinearProgram& lp, const BasisSnapshot& hint,
                 bool* warm_used = nullptr);

  /// Exports the current basis after an optimal solve()/resolve(). Throws
  /// std::logic_error without a prior optimal solve.
  [[nodiscard]] BasisSnapshot export_basis() const;

  /// Appends a structural column and returns its index. Call resolve()
  /// afterwards. Unlike LinearProgram::add_column the entries are taken as
  /// given: they are neither sorted nor merged, so duplicate rows must not
  /// occur, and their order is the order ftran sums them in. Pass a column
  /// LinearProgram has normalized to match a loaded LP's arithmetic.
  int add_column(double cost, std::span<const ColumnEntry> entries);

  /// Re-optimizes after add_column calls, warm-starting from the current
  /// basis. Requires a previous successful solve().
  Solution resolve();

  /// Number of simplex pivots performed over the lifetime of the engine.
  [[nodiscard]] long long pivots() const noexcept { return pivots_; }

 private:
  enum class ColKind { kStructural, kSlack, kArtificial };

  struct InternalColumn {
    double cost = 0.0;  // phase-2 objective (internal max convention)
    std::vector<ColumnEntry> entries;  // row-scaled
    ColKind kind = ColKind::kStructural;
  };

  void load(const LinearProgram& lp);
  void append_internal_structural(double cost,
                                  const std::vector<ColumnEntry>& entries);
  [[nodiscard]] std::vector<double> phase_costs(int phase) const;
  /// Runs primal simplex pivots for the given phase. Returns status.
  SolveStatus iterate(int phase);
  void refactorize();
  [[nodiscard]] std::vector<double> ftran(const InternalColumn& col) const;
  Solution extract_solution(SolveStatus status);
  /// Cold solve of the already-loaded problem (phase 1 if needed, phase 2).
  Solution solve_loaded();
  /// Installs \p hint as the starting basis of the loaded problem,
  /// rebuilding the inverse and repairing infeasible positions with
  /// restricted artificials. False when the snapshot is incompatible or
  /// its basis matrix is singular (engine state is then unspecified;
  /// callers reload and solve cold).
  [[nodiscard]] bool try_install(const BasisSnapshot& hint);
  /// Deterministic recomputation of the optimal x from the active-row
  /// system; basis-independent (see the file comment). Requires an optimal
  /// basis; leaves \p x untouched when the polish system is unusable.
  void polish_vertex(std::vector<double>& x) const;

  SimplexOptions options_;

  // Problem data in internal form.
  Objective original_objective_ = Objective::kMaximize;
  std::size_t m_ = 0;                       // rows
  std::vector<double> rhs_;                 // b >= 0
  std::vector<double> row_scale_;           // +-1 applied to original rows
  std::vector<InternalColumn> cols_;        // structural, then slack, artificial
  std::vector<int> structural_;             // indices of structural columns
  std::vector<int> row_aux_;                // slack/surplus column per row, -1 if none
  std::size_t original_rows_ = 0;

  // Basis state.
  std::vector<int> basis_;      // column index per row
  std::vector<int> position_;   // row position per column, -1 if non-basic
  Matrix binv_;
  std::vector<double> beta_;    // basic variable values
  long long pivots_ = 0;
  int pivots_since_refactor_ = 0;
  bool has_solution_ = false;
  bool phase1_needed_ = false;
};

/// One-shot convenience wrapper.
[[nodiscard]] Solution solve(const LinearProgram& lp, SimplexOptions options = {});

}  // namespace ssa::lp
