#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ssa::lp {

SimplexEngine::SimplexEngine(SimplexOptions options) : options_(options) {}

void SimplexEngine::load(const LinearProgram& lp) {
  original_objective_ = lp.objective();
  m_ = lp.num_rows();
  original_rows_ = m_;
  rhs_.assign(m_, 0.0);
  row_scale_.assign(m_, 1.0);
  cols_.clear();
  structural_.clear();
  phase1_needed_ = false;

  // Scale rows so that b >= 0; senses flip with the scale.
  std::vector<RowSense> sense(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    double b = lp.rhs(i);
    RowSense s = lp.row_sense(i);
    if (b < 0.0) {
      b = -b;
      row_scale_[i] = -1.0;
      if (s == RowSense::kLessEqual) {
        s = RowSense::kGreaterEqual;
      } else if (s == RowSense::kGreaterEqual) {
        s = RowSense::kLessEqual;
      }
    }
    rhs_[i] = b;
    sense[i] = s;
  }

  // Structural columns (row-scaled, objective in internal max convention).
  const double obj_sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  for (std::size_t j = 0; j < lp.num_columns(); ++j) {
    InternalColumn col;
    col.kind = ColKind::kStructural;
    col.cost = obj_sign * lp.cost(j);
    for (const auto& entry : lp.column(j)) {
      col.entries.push_back({entry.row, entry.coeff * row_scale_[entry.row]});
    }
    structural_.push_back(static_cast<int>(cols_.size()));
    cols_.push_back(std::move(col));
  }

  // Slack/surplus columns and the initial basis. Rows whose slack cannot
  // start basic (>=, =) get an artificial and trigger phase 1.
  basis_.assign(m_, -1);
  row_aux_.assign(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    if (sense[i] == RowSense::kLessEqual) {
      InternalColumn slack;
      slack.kind = ColKind::kSlack;
      slack.entries = {{static_cast<int>(i), 1.0}};
      basis_[i] = static_cast<int>(cols_.size());
      row_aux_[i] = static_cast<int>(cols_.size());
      cols_.push_back(std::move(slack));
    } else if (sense[i] == RowSense::kGreaterEqual) {
      InternalColumn surplus;
      surplus.kind = ColKind::kSlack;
      surplus.entries = {{static_cast<int>(i), -1.0}};
      row_aux_[i] = static_cast<int>(cols_.size());
      cols_.push_back(std::move(surplus));
    }
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] != -1) continue;
    InternalColumn artificial;
    artificial.kind = ColKind::kArtificial;
    artificial.entries = {{static_cast<int>(i), 1.0}};
    basis_[i] = static_cast<int>(cols_.size());
    cols_.push_back(std::move(artificial));
    phase1_needed_ = true;
  }

  position_.assign(cols_.size(), -1);
  for (std::size_t i = 0; i < m_; ++i) position_[basis_[i]] = static_cast<int>(i);
  binv_ = Matrix::identity(m_);
  beta_ = rhs_;
  pivots_since_refactor_ = 0;
  has_solution_ = false;
}

std::vector<double> SimplexEngine::phase_costs(int phase) const {
  std::vector<double> costs(cols_.size(), 0.0);
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    if (phase == 1) {
      costs[j] = cols_[j].kind == ColKind::kArtificial ? -1.0 : 0.0;
    } else {
      costs[j] = cols_[j].kind == ColKind::kStructural ? cols_[j].cost : 0.0;
    }
  }
  return costs;
}

std::vector<double> SimplexEngine::ftran(const InternalColumn& col) const {
  std::vector<double> d(m_, 0.0);
  for (const auto& entry : col.entries) {
    const double coeff = entry.coeff;
    if (coeff == 0.0) continue;
    const std::size_t row = static_cast<std::size_t>(entry.row);
    for (std::size_t i = 0; i < m_; ++i) d[i] += coeff * binv_(i, row);
  }
  return d;
}

void SimplexEngine::refactorize() {
  if (m_ == 0) return;
  Matrix basis_matrix(m_, m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    for (const auto& entry : cols_[basis_[i]].entries) {
      basis_matrix(static_cast<std::size_t>(entry.row), i) += entry.coeff;
    }
  }
  Matrix inverse;
  if (!invert(basis_matrix, inverse)) {
    throw std::runtime_error("simplex: singular basis during refactorization");
  }
  binv_ = std::move(inverse);
  beta_ = binv_.multiply(rhs_);
  pivots_since_refactor_ = 0;
}

SolveStatus SimplexEngine::iterate(int phase) {
  const std::vector<double> costs = phase_costs(phase);
  const double tol = options_.tolerance;
  int consecutive_degenerate = 0;
  bool bland = false;

  for (;;) {
    if (pivots_ >= options_.max_iterations) return SolveStatus::kIterationLimit;
    // Cooperative deadline: polled every 32 pivots (and on entry, so an
    // already-expired budget returns before the first BTRAN).
    if ((pivots_ & 31) == 0 && options_.deadline.expired()) {
      return SolveStatus::kTimeLimit;
    }

    // BTRAN: y = c_B B^-1.
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = costs[basis_[i]];
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) y[j] += cb * binv_(i, j);
    }

    // Pricing. In phase 2 artificials may not enter.
    int entering = -1;
    double best_rc = tol;
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      if (position_[j] >= 0) continue;
      if (phase == 2 && cols_[j].kind == ColKind::kArtificial) continue;
      double rc = costs[j];
      for (const auto& entry : cols_[j].entries) rc -= y[entry.row] * entry.coeff;
      if (rc > best_rc) {
        entering = static_cast<int>(j);
        best_rc = rc;
        if (bland) break;  // Bland: first improving index
      }
    }
    if (entering < 0) return SolveStatus::kOptimal;

    // FTRAN and ratio test.
    std::vector<double> d = ftran(cols_[entering]);
    int leaving_pos = -1;
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m_; ++i) {
      if (d[i] > tol) {
        const double ratio = std::max(beta_[i], 0.0) / d[i];
        if (ratio < theta - tol ||
            (ratio < theta + tol &&
             (leaving_pos < 0 ||
              (bland ? basis_[i] < basis_[leaving_pos]
                     : d[i] > d[leaving_pos])))) {
          theta = ratio;
          leaving_pos = static_cast<int>(i);
        }
      }
    }
    if (leaving_pos < 0) {
      // No blocking row: unbounded in phase 2; in phase 1 the objective is
      // bounded by 0 so this indicates numerical trouble -> refactor once.
      if (phase == 1) {
        refactorize();
        continue;
      }
      return SolveStatus::kUnbounded;
    }

    // Pivot.
    const int leaving_col = basis_[leaving_pos];
    const double pivot_value = d[leaving_pos];
    const std::size_t r = static_cast<std::size_t>(leaving_pos);

    // Update basic values.
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      beta_[i] -= theta * d[i];
      if (beta_[i] < 0.0 && beta_[i] > -1e-7) beta_[i] = 0.0;
    }
    beta_[r] = theta;

    // Eta update of B^-1.
    const double inv_pivot = 1.0 / pivot_value;
    for (std::size_t j = 0; j < m_; ++j) binv_(r, j) *= inv_pivot;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double factor = d[i];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) binv_(i, j) -= factor * binv_(r, j);
    }

    position_[leaving_col] = -1;
    position_[entering] = leaving_pos;
    basis_[leaving_pos] = entering;
    ++pivots_;
    ++pivots_since_refactor_;

    if (theta <= tol) {
      if (++consecutive_degenerate >= options_.bland_after_stalls) bland = true;
    } else {
      consecutive_degenerate = 0;
      bland = false;
    }

    if (pivots_since_refactor_ >= options_.refactor_period) refactorize();
  }
}

void SimplexEngine::polish_vertex(std::vector<double>& x) const {
  constexpr double kSupportTol = 1e-9;  // x above this is "positive"
  constexpr double kActiveTol = 1e-9;   // slack below this is "tight"
  constexpr double kPivotTol = 1e-11;   // elimination rank threshold
  constexpr double kAgreeTol = 1e-6;    // max drift from the basis values

  std::vector<std::size_t> support;
  for (std::size_t s = 0; s < structural_.size(); ++s) {
    if (x[s] > kSupportTol) support.push_back(s);
  }
  if (support.empty()) return;  // the all-zero vertex is already canonical

  // Active rows: equality rows always, inequality rows whose slack/surplus
  // sits at (numerical) zero. At a unique optimal vertex this set does not
  // depend on which optimal basis the pivot path terminated in.
  std::vector<std::size_t> active;
  std::vector<int> row_of(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    double slack = 0.0;
    if (row_aux_[i] >= 0) {
      const int pos = position_[row_aux_[i]];
      if (pos >= 0) slack = std::max(0.0, beta_[static_cast<std::size_t>(pos)]);
    }
    if (slack <= kActiveTol) {
      row_of[i] = static_cast<int>(active.size());
      active.push_back(i);
    }
  }
  if (active.size() < support.size()) return;

  // Augmented system [A_{active,support} | b_active] in the internal row
  // scaling -- a deterministic function of the loaded LP alone.
  const std::size_t rows = active.size();
  const std::size_t cols = support.size();
  Matrix system(rows, cols + 1, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    for (const auto& entry : cols_[structural_[support[c]]].entries) {
      const int r = row_of[static_cast<std::size_t>(entry.row)];
      if (r >= 0) system(static_cast<std::size_t>(r), c) += entry.coeff;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) system(r, cols) = rhs_[active[r]];

  // Gauss-Jordan with deterministic partial pivoting (largest |pivot|,
  // earliest row on exact ties). Any rank deficiency keeps the basis x.
  std::vector<std::size_t> pivot_row(cols, 0);
  std::size_t next = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    std::size_t best = next;
    double best_abs = std::abs(system(next, c));
    for (std::size_t r = next + 1; r < rows; ++r) {
      const double a = std::abs(system(r, c));
      if (a > best_abs) {
        best_abs = a;
        best = r;
      }
    }
    if (best_abs < kPivotTol) return;
    if (best != next) {
      for (std::size_t k = 0; k <= cols; ++k) {
        std::swap(system(next, k), system(best, k));
      }
    }
    const double inv_pivot = 1.0 / system(next, c);
    for (std::size_t k = c; k <= cols; ++k) system(next, k) *= inv_pivot;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == next) continue;
      const double factor = system(r, c);
      if (factor == 0.0) continue;
      for (std::size_t k = c; k <= cols; ++k) {
        system(r, k) -= factor * system(next, k);
      }
    }
    pivot_row[c] = next;
    ++next;
  }

  // Commit only when the canonical values agree with the basis values:
  // disagreement means the support/active detection misfired (degenerate
  // tie at a tolerance boundary), where keeping the basis x is the honest
  // answer.
  std::vector<double> polished(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    polished[c] = std::max(0.0, system(pivot_row[c], cols));
    if (std::abs(polished[c] - x[support[c]]) > kAgreeTol) return;
  }
  for (std::size_t c = 0; c < cols; ++c) x[support[c]] = polished[c];
}

Solution SimplexEngine::extract_solution(SolveStatus status) {
  Solution solution;
  solution.status = status;
  solution.pivots = pivots_;
  solution.x.assign(structural_.size(), 0.0);
  solution.duals.assign(original_rows_, 0.0);
  if (status == SolveStatus::kInfeasible) {
    has_solution_ = false;
    return solution;
  }

  // Canonical extraction, step 1: rebuild the inverse from the final basis
  // so the extracted values do not depend on the eta-update history of the
  // pivot path. (A numerically singular basis keeps the eta state; the
  // polish below then rejects itself through its agreement check.)
  if (status == SolveStatus::kOptimal && m_ > 0) {
    try {
      refactorize();
    } catch (const std::runtime_error&) {
    }
  }

  for (std::size_t s = 0; s < structural_.size(); ++s) {
    const int pos = position_[structural_[s]];
    if (pos >= 0) solution.x[s] = std::max(0.0, beta_[pos]);
    // Snap basic-at-zero values so a variable that is zero at the vertex
    // extracts as exactly 0.0 whether it ended basic or non-basic.
    if (solution.x[s] < 1e-9) solution.x[s] = 0.0;
  }
  // Canonical extraction, step 2: recompute the positive support from the
  // active-row system, a basis-independent function of the LP and the
  // optimal vertex -- warm and cold pivot paths then extract bitwise-equal
  // payloads (file comment in simplex.hpp).
  if (status == SolveStatus::kOptimal) polish_vertex(solution.x);

  // Duals from phase-2 costs: y_int = c_B B^-1, mapped back to the original
  // row scaling and objective sense so that strong duality holds as stated
  // in lp_model.hpp.
  const std::vector<double> costs = phase_costs(2);
  std::vector<double> y(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = costs[basis_[i]];
    if (cb == 0.0) continue;
    for (std::size_t j = 0; j < m_; ++j) y[j] += cb * binv_(i, j);
  }
  const double sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  for (std::size_t i = 0; i < original_rows_; ++i) {
    solution.duals[i] = sign * y[i] * row_scale_[i];
  }

  double objective = 0.0;
  for (std::size_t s = 0; s < structural_.size(); ++s) {
    objective += cols_[structural_[s]].cost * solution.x[s];
  }
  solution.objective = sign * objective;
  has_solution_ = status == SolveStatus::kOptimal;
  return solution;
}

Solution SimplexEngine::solve_loaded() {
  if (phase1_needed_) {
    const SolveStatus phase1 = iterate(1);
    if (phase1 != SolveStatus::kOptimal) return extract_solution(phase1);
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (cols_[basis_[i]].kind == ColKind::kArtificial) {
        infeasibility += std::max(0.0, beta_[i]);
      }
    }
    if (infeasibility > 1e-7) return extract_solution(SolveStatus::kInfeasible);
  }
  return extract_solution(iterate(2));
}

Solution SimplexEngine::solve(const LinearProgram& lp) {
  load(lp);
  return solve_loaded();
}

Solution SimplexEngine::solve(const LinearProgram& lp,
                              const BasisSnapshot& hint, bool* warm_used) {
  if (warm_used) *warm_used = false;
  load(lp);
  if (!try_install(hint)) {
    load(lp);  // try_install may have half-mutated the basis state
    return solve_loaded();
  }
  if (phase1_needed_) {
    // Restricted phase 1: only the repair artificials installed at the
    // violated positions carry phase-1 cost, so the drive-out touches the
    // infeasible part of the basis and leaves the rest in place.
    const SolveStatus phase1 = iterate(1);
    if (phase1 == SolveStatus::kIterationLimit ||
        phase1 == SolveStatus::kTimeLimit) {
      return extract_solution(phase1);
    }
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (cols_[basis_[i]].kind == ColKind::kArtificial) {
        infeasibility += std::max(0.0, beta_[i]);
      }
    }
    if (phase1 != SolveStatus::kOptimal || infeasibility > 1e-7) {
      // The repair could not reach feasibility from this hint; the LP may
      // still be feasible from scratch, so the fallback owns the verdict.
      load(lp);
      return solve_loaded();
    }
  }
  if (warm_used) *warm_used = true;
  return extract_solution(iterate(2));
}

bool SimplexEngine::try_install(const BasisSnapshot& hint) {
  if (hint.rows != m_ || hint.basic.size() != m_ ||
      hint.structurals != structural_.size() || m_ == 0) {
    return false;
  }

  // Resolve snapshot entries to internal columns; artificial entries are
  // materialized on demand (an exported optimal basis can carry them at
  // zero, e.g. on equality rows).
  std::vector<int> desired(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) {
    const BasisSnapshot::Entry& entry = hint.basic[i];
    switch (entry.kind) {
      case BasisSnapshot::Kind::kStructural:
        if (entry.index < 0 ||
            entry.index >= static_cast<std::int32_t>(structural_.size())) {
          return false;
        }
        desired[i] = structural_[static_cast<std::size_t>(entry.index)];
        break;
      case BasisSnapshot::Kind::kSlack:
        if (entry.index < 0 ||
            entry.index >= static_cast<std::int32_t>(m_) ||
            row_aux_[static_cast<std::size_t>(entry.index)] < 0) {
          return false;
        }
        desired[i] = row_aux_[static_cast<std::size_t>(entry.index)];
        break;
      case BasisSnapshot::Kind::kArtificial: {
        if (entry.index < 0 || entry.index >= static_cast<std::int32_t>(m_)) {
          return false;
        }
        InternalColumn artificial;
        artificial.kind = ColKind::kArtificial;
        artificial.entries = {{entry.index, 1.0}};
        desired[i] = static_cast<int>(cols_.size());
        cols_.push_back(std::move(artificial));
        position_.push_back(-1);
        break;
      }
      default:
        return false;
    }
  }
  std::vector<char> used(cols_.size(), 0);
  for (const int col : desired) {
    if (used[static_cast<std::size_t>(col)]) return false;  // duplicate
    used[static_cast<std::size_t>(col)] = 1;
  }

  // Rebuild the inverse for the candidate basis; singular means the
  // donor's basis does not span this LP's row space.
  Matrix basis_matrix(m_, m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    for (const auto& entry : cols_[desired[i]].entries) {
      basis_matrix(static_cast<std::size_t>(entry.row), i) += entry.coeff;
    }
  }
  Matrix inverse;
  if (!invert(basis_matrix, inverse)) return false;

  basis_ = desired;
  std::fill(position_.begin(), position_.end(), -1);
  for (std::size_t i = 0; i < m_; ++i) {
    position_[basis_[i]] = static_cast<int>(i);
  }
  binv_ = std::move(inverse);
  beta_ = binv_.multiply(rhs_);
  pivots_since_refactor_ = 0;

  // Feasibility repair restricted to the violated positions: swap the
  // basic column at a negative position for its own negation, kept as an
  // artificial. B' = B D with D = diag(1,..,-1,..,1), so the inverse needs
  // only that row negated and the basic value flips positive; phase 1 then
  // drives exactly these artificials out.
  phase1_needed_ = false;
  for (std::size_t i = 0; i < m_; ++i) {
    if (beta_[i] >= -options_.tolerance) {
      if (beta_[i] < 0.0) beta_[i] = 0.0;
      if (cols_[basis_[i]].kind == ColKind::kArtificial &&
          beta_[i] > options_.tolerance) {
        phase1_needed_ = true;  // installed artificial at a positive value
      }
      continue;
    }
    InternalColumn negated;
    negated.kind = ColKind::kArtificial;
    for (const auto& entry : cols_[basis_[i]].entries) {
      negated.entries.push_back({entry.row, -entry.coeff});
    }
    const int col = static_cast<int>(cols_.size());
    cols_.push_back(std::move(negated));
    position_.push_back(-1);
    position_[basis_[i]] = -1;
    basis_[i] = col;
    position_[col] = static_cast<int>(i);
    for (std::size_t j = 0; j < m_; ++j) binv_(i, j) = -binv_(i, j);
    beta_[i] = -beta_[i];
    phase1_needed_ = true;
  }
  return true;
}

BasisSnapshot SimplexEngine::export_basis() const {
  if (!has_solution_) {
    throw std::logic_error("SimplexEngine::export_basis: no prior optimal solve");
  }
  BasisSnapshot snapshot;
  snapshot.rows = static_cast<std::uint32_t>(m_);
  snapshot.structurals = static_cast<std::uint32_t>(structural_.size());
  snapshot.basic.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    const int col = basis_[i];
    BasisSnapshot::Entry entry;
    switch (cols_[col].kind) {
      case ColKind::kStructural: {
        const auto it =
            std::lower_bound(structural_.begin(), structural_.end(), col);
        entry.kind = BasisSnapshot::Kind::kStructural;
        entry.index = static_cast<std::int32_t>(it - structural_.begin());
        break;
      }
      case ColKind::kSlack:
        entry.kind = BasisSnapshot::Kind::kSlack;
        entry.index = cols_[col].entries.front().row;
        break;
      case ColKind::kArtificial:
        // Repair artificials span several rows; the canonical stand-in is
        // the unit artificial of the position they occupy (install
        // re-validates and re-repairs anyway).
        entry.kind = BasisSnapshot::Kind::kArtificial;
        entry.index = static_cast<std::int32_t>(i);
        break;
    }
    snapshot.basic[i] = entry;
  }
  return snapshot;
}

int SimplexEngine::add_column(double cost,
                              std::span<const ColumnEntry> entries) {
  const double obj_sign = original_objective_ == Objective::kMaximize ? 1.0 : -1.0;
  InternalColumn col;
  col.kind = ColKind::kStructural;
  col.cost = obj_sign * cost;
  for (const auto& entry : entries) {
    if (entry.row < 0 || entry.row >= static_cast<int>(original_rows_)) {
      throw std::out_of_range("SimplexEngine::add_column: bad row");
    }
    col.entries.push_back({entry.row, entry.coeff * row_scale_[entry.row]});
  }
  structural_.push_back(static_cast<int>(cols_.size()));
  cols_.push_back(std::move(col));
  position_.push_back(-1);
  return static_cast<int>(structural_.size()) - 1;
}

Solution SimplexEngine::resolve() {
  if (!has_solution_) {
    throw std::logic_error("SimplexEngine::resolve: no prior optimal solve");
  }
  return extract_solution(iterate(2));
}

Solution solve(const LinearProgram& lp, SimplexOptions options) {
  SimplexEngine engine(options);
  return engine.solve(lp);
}

}  // namespace ssa::lp
