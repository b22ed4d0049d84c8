// LP/MILP presolve.
//
// Reduces an LpProblem before the simplex tableau is built and records how
// to map the reduced solution back to the original variable space:
//  * empty rows are checked for consistency and dropped;
//  * singleton rows (one nonzero term) become variable bounds and are
//    dropped — an equality singleton fixes its variable outright;
//  * fixed variables (lo == hi) are substituted into every row and the
//    objective offset, then removed.
// The surviving rows and columns keep their coefficients, so a reduced
// point maps back by copying values: the postsolve is a gather.
#pragma once

#include <vector>

#include "solver/lp.hpp"

namespace loki::solver {

struct PresolveStats {
  int rows_removed = 0;
  int cols_removed = 0;
};

struct PresolveResult;

/// Maps a reduced-space point back to the original variable space.
class Postsolve {
 public:
  /// x_orig[j] = fixed value, or x_reduced[k] for the surviving column
  /// k = reduced_index[j].
  std::vector<double> restore_point(const std::vector<double>& reduced) const;

  int original_variables() const { return static_cast<int>(red_idx_.size()); }
  int reduced_variables() const { return reduced_vars_; }
  /// -1 for eliminated variables, else the reduced column index.
  const std::vector<int>& reduced_index() const { return red_idx_; }
  /// Surviving-row indices into the original constraint list, in order.
  const std::vector<int>& kept_rows() const { return kept_rows_; }

 private:
  friend PresolveResult presolve(const LpProblem&);
  std::vector<int> red_idx_;       // per original var: reduced index or -1
  std::vector<double> fixed_val_;  // per original var: value when red_idx -1
  int reduced_vars_ = 0;
  std::vector<int> kept_rows_;
};

struct PresolveResult {
  /// Presolve proved the problem primal-infeasible; `problem` is empty and
  /// must not be solved.
  bool infeasible = false;
  /// The reduced problem. Objective values of corresponding points agree
  /// with the original problem (the offset absorbs fixed variables).
  LpProblem problem;
  Postsolve post;
  PresolveStats stats;
};

/// Runs the reductions over `p`. Deterministic: identical inputs produce
/// bit-identical reduced problems and postsolve records.
PresolveResult presolve(const LpProblem& p);

}  // namespace loki::solver
