// LP/MILP presolve and scaling.
//
// Reduces an LpProblem before the simplex tableau is built and records how
// to map the reduced solution back to the original variable space:
//  * empty rows are checked for consistency and dropped;
//  * singleton rows (one nonzero term) become variable bounds and are
//    dropped — an equality singleton fixes its variable outright;
//  * fixed variables (lo == hi) are substituted into every row and the
//    objective offset, then removed;
//  * row-based bound tightening propagates implied bounds from row
//    activities (integer bounds are rounded to integers), which is what
//    gives the allocation models their finite boxes: the flow rows imply
//    c(p) <= 1 and the cluster row implies n <= S, and finite boxes are
//    what lets the simplex start dual-feasible and skip phase 1 entirely;
//  * geometric-mean row/column equilibration rescales the surviving
//    matrix. Every scale factor is a power of two, so scaling and
//    unscaling are exact floating-point operations and a presolved solve
//    maps back to the original space bit-deterministically. Integer
//    columns are never scaled (an integer grid only survives scale 1).
//
// The allocation models mix demand-scaled coefficients (~1e3) with
// accuracy terms (~1); equilibration narrows that spread, which directly
// cuts degenerate pivoting on the overload LPs.
#pragma once

#include <vector>

#include "solver/lp.hpp"

namespace loki::solver {

struct PresolveOptions {
  bool eliminate_rows = true;   // empty + singleton row elimination
  bool substitute_fixed = true; // remove lo == hi variables
  bool tighten_bounds = true;   // row-activity implied bounds
  bool scale = true;            // pow2 geometric-mean equilibration
  int max_passes = 4;           // reduction passes before giving up on a
                                // fixpoint (each pass is O(nnz))
  double feas_tol = 1e-9;       // infeasibility slack on dropped rows
  double int_tol = 1e-6;        // integrality slack when rounding bounds
};

struct PresolveStats {
  int rows_removed = 0;
  int cols_removed = 0;
  int bounds_tightened = 0;
};

struct PresolveResult;

/// Maps a reduced-space point back to the original variable space. All
/// scale factors are powers of two, so the mapping is exact.
class Postsolve {
 public:
  /// x_orig[j] = fixed value, or col_scale[k] * x_reduced[k] for the
  /// surviving column k = reduced_index[j].
  std::vector<double> restore_point(const std::vector<double>& reduced) const;

  int original_variables() const { return static_cast<int>(red_idx_.size()); }
  int reduced_variables() const { return static_cast<int>(col_scale_.size()); }
  /// -1 for eliminated variables, else the reduced column index.
  const std::vector<int>& reduced_index() const { return red_idx_; }
  /// Surviving-row indices into the original constraint list, in order.
  const std::vector<int>& kept_rows() const { return kept_rows_; }

 private:
  friend PresolveResult presolve(const LpProblem&, const PresolveOptions&);
  std::vector<int> red_idx_;       // per original var: reduced index or -1
  std::vector<double> fixed_val_;  // per original var: value when red_idx -1
  std::vector<double> col_scale_;  // per reduced var: pow2 factor (x = s*x')
  std::vector<int> kept_rows_;
};

struct PresolveResult {
  /// Presolve proved the problem primal-infeasible; `problem` is empty and
  /// must not be solved.
  bool infeasible = false;
  /// The reduced, scaled problem. Objective values of corresponding points
  /// agree with the original problem (the offset absorbs fixed variables).
  LpProblem problem;
  Postsolve post;
  PresolveStats stats;
};

/// Runs the reductions of `opt` over `p`. Deterministic: identical inputs
/// produce bit-identical reduced problems and postsolve records.
PresolveResult presolve(const LpProblem& p, const PresolveOptions& opt = {});

}  // namespace loki::solver
