// Bounded-variable primal/dual simplex solver.
//
// Solves the LP relaxation of the Resource Manager's allocation models.
// Design notes:
//  * bounded-variable tableau: variable boxes [lo, hi] are handled natively
//    with nonbasic-at-bound bookkeeping, so finite upper bounds cost nothing
//    (the seed solver materialized each one as an extra tableau row, which
//    doubled m on the all-integer allocation LPs);
//  * the reduced-cost row is maintained incrementally across pivots, so
//    pricing is O(n) per pivot instead of O(m*n); it is rebuilt exactly
//    every 128 pivots and before declaring optimality, which keeps the fast
//    path honest numerically;
//  * two-phase method with explicit artificial columns only on rows whose
//    initial slack basis is infeasible, so infeasibility is detected exactly
//    (the hardware-scaling step *relies* on a clean infeasible verdict to
//    trigger accuracy scaling, §4.1 step 1);
//  * reference-framework devex pricing (Forrest & Goldfarb): approximate
//    steepest-edge weights maintained from the pivot row, reset to the
//    current frame when they grow past 1e8, with an automatic switch to
//    Bland's rule after a run of degenerate pivots, guaranteeing
//    termination; all tie-breaks are lowest-index and therefore
//    deterministic;
//  * SimplexContext keeps the standard form and the final basis alive
//    between solves: bounds can be swapped (branch-and-bound nodes are pure
//    bound overlays) and the next solve warm-starts with a bounded dual
//    simplex from the previous optimal basis, typically finishing in a
//    handful of pivots instead of a full phase-1 + phase-2 run.
#pragma once

#include <string>
#include <vector>

#include "solver/kernels.hpp"
#include "solver/lp.hpp"

namespace loki::solver {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// The dual simplex proved the objective can only end at or above the
  /// caller's cutoff (see solve_with_bounds) and stopped early. The basis
  /// is dual feasible but not primal feasible; `values` are meaningless.
  /// Only ever returned when a finite cutoff was passed.
  kCutoff,
};

std::string to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;            // includes the problem's offset
  std::vector<double> values;        // one per problem variable
  int iterations = 0;                // total pivots + bound flips (all phases)
  int phase1_iterations = 0;         // pivots spent restoring feasibility
                                     // (phase 1, or dual repair on warm start)
  int bound_flips = 0;               // nonbasic bound-to-bound moves
  int devex_resets = 0;              // devex reference-weight resets
  bool warm_started = false;         // solved from a reused basis
};

struct SimplexOptions {
  int max_iterations = 50000;
  int degenerate_switch = 64;   // consecutive degenerate pivots before Bland
  /// Cold solves may start from the all-slack basis with the bounded dual
  /// simplex when that basis is dual feasible (skipping the artificial
  /// phase 1 entirely); off forces the classic two-phase start.
  bool dual_cold_start = true;
};

/// A reusable standard-form instance: the constraint matrix, slack columns
/// and (lazily used) artificial columns are built once from an LpProblem;
/// variable bounds are swappable between solves. After an optimal (or
/// dual-simplex-proven infeasible) solve the final basis is retained and the
/// next solve_with_bounds() warm-starts from it.
class SimplexContext {
 private:
  using VarState = kernels::ColumnState;

 public:
  explicit SimplexContext(const LpProblem& problem,
                          SimplexOptions options = {});

  /// Opaque copy of the full tableau state: basis, B^-1 A, reduced costs,
  /// column bounds and nonbasic states. Lets a caller park the context at a
  /// known point (e.g. right after a root LP solve) and later replay solves
  /// bit-identically: restoring a snapshot puts every float of the tableau
  /// back exactly, so a re-solve of the same model continues with the exact
  /// pivot sequence the original run took from that point. Only meaningful
  /// with the context that produced it (restore() checks the shape).
  class Snapshot {
   public:
    Snapshot() = default;
    bool valid() const { return n > 0; }

   private:
    friend class SimplexContext;
    std::vector<double> a, bvec, xb, d, cost, lo, hi, val;
    std::vector<int> basis;
    std::vector<char> row_active;
    std::vector<VarState> state;
    bool dual_feasible = false;
    int since_refresh = 0;
    int live_n = 0;
    int n = 0;
    int m = 0;
  };

  /// Captures the current tableau state (cheap relative to a solve: one
  /// O(m*n) copy, no pivoting).
  Snapshot snapshot() const;

  /// Restores a snapshot taken from this context (or one of identical
  /// shape). Returns false — leaving the context untouched — when the
  /// snapshot is empty or its dimensions do not match.
  bool restore(const Snapshot& s);

  /// Just the combinatorial part of a basis — which column is basic in each
  /// row and where every nonbasic column sits — with none of the tableau
  /// floats. Unlike Snapshot, a BasisSnapshot can seed a solve of a
  /// *different* problem with the same shape and sparsity (the
  /// near-identical warm-start tier): the tableau is rebuilt from the new
  /// coefficients and the basis crashed in by Gauss-Jordan elimination.
  class BasisSnapshot {
   public:
    BasisSnapshot() = default;
    bool valid() const { return n > 0; }

   private:
    friend class SimplexContext;
    std::vector<int> basis;
    std::vector<VarState> state;
    int n = 0;
    int m = 0;
  };

  /// Captures the current basis. Returns an invalid snapshot when the basis
  /// cannot seed a fresh tableau: a row was disabled as redundant or an
  /// artificial column is still basic.
  BasisSnapshot basis_snapshot() const;

  /// Rebuilds the tableau from the problem data with the problem's own
  /// bounds and crash-starts from `bs` instead of the slack basis: the
  /// recorded basis is pivoted in by Gauss-Jordan elimination (not counted
  /// as simplex iterations — it is a refactorization, not a search), then
  /// primal feasibility is restored by bounded dual simplex and the solve
  /// finishes with a primal pass. Any doubt — shape mismatch, a singular
  /// basis for the current coefficients, a cycling-guard trip — falls back
  /// to a cold solve. The intended caller holds a basis from a
  /// near-identical problem (same shape/sparsity, drifted coefficients),
  /// where this typically costs a handful of pivots instead of a full
  /// phase-1 + phase-2 run.
  LpSolution solve_from_basis(const BasisSnapshot& bs);

  /// Solves with the problem's own bounds (cold or warm).
  LpSolution solve();

  /// Solves with overridden structural-variable bounds (both vectors sized
  /// num_variables()). Lower bounds must be finite; lo > hi for any variable
  /// yields kInfeasible without touching the tableau.
  ///
  /// `dual_cutoff` (minimization form, same scale as the problem objective
  /// including its offset) lets a warm dual re-solve stop early with
  /// kCutoff once its monotonically worsening objective proves the optimum
  /// cannot end below the cutoff — the branch-and-bound node access
  /// pattern, where such a node is bound-pruned anyway and finishing the
  /// solve would be wasted pivots. Crossing is confirmed against an
  /// exactly recomputed objective before kCutoff is declared, so the
  /// verdict never rests on incremental drift. Pass kInf (the default) to
  /// always solve to completion.
  LpSolution solve_with_bounds(const std::vector<double>& lo,
                               const std::vector<double>& hi,
                               double dual_cutoff = kInf);

  int num_variables() const { return nv_; }
  int num_rows() const { return m_; }
  /// True if the next solve can warm-start from the retained basis.
  bool has_warm_basis() const { return basis_dual_feasible_; }

  /// Post-solve introspection for reduced-cost fixing (valid right after an
  /// optimal solve): the minimization-form reduced cost of structural
  /// variable j (0 for basic variables) and which bound it sits at.
  double reduced_cost(int j) const { return d_[j]; }
  bool nonbasic_at_lower(int j) const {
    return state_[j] == VarState::kAtLower;
  }
  bool nonbasic_at_upper(int j) const {
    return state_[j] == VarState::kAtUpper;
  }

 private:
  enum class DualResult : unsigned char {
    kFeasible,    // primal feasibility restored; basis stayed dual-feasible
    kInfeasible,  // a violated row cannot be repaired: LP is infeasible
    kIterLimit,   // global pivot budget exhausted
    kGiveUp,      // cycling guard tripped; caller should cold-solve
    kCutoff,      // objective crossed the caller's cutoff; stopped early
  };

  double& at(int i, int j) { return a_[static_cast<std::size_t>(i) * n_ + j]; }
  double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * n_ + j];
  }
  bool fixed(int j) const { return lo_[j] == hi_[j]; }

  void set_column_bounds_from(const std::vector<double>& lo,
                              const std::vector<double>& hi);
  bool apply_bounds_warm(const std::vector<double>& lo,
                         const std::vector<double>& hi);
  void reset_cold(const std::vector<double>& lo, const std::vector<double>& hi,
                  bool* needs_phase1);
  /// Raw tableau rebuild shared by reset_cold and the crash paths: zeroed
  /// B^-1 A with original coefficients, slack identity, artificials fixed
  /// at zero, solve bounds installed. Leaves states/basis to the caller.
  void build_raw_tableau(const std::vector<double>& lo,
                         const std::vector<double>& hi);
  /// True when every structural variable can be parked at a bound that is
  /// dual feasible for the phase-2 costs under the all-slack basis
  /// (c > 0 needs a finite lower bound, c < 0 a finite upper bound).
  bool can_dual_start(const std::vector<double>& lo,
                      const std::vector<double>& hi) const;
  /// All-slack basis with nonbasic structurals placed by cost sign; basic
  /// values may violate their bounds (the dual simplex repairs that).
  void reset_cold_dual(const std::vector<double>& lo,
                       const std::vector<double>& hi);
  /// Gauss-Jordan crash of a recorded basis into a freshly built raw
  /// tableau. False when the basis is singular for the current matrix.
  bool crash_basis(const BasisSnapshot& bs);
  /// Shift sign-broken reduced costs to zero, repair primal feasibility by
  /// dual simplex, restore the true costs and finish with a primal pass.
  /// Returns false when the caller should cold-solve instead (cycling
  /// guard gave up); otherwise `out` is final. `internal_cutoff` is the
  /// dual early-out threshold in internal cost units (kInf disables; it is
  /// ignored while any cost shift is active, because the tracked objective
  /// would then not be the true one).
  bool repair_and_finish(LpSolution& out, double internal_cutoff);
  void set_phase2_costs();
  void recompute_reduced_costs();
  void recompute_basic_values();
  void pivot(int row, int col, double entering_delta, double leave_value,
             VarState leave_state);
  LpStatus primal_loop(LpSolution& out, bool phase1);
  DualResult dual_repair(LpSolution& out, double internal_cutoff);
  void drive_out_artificials();
  void extract(LpSolution& out);

  SimplexOptions opt_;
  const kernels::Kernels* k_ = &kernels::active();
  // Problem statement (immutable after construction).
  double sign_ = 1.0;  // +1 minimize, -1 maximize (internal form minimizes)
  double obj_offset_ = 0.0;
  int nv_ = 0;  // structural variables
  int m_ = 0;   // rows
  int n_ = 0;   // columns: nv_ structural + m_ slacks + m_ artificials
  // Columns [0, live_n_) are live: nv_ + m_ while every artificial column is
  // all-zero and fixed, n_ once reset_cold has put artificials in play.
  int live_n_ = 0;
  std::vector<double> obj_;  // per structural var, problem sense
  std::vector<double> base_lo_, base_hi_;
  std::vector<std::vector<std::pair<int, double>>> row_terms_;
  std::vector<double> rhs_;
  std::vector<double> slack_lo_, slack_hi_;
  // Tableau state (mutated by solves).
  std::vector<double> a_;     // m_ x n_, row-major: B^-1 A
  std::vector<double> bvec_;  // B^-1 b, maintained incrementally
  std::vector<double> xb_;    // value of the basic variable per row
  std::vector<double> d_;     // reduced costs, maintained incrementally
  std::vector<double> cost_;  // current phase cost per column
  std::vector<int> basis_;
  std::vector<char> row_active_;  // redundant rows disabled after phase 1
  std::vector<double> lo_, hi_;   // per column (solve bounds for structural)
  std::vector<double> val_;       // nonbasic variables: their bound value
  std::vector<VarState> state_;
  std::vector<double> devex_w_;   // devex reference weights (per column);
                                  // re-initialized at every primal pass, so
                                  // not part of Snapshot state
  bool basis_dual_feasible_ = false;
  int since_refresh_ = 0;
  // Scratch reused across pivots and solves so node LPs do not allocate.
  std::vector<int> row_nz_;       // pivot-row nonzero pattern (pivot)
  std::vector<int> rows_;         // rows a pivot eliminates, or the active
                                  // rows (recompute_basic_values)
  std::vector<int> nonbasic_nz_;  // nonzero nonbasic columns
                                  // (recompute_basic_values)
  std::vector<std::pair<int, double>> shifts_;  // repair_and_finish
};

/// Solves the continuous relaxation of `problem` (integrality ignored).
/// One-shot facade over SimplexContext.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  LpSolution solve(const LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace loki::solver
