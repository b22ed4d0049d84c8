// Branch-and-bound MILP solver over the simplex LP relaxation.
//
// The Resource Manager's allocation models have tens of integer variables;
// an exact best-first branch-and-bound with incumbent seeding solves them in
// well under the paper's reported ~500 ms Gurobi budget (see
// bench/tab_runtime_overhead). The node budget and the node-LP iteration cap
// bound the worst case in work, never in host time, so a solve returns the
// same result on every host: on a budget stop the solver returns the best
// incumbent with its optimality gap.
//
// Node representation: a node is a chain of bound deltas over ONE shared
// standard-form instance (SimplexContext) — no per-node LpProblem copy, no
// constraint-vector or name-string churn. Each node LP warm-starts from the
// previously solved basis via bounded dual simplex (any optimal basis stays
// dual-feasible under pure bound changes), so most nodes resolve in a
// handful of pivots instead of a full phase-1 + phase-2 run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "solver/lp.hpp"
#include "solver/presolve.hpp"
#include "solver/simplex.hpp"

namespace loki::solver {

enum class MilpStatus {
  kOptimal,     // proven optimal
  kFeasible,    // incumbent found but search truncated (gap may be > 0)
  kInfeasible,  // no integer-feasible point exists
  kUnbounded,
  kNoSolution,  // search truncated before any incumbent was found
};

std::string to_string(MilpStatus s);

/// Branch-and-bound exploration order.
///  * kBestFirst: smallest parent bound first (FIFO on ties) — strongest
///    bound for gap reporting, the classic choice for proving optimality;
///  * kDepthFirst: most recent node first (dive) — consecutive node LPs are
///    parent/child, so the shared simplex context warm-starts with minimal
///    bound churn, and incumbents appear early, which lets the dual-cutoff
///    early-out close most of the remaining tree mid-repair.
/// Both orders are deterministic and explore the same complete tree when
/// run without budgets.
enum class NodeOrder { kBestFirst, kDepthFirst };

struct MilpOptions {
  double gap_tol = 1e-9;        // absolute bound-vs-incumbent pruning slack
  int max_nodes = 200000;       // branch-and-bound node budget
  NodeOrder node_order = NodeOrder::kBestFirst;
  /// Presolve the model before the shared simplex instance is built; the
  /// search runs in the reduced space and solutions are postsolved back.
  /// Fewer rows and columns make every node LP smaller, and a model whose
  /// variables presolve fixes all is solved without a tableau.
  bool presolve = true;
  SimplexOptions lp;            // options for node relaxations
};

struct MilpSolution {
  MilpStatus status = MilpStatus::kNoSolution;
  double objective = 0.0;
  std::vector<double> values;
  int nodes_explored = 0;        // nodes whose LP relaxation was solved
  int nodes_pruned = 0;          // nodes discarded before any LP work
                                 // (bound dominated or empty bound box)
  int lp_iterations = 0;         // simplex pivots + bound flips, all nodes
  int lp_phase1_iterations = 0;  // subset spent restoring feasibility
                                 // (cold phase 1 or warm dual repair)
  int warm_start_hits = 0;       // node LPs resolved from the reused basis
  int cold_solves = 0;           // node LPs that ran a full two-phase solve
  int devex_resets = 0;          // devex reference-frame resets, all nodes
  int presolve_rows_removed = 0;
  int presolve_cols_removed = 0;
  /// Root LP warm-started from a prior run's retained basis (cross-run /
  /// cross-epoch warm start via ResolveSession).
  bool root_warm_started = false;
  /// Root LP crash-started from a near-identical prior model's basis (the
  /// near-identical warm tier; the tree search still ran in full).
  bool root_near_warm = false;
  /// |best bound - incumbent|; 0 when proven optimal.
  double gap = 0.0;
};

/// How much cross-run state a session-aware solve may reuse. The *caller*
/// owns the model-comparison judgement (structurally_equal /
/// near_identical); on any doubt pass kCold.
enum class WarmTier {
  /// No reuse: rebuild the session from scratch.
  kCold,
  /// Caller vouches the model is bit-identical to the session's: verify the
  /// retained root basis and return the retained solution (bit-identical
  /// guarantee, no tree search).
  kIdentical,
  /// Caller vouches the model is near-identical (same shape/sparsity/
  /// bounds/integrality, drifted coefficients): crash-start the root LP
  /// from the retained basis and seed the incumbent from the retained
  /// solution, then run the full search. Results may drift within the
  /// optimality gap — never silently bit-identical.
  kNearIdentical,
};

/// Cross-run persistence surface for branch-and-bound. A session keeps the
/// standard-form instance, a tableau snapshot taken right after the root LP
/// solve, and the run's complete solution alive between solve() calls. A
/// later run over a bit-identical model warm-starts its root from the
/// retained basis: the bounded dual simplex re-verifies that basis (zero
/// pivots when nothing changed) and must reproduce the recorded root
/// objective bit-for-bit; only then is the retained solution returned —
/// skipping the tree search, whose node-by-node dual repairs dominate a
/// cold re-solve's pivot count. The search is deterministic, so the
/// retained solution is exactly what re-running it would produce, making
/// warm results bit-identical to cold ones. Any doubt — restore failure,
/// a non-optimal warm root, or a root objective that differs in even one
/// bit — falls back to a cold rebuild and a full search.
///
/// The *caller* owns the "is the model really unchanged?" judgement (see
/// structurally_equal); on any doubt pass model_unchanged = false.
/// MilpAllocator's EpochContext holds one session per (budget split,
/// allocation step).
struct ResolveSession {
  /// Built on the presolved (reduced) model when presolve is enabled.
  std::unique_ptr<SimplexContext> ctx;
  /// Reduction + postsolve record of the last cold build. When presolve is
  /// off, `pre.problem` is empty and has_pre is false.
  PresolveResult pre;
  bool has_pre = false;
  SimplexContext::Snapshot root_state;  // tableau right after the root solve
  double root_objective = 0.0;          // root LP objective at snapshot time
                                        // (reduced space when presolved)
  /// Combinatorial root basis for the near-identical tier's crash start.
  SimplexContext::BasisSnapshot root_basis;
  bool has_solution = false;
  MilpSolution solution;  // complete result of the last full search
                          // (values in the original variable space)

  void reset() {
    ctx.reset();
    pre = PresolveResult();
    has_pre = false;
    root_state = SimplexContext::Snapshot();
    root_objective = 0.0;
    root_basis = SimplexContext::BasisSnapshot();
    has_solution = false;
    solution = MilpSolution();
  }
};

class BranchAndBound {
 public:
  explicit BranchAndBound(MilpOptions options = {}) : options_(options) {}

  /// Solves `problem` exactly (up to tolerances). An optional warm-start
  /// incumbent (e.g. from a greedy allocator) tightens pruning from the
  /// first node; it must be integer-feasible or it is ignored.
  MilpSolution solve(const LpProblem& problem,
                     const std::optional<std::vector<double>>& warm_start =
                         std::nullopt) const;

  /// Session-aware variant: persists the simplex context, presolve record,
  /// post-root snapshot/basis, and solution in `session` across calls.
  /// `tier` is the caller's judgement of how the model relates to the one
  /// that produced the session state (see WarmTier): kIdentical verifies
  /// the retained root and returns the retained solution without
  /// re-running the search; kNearIdentical crash-starts the root LP from
  /// the retained basis and seeds the incumbent from the retained solution
  /// but runs the full search. Any mismatch or failed verification falls
  /// back to a cold rebuild of the session and a full search.
  MilpSolution solve(const LpProblem& problem,
                     const std::optional<std::vector<double>>& warm_start,
                     ResolveSession* session, WarmTier tier) const;

  /// Feasibility variant: the same search as solve(), stopped at its first
  /// incumbent (checked at the top of the node loop, so presolve's verdicts
  /// and the warm start come first). It ends holding an incumbent exactly
  /// when solve() would: both explore the same nodes up to that point, and
  /// a search never discards an incumbent. It takes no ResolveSession: a
  /// stopped search is not a result a later solve may resume from.
  MilpSolution find_feasible(const LpProblem& problem,
                             const std::optional<std::vector<double>>&
                                 warm_start = std::nullopt) const;

 private:
  MilpSolution search(const LpProblem& problem,
                      const std::optional<std::vector<double>>& warm_start,
                      ResolveSession* session, WarmTier tier,
                      bool stop_at_first_incumbent) const;

  MilpOptions options_;
};

}  // namespace loki::solver
