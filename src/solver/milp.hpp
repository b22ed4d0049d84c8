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
  /// Root LP crash-started from a near-identical prior model's basis (the
  /// near-identical warm tier; the tree search still ran in full).
  bool root_near_warm = false;
  /// |best bound - incumbent|; 0 when proven optimal.
  double gap = 0.0;
};

/// How much of a prior run a session-aware solve may reuse. The *caller*
/// owns the model-comparison judgement (near_identical); on any doubt pass
/// kCold.
enum class WarmTier {
  /// No reuse: rebuild the session from scratch.
  kCold,
  /// Caller vouches the model is near-identical (same shape/sparsity/
  /// bounds/integrality, drifted coefficients): crash-start the root LP
  /// from the retained basis and seed the incumbent from the retained
  /// solution, then run the full search. Results may drift within the
  /// optimality gap — never silently bit-identical.
  kNearIdentical,
};

/// What the near-identical tier keeps of one run for the next: the
/// presolve record (the next run's reductions must match it), the basis
/// right after the root LP solve, and the incumbent the search returned.
/// Every solve with a session, of either tier, rebuilds it; the simplex
/// context itself lives and dies with each search. With
/// AllocatorConfig::near_warm_start, MilpAllocator keeps one session per
/// (budget split, allocation step) across plan() calls; without it, only
/// its overload step uses one, within a solve, to hand stage A's root basis
/// to stage B.
struct ResolveSession {
  /// Reduction + postsolve record of the last run. When presolve is off,
  /// `pre.problem` is empty and has_pre is false.
  PresolveResult pre;
  bool has_pre = false;
  /// Combinatorial root basis for the near-identical tier's crash start.
  SimplexContext::BasisSnapshot root_basis;
  /// The last run's incumbent in the original variable space; empty when
  /// it found none or its root LP was not solved to optimality.
  std::vector<double> incumbent;

  void reset() { *this = ResolveSession(); }
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

  /// Session-aware variant: keeps the presolve record, the root basis and
  /// the incumbent in `session` for the next call. `tier` is the caller's
  /// judgement of how the model relates to the one that produced the
  /// session state (see WarmTier): kNearIdentical crash-starts the root LP
  /// from the retained basis and seeds the incumbent from the retained one,
  /// then runs the full search. When the presolve reductions differ from
  /// the retained ones, the solve is cold.
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
