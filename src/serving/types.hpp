// Shared types for the serving layer: resource-allocation plans and the
// strategy interface implemented by Loki and the two baselines.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/paths.hpp"

namespace loki::solver {
struct MilpSolution;
}  // namespace loki::solver

namespace loki::serving {

/// Which regime produced the plan (§4: hardware scaling first, accuracy
/// scaling when the cluster is exhausted, overload when even the cheapest
/// variants cannot meet demand).
enum class ScalingMode { kHardware, kAccuracy, kOverload };

std::string to_string(ScalingMode m);

/// One instance group of the plan: `replicas` workers all hosting variant
/// `variant` of task `task`, configured with maximum batch size `batch`.
struct InstanceConfig {
  int task = -1;
  int variant = -1;
  int batch = 1;
  int replicas = 0;
};

/// Fraction of a sink's queries assigned to one augmented-graph path
/// (the c(p) of the MILP).
struct PathFlow {
  pipeline::VariantPath path;
  double fraction = 0.0;
};

/// Aggregated branch-and-bound counters over every MILP solved while
/// producing one plan (all budget splits, all allocation steps). Runtime
/// diagnostics only — not serialized by plan_io. Read against
/// bench/tab_runtime_overhead and bench/abl_solver for regression tracking.
struct SolverStats {
  int milp_solves = 0;           // BranchAndBound::solve invocations
  int nodes_explored = 0;        // nodes whose LP relaxation was solved
  int nodes_pruned = 0;          // nodes discarded before any LP work
  int lp_iterations = 0;         // simplex pivots + bound flips, all nodes
  int lp_phase1_iterations = 0;  // pivots spent restoring feasibility
  int warm_start_hits = 0;       // node LPs resolved from a reused basis
  int cold_solves = 0;           // node LPs that ran a full two-phase solve
  /// Always 0: no solve reuses a previous plan() call's result. Both
  /// fields are kept only because benchmark/loki_bench.cpp reads them for
  /// solver.epoch_reuse_ratio; they go with the next change to the
  /// benchmark.
  int epoch_warm_hits = 0;
  int epoch_cache_skips = 0;
  /// MILP solves whose root LP crash-started from a *near-identical*
  /// previous epoch's basis (same model shape, drifted coefficients — the
  /// opt-in near warm tier; the tree search still ran).
  int near_warm_hits = 0;
  /// Devex reference-frame resets across all node LPs.
  int devex_resets = 0;
  /// Rows / columns presolve removed before the tableaus were built,
  /// summed over all MILP solves.
  int presolve_rows_removed = 0;
  int presolve_cols_removed = 0;
  /// Largest |best bound - incumbent| any branch-and-bound run reported
  /// (0 when every solve proved optimality): how far any plan of this
  /// epoch can sit from its model's true optimum.
  double max_gap = 0.0;

  SolverStats& operator+=(const SolverStats& o);
  /// Folds one branch-and-bound result into the tally (bumps milp_solves).
  void add(const solver::MilpSolution& sol);
};

/// Output of the Resource Manager (§4.1): model variants to host, their
/// replication factors and max batch sizes, plus the planned path flows the
/// Load Balancer turns into routing tables.
struct AllocationPlan {
  ScalingMode mode = ScalingMode::kHardware;
  std::vector<InstanceConfig> instances;
  std::vector<PathFlow> flows;

  /// Planned system accuracy (averaged across sinks; Eq. 12 objective).
  double expected_accuracy = 1.0;
  /// Fraction of incoming demand the plan serves (< 1 only in overload).
  double served_fraction = 1.0;
  int servers_used = 0;
  double demand_qps = 0.0;
  /// Runtime latency budget per (task, variant): 2x the configured batch
  /// execution latency (the SLO/2 queueing rule of §4.1 unwound for
  /// runtime checks; §5.2 uses these budgets for early dropping).
  std::map<std::pair<int, int>, double> latency_budget_s;
  double solve_time_s = 0.0;
  /// Solver work behind this plan (zero for non-MILP strategies).
  SolverStats solver;
  bool feasible = true;

  int total_replicas() const;
};

/// Everything the Resource Manager knows when it asks for a plan (one
/// control epoch, §4.2): all controller-observed state travels in the
/// request, and all cross-epoch strategy state is either here
/// (previous_plan) or explicitly owned by the strategy (e.g. MilpAllocator's
/// EpochContext).
struct PlanRequest {
  PlanRequest() = default;
  /// A first-epoch request (no observations, no previous plan): what
  /// offline probes and single-shot tests ask for.
  PlanRequest(double demand, pipeline::MultFactorTable mult_factors)
      : demand_qps(demand), mult(std::move(mult_factors)) {}

  /// Frontend demand estimate (QPS) the plan must serve.
  double demand_qps = 0.0;
  /// Current multiplicative-factor estimates per (task, variant).
  pipeline::MultFactorTable mult;
  /// Observed arrival rate (QPS) per task since the last plan request.
  /// Empty when nothing was observed yet (first epoch / offline probes).
  /// Pipeline-agnostic strategies (Proteus) consume this instead of
  /// propagating demand through the pipeline structure.
  std::vector<double> task_arrivals_qps;
  /// Simulation / wall time at which the request was issued (seconds).
  double sim_time_s = 0.0;
  /// Monotone control-epoch index (0 for the first request).
  int epoch = 0;
  /// View of the plan currently applied on the cluster, or nullptr on the
  /// first epoch. Not owned; must stay alive for the duration of plan().
  /// Strategies use it for plan-continuity regularization (the old hidden
  /// prev_variants_ state, now caller-owned).
  const AllocationPlan* previous_plan = nullptr;
  /// Workers currently usable for placement. -1 (the default) means "the
  /// full configured cluster"; the failure-recovery path sets it to the
  /// surviving worker count, 0 included, so re-plans after a crash never
  /// place instances on dead hardware. Strategies clamp their capacity to
  /// min(cluster_size, this).
  int available_workers = -1;
};

/// Effective placement capacity for one plan() call: the configured cluster
/// shrunk to the request's surviving-worker count (never below one worker
/// per task, so every stage keeps a host even in deep degradation; with no
/// survivors at all the plan is sized at that floor).
inline int effective_cluster_size(int cluster_size, const PlanRequest& req,
                                  int num_tasks) {
  if (req.available_workers < 0 || req.available_workers >= cluster_size) {
    return cluster_size;
  }
  return req.available_workers > num_tasks ? req.available_workers : num_tasks;
}

/// RAII capacity override for strategy plan() bodies: shrinks the strategy's
/// configured cluster_size to the request's surviving-worker count for the
/// duration of one solve, restoring it on exit. With available_workers unset
/// this stores the same value back — a strict no-op, so fault-free plans are
/// bit-identical to pre-fault-subsystem behavior.
class ScopedClusterCapacity {
 public:
  ScopedClusterCapacity(int* slot, const PlanRequest& req, int num_tasks)
      : slot_(slot), saved_(*slot) {
    *slot = effective_cluster_size(saved_, req, num_tasks);
  }
  ~ScopedClusterCapacity() { *slot_ = saved_; }
  ScopedClusterCapacity(const ScopedClusterCapacity&) = delete;
  ScopedClusterCapacity& operator=(const ScopedClusterCapacity&) = delete;

 private:
  int* slot_;
  int saved_;
};

/// Solve breakdown for one allocation step ("hardware" / "accuracy" /
/// "overload", §4.1) across every budget split attempted for it.
struct StepSolve {
  std::string step;
  double wall_s = 0.0;
  int splits_attempted = 0;
  int splits_feasible = 0;
  /// Solver work spent in this step only.
  SolverStats solver;
  /// True for the step whose plan was returned.
  bool selected = false;
};

/// Result of one plan() call: the plan itself plus the per-step solve
/// accounting (aggregate solver counters also ride on plan.solver).
struct PlanResult {
  AllocationPlan plan;
  /// One entry per allocation step attempted, in execution order. Non-MILP
  /// strategies report a single synthetic step.
  std::vector<StepSolve> steps;
  /// Aggregate over steps; equals plan.solver.
  SolverStats solver;
  /// Echo of PlanRequest::epoch.
  int epoch = 0;
};

/// Answer of AllocationStrategy::serves_demand: whether plan() would serve
/// the whole demand, and the solver work spent deciding it.
struct ServiceVerdict {
  bool served = false;
  SolverStats solver;
};

/// Allocation strategy interface: Loki's MILP allocator and the InferLine /
/// Proteus baselines all implement this, so the runtime and benches can swap
/// them freely. Strategies are constructed by name through StrategyRegistry
/// (see serving/strategy_registry.hpp); name() is the registry key and the
/// single source of truth for figures, CSVs, and test expectations.
class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;

  /// Produces a plan for one control epoch. The request carries the demand
  /// estimate, multiplicative-factor estimates, observed per-task arrivals,
  /// time/epoch bookkeeping, and a view of the previously applied plan.
  virtual PlanResult plan(const PlanRequest& request) = 0;

  /// Full-service verdict for capacity probes (exp::find_capacity): would
  /// plan(request) serve the whole demand (served_fraction >= 1 - 1e-9)?
  /// The default asks plan() itself; a strategy that can answer the yes/no
  /// question with less work overrides it, and must give the same answer.
  virtual ServiceVerdict serves_demand(const PlanRequest& request);

  virtual std::string name() const = 0;
};

}  // namespace loki::serving
