// The Resource Manager's allocator (§4): formulates hardware scaling and
// accuracy scaling as MILPs over the augmented pipeline graph and solves
// them with the branch-and-bound solver, seeded by a greedy incumbent.
//
// Linearization: the paper's q(i,k,y(i,k)) term is nonlinear in the batch
// variable y. We enumerate a small grid of latency-budget splits across
// pipeline depth levels; a split fixes the best feasible batch per (task,
// variant), after which the model is a pure MILP with integer instance
// counts n(i,k) and continuous path flows c(p). Taking the best solution
// across splits recovers the batch-size degree of freedom.
// The same budget split yields the per-task latency budgets that §5.2's
// early-dropping policies consume.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/team.hpp"
#include "pipeline/paths.hpp"
#include "profile/profiler.hpp"
#include "serving/types.hpp"
#include "solver/milp.hpp"

namespace loki::serving {

/// Homogeneous per-hop network latency between workers (§4.2 subtracts
/// hop-count * comm from the SLO before allocating).
inline constexpr double kCommLatencyS = 0.002;
/// Queueing headroom rule from §4.1: plan within SLO * kQueueFactor (the
/// paper divides the SLO by two).
inline constexpr double kQueueFactor = 0.5;
/// Per-replica objective bonus for keeping a variant that the previous plan
/// already hosts (avoids swap storms). In system-accuracy units.
inline constexpr double kContinuityBonus = 2e-4;
/// Provisioning utilization target: capacity constraints use
/// q_eff = kUtilizationTarget * q so queues stay stable. Planning to 100% of
/// profiled throughput leaves no queueing headroom and the SLO/2 rule no
/// longer holds under stochastic arrivals; 0.85 keeps single-replica groups
/// (the low-demand regime) out of the heavy-queueing region.
inline constexpr double kUtilizationTarget = 0.85;
/// The planner's branch-and-bound optimality gap, in system-accuracy units:
/// a plan is optimal once no open node can beat it by more than this.
inline constexpr double kPlanGapTol = 5e-4;

struct AllocatorConfig {
  int cluster_size = 20;
  /// End-to-end pipeline latency SLO (seconds).
  double slo_s = 0.250;
  /// Grid resolution for splitting the latency budget across depth levels.
  int budget_grid = 7;
  /// Opt-in near-identical warm tier (default OFF so plans stay exactly
  /// those of a cold solve): when a step's MILP model differs from the
  /// previous plan() call's only in coefficient values — same model shape,
  /// sparsity, bounds and integrality, e.g. a slow demand ramp —
  /// crash-start the step's root LP from the previous call's root basis and
  /// seed branch-and-bound with the previous incumbent, instead of
  /// cold-solving. Plans may then drift within the MILP optimality gap
  /// (they are still exact solves of the *current* model; only pivot counts
  /// and tie-breaking change relative to a cold solve). run_experiment
  /// rejects it for the greedy, inferline and proteus strategies, which
  /// never read it.
  bool near_warm_start = false;
};

/// Per-(task, variant) batch configuration chosen by a budget split.
struct VariantConfig {
  int variant = -1;
  int batch = -1;
  double throughput_qps = 0.0;  // q(i,k,b*) at the chosen batch
  double latency_s = 0.0;       // profiled batch execution latency
};

/// Profiles for every variant of every task: profiles[task][variant].
using ProfileTable = std::vector<std::vector<profile::BatchProfile>>;

/// Feasible configs per task under some latency budgets: configs[task][j].
using ConfigTable = std::vector<std::vector<VariantConfig>>;

/// Builds the profile table for a pipeline with the given profiler.
ProfileTable build_profile_table(const pipeline::PipelineGraph& g,
                                 const profile::ModelProfiler& profiler);

/// The latency-budget split grid: each entry is a positive weight vector
/// over pipeline depth levels (compositions of `budget_grid` parts).
std::vector<std::vector<double>> budget_splits(const AllocatorConfig& cfg,
                                               const pipeline::PipelineGraph& g);

/// Per-task latency budget for one split: the task at depth d on a path to
/// sink s gets weight[d] / (sum of weights on that path) of the path's
/// planning budget (SLO * kQueueFactor - hops * comm); tasks shared by
/// several sinks take the minimum.
std::vector<double> task_budgets_for_split(
    const AllocatorConfig& cfg, const pipeline::PipelineGraph& g,
    const std::vector<double>& level_weights);

/// The best-throughput latency-feasible batch config per (task, variant);
/// variants with no feasible batch are omitted. Throughputs are derated by
/// `utilization_target` (latencies stay profiled).
ConfigTable feasible_configs(const pipeline::PipelineGraph& g,
                             const ProfileTable& profiles,
                             const std::vector<double>& task_budgets,
                             double utilization_target = 1.0);

/// Greedy allocator used (a) to seed the MILP with an incumbent and (b) as
/// the ablation baseline for bench/abl_allocator. Picks one variant per
/// task, starting from the most accurate assignment and repeatedly
/// degrading the task with the best server-savings-per-accuracy-loss until
/// the demand fits the cluster (the intuition behind Fig. 1's phases).
class GreedyAllocator : public AllocationStrategy {
 public:
  GreedyAllocator(AllocatorConfig cfg, const pipeline::PipelineGraph* graph,
                  ProfileTable profiles);

  PlanResult plan(const PlanRequest& request) override;
  std::string name() const override { return "greedy"; }

 private:
  /// Budgets + feasible configs per budget split. Depends only on
  /// construction inputs, so it is computed once on first use and shared by
  /// the main loop and the overload fallback (they used to recompute
  /// identical tables per split).
  struct SplitConfigs {
    std::vector<double> budgets;
    ConfigTable configs;
  };
  const std::vector<SplitConfigs>& split_configs();

  AllocatorConfig cfg_;
  const pipeline::PipelineGraph* graph_;
  ProfileTable profiles_;
  std::vector<std::vector<double>> splits_;
  std::vector<SplitConfigs> split_configs_;
  bool split_configs_ready_ = false;
};

/// Loki's MILP allocator (§4.1): step 1 hardware scaling (minimize servers,
/// most-accurate variants only), step 2 accuracy scaling (maximize system
/// accuracy with the full cluster), step 3 overload (maximize served
/// fraction, then accuracy).
class MilpAllocator : public AllocationStrategy {
 public:
  MilpAllocator(AllocatorConfig cfg, const pipeline::PipelineGraph* graph,
                ProfileTable profiles);
  ~MilpAllocator() override;

  PlanResult plan(const PlanRequest& request) override;
  /// plan() serves the whole demand exactly when its hardware or accuracy
  /// step plans, so this runs those two steps on the same budget splits,
  /// models and team, and never the overload step. Each split's search
  /// stops at its first incumbent (BranchAndBound::find_feasible) and
  /// neither reads nor writes the near tier's state, so a later plan() is
  /// what it would have been without the verdict.
  ServiceVerdict serves_demand(const PlanRequest& request) override;
  std::string name() const override { return "loki-milp"; }

  const AllocatorConfig& config() const { return cfg_; }

  /// Explicit cross-epoch state (defined in allocation.cpp). Owns, per
  /// budget split: the cached task budgets, feasible-config tables and
  /// augmented-graph path enumerations (recomputed per solve before this
  /// existed — the allocator-overhead bound of BM_ResourceManagerMilp/100),
  /// and, with AllocatorConfig::near_warm_start only, per (split,
  /// allocation step) the step's last model and a solver::ResolveSession
  /// that the near tier resumes from. Without the near tier, no solver
  /// state outlives a plan() call.
  struct EpochContext;

 private:
  struct MilpResult {
    bool feasible = false;
    AllocationPlan plan;
    /// Counters for every branch-and-bound run in this step, captured even
    /// when the step is infeasible (the caller aggregates across splits).
    SolverStats stats;
  };

  /// What plan() and serves_demand() do before any step runs: checks the
  /// request's shape, builds the EpochContext and the team, and returns the
  /// hosted-variant bitmap of the request's previous plan (empty without
  /// one).
  std::vector<std::vector<bool>> prepare_request(const PlanRequest& request);

  /// Lazily builds the per-split caches of the EpochContext.
  void ensure_epoch_context();

  /// Solves one MILP for one budget split (index into the cached splits).
  /// `hardware_only` restricts each task to its most accurate variant and
  /// minimizes servers; otherwise maximizes accuracy. `served_fraction_mode`
  /// relaxes the demand constraint and maximizes the served fraction first.
  /// `prev_variants` (per task, per variant) marks variants hosted by the
  /// request's previous plan for the continuity bonus. `verdict` (hardware
  /// and accuracy steps only) asks whether the step plans, not for its
  /// plan: the search stops at its first incumbent, the result carries no
  /// plan, and the near tier's state is neither read nor written.
  MilpResult solve_step(std::size_t split_idx, double demand_qps,
                        const pipeline::MultFactorTable& mult,
                        const std::vector<std::vector<bool>>& prev_variants,
                        bool hardware_only, bool served_fraction_mode,
                        bool verdict);

  AllocatorConfig cfg_;
  const pipeline::PipelineGraph* graph_;
  ProfileTable profiles_;
  std::unique_ptr<EpochContext> epoch_;
  /// Budget-split MILPs are independent; each step solves them on this
  /// team of min(splits, hardware threads) members, the planning thread
  /// included. Built on the first plan().
  std::unique_ptr<Team> team_;
};

}  // namespace loki::serving
