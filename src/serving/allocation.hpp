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

struct AllocatorConfig {
  int cluster_size = 20;
  /// End-to-end pipeline latency SLO (seconds).
  double slo_s = 0.250;
  /// Grid resolution for splitting the latency budget across depth levels.
  int budget_grid = 7;
  /// Cross-epoch warm starts: when a step's MILP model is bit-identical to
  /// the previous epoch's (steady demand within the re-allocation
  /// hysteresis), re-solve it from the previous epoch's retained basis
  /// instead of a cold root solve. Plans are bit-identical either way; this
  /// only changes how many pivots the re-solve costs. Benches measuring
  /// cold re-plan latency switch it off.
  bool warm_start_across_epochs = true;
  /// Opt-in near-identical warm tier (default OFF so existing plans stay
  /// bit-identical): when the bit-identical gate fails only on drifted
  /// coefficients — same model shape, sparsity, bounds and integrality,
  /// e.g. a slow demand ramp — crash-start the step's root LP from the
  /// previous epoch's retained basis and seed branch-and-bound with the
  /// previous incumbent, instead of cold-solving. Plans may then drift
  /// within the MILP optimality gap (they are still exact solves of the
  /// *current* model; only pivot counts and tie-breaking change relative
  /// to a cold solve).
  bool near_warm_start = false;
  solver::MilpOptions milp = default_milp_options();

  static solver::MilpOptions default_milp_options();
};

/// Per-(task, variant) batch configuration chosen by a budget split.
struct VariantConfig {
  int variant = -1;
  int batch = -1;
  double throughput_qps = 0.0;  // q(i,k,b*) at the chosen batch
  double latency_s = 0.0;       // profiled batch execution latency
};

/// Exact equality — the selective-invalidation check: a re-profiled variant
/// whose chosen config is bit-identical under a split's budgets invalidates
/// nothing in that split.
inline bool operator==(const VariantConfig& a, const VariantConfig& b) {
  return a.variant == b.variant && a.batch == b.batch &&
         a.throughput_qps == b.throughput_qps && a.latency_s == b.latency_s;
}
inline bool operator!=(const VariantConfig& a, const VariantConfig& b) {
  return !(a == b);
}

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
  std::string name() const override { return "loki-milp"; }

  const AllocatorConfig& config() const { return cfg_; }

  /// Drops all EpochContext state (cached budget splits / feasible configs
  /// and every retained solver basis), forcing the next plan() to rebuild
  /// and cold-solve everything. Plans are unaffected.
  void reset_epoch_context();

  /// Applies a re-profiled variant (a profile-table update) and invalidates
  /// only the EpochContext caches it actually affects, instead of the
  /// reset_epoch_context() sledgehammer: budget splits and task budgets
  /// never depend on profiles and always survive; a split keeps its
  /// feasible-config tables, path enumerations, and retained solver
  /// sessions whenever the variant's chosen config under that split's
  /// budgets is unchanged; and the hardware-step caches are dropped only
  /// when the task's most-accurate-variant view changed. Subsequent plans
  /// are exactly what a full reset would produce — only the amount of
  /// retained warm-start state differs.
  void update_profile(int task, int variant,
                      const profile::BatchProfile& profile);

  /// Explicit cross-epoch state (defined in allocation.cpp). Owns, per
  /// budget split: the cached task budgets, feasible-config tables and
  /// augmented-graph path enumerations (recomputed per solve before this
  /// existed — the allocator-overhead bound of BM_ResourceManagerMilp/100),
  /// and per (split, allocation step) one persistent solver::ResolveSession
  /// whose retained basis warm-starts the next epoch's re-solve when the
  /// step model is bit-identical (see AllocatorConfig::
  /// warm_start_across_epochs). This is the state the old API hid inside
  /// prev_variants_ and per-call locals, now named and resettable.
  struct EpochContext;

 private:
  struct MilpResult {
    bool feasible = false;
    AllocationPlan plan;
    /// Counters for every branch-and-bound run in this step, captured even
    /// when the step is infeasible (the caller aggregates across splits).
    SolverStats stats;
  };

  /// Lazily builds the per-split caches of the EpochContext.
  void ensure_epoch_context();

  /// Solves one MILP for one budget split (index into the cached splits).
  /// `hardware_only` restricts each task to its most accurate variant and
  /// minimizes servers; otherwise maximizes accuracy. `served_fraction_mode`
  /// relaxes the demand constraint and maximizes the served fraction first.
  /// `prev_variants` (per task, per variant) marks variants hosted by the
  /// request's previous plan for the continuity bonus.
  MilpResult solve_step(std::size_t split_idx, double demand_qps,
                        const pipeline::MultFactorTable& mult,
                        const std::vector<std::vector<bool>>& prev_variants,
                        bool hardware_only, bool served_fraction_mode);

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
