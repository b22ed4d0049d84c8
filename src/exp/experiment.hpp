// End-to-end experiment driver: wires a pipeline, an allocation strategy, a
// demand trace, and the discrete-event simulator into one run, producing the
// summary numbers and timeseries the benches print. Also provides the
// planner-level capacity search used by the Fig. 1 reproduction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "pipeline/graph.hpp"
#include "serving/degrade.hpp"
#include "serving/system.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki::exp {

/// Registers the built-in strategies ("loki-milp", "greedy", "inferline",
/// "proteus") with serving::StrategyRegistry::global(). Idempotent; called
/// automatically by make_strategy / run_experiment, and explicitly by code
/// that wants to enumerate or extend the registry.
void register_builtin_strategies();

/// Builds the strategy registered under `name` (see strategy_registry.hpp);
/// registers the built-ins first. The returned strategy reports
/// name() == `name`.
std::unique_ptr<serving::AllocationStrategy> make_strategy(
    const std::string& name, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles);

/// Conservative synchronization window (seconds) of every run: shards
/// advance in lockstep to each window barrier, where arrivals are dealt and
/// the coordinator (if any) plans.
inline constexpr double kSimWindowS = 0.25;

struct ExperimentConfig {
  /// Registry key of the strategy to run (serving/strategy_registry.hpp).
  std::string system = "loki-milp";
  serving::SystemConfig system_cfg;
  trace::ArrivalConfig arrivals;
  /// Extra simulated time after the last arrival to drain in-flight queries.
  double drain_s = 5.0;
  /// Profiler measurement noise (0 = ideal profiles).
  double profiler_noise_frac = 0.0;
  std::uint64_t profiler_seed = 1;
  /// Event shards the run is split across (clamped so every shard keeps at
  /// least one worker per pipeline task). Every run goes through the same
  /// driver on sim::ParallelSimulation: each shard simulates a contiguous
  /// slice of the cluster serving its dealt slice of one global arrival
  /// sequence (so total arrivals equal the one-shard run's exactly), and
  /// per-shard metrics merge at the end. With one shard the run is the
  /// plain single-cluster simulation and keeps the configured seed. See
  /// README "Data-plane architecture" for determinism/merging caveats.
  std::size_t sim_shards = 1;
  /// Where the planner runs when sim_shards > 1. Off: every shard owns a
  /// strategy and plans its own sub-cluster on its own clock. On: ONE
  /// strategy plans from barrier-merged observations (summed demand
  /// estimate, summed per-task arrival rates, averaged multiplicative
  /// factors) at window barriers, once per control epoch for each shard's
  /// demand slice, and installs the plans via ServingSystem::install_plan()
  /// — K× fewer solves. Deterministic for a fixed shard count regardless of
  /// sim_threads (differential-tested). A run with one shard (after the
  /// clamp) rejects it, as it does sim_weighted_split and sim_reweight.
  bool sim_coordinated = false;
  /// Threads that run the shards, the driving thread included (0 =
  /// min(shards, hw concurrency)). A run with one shard (after the clamp
  /// to cluster_size / num_tasks) rejects a value of 2 or more. It does not
  /// size the planner's team: MilpAllocator solves its budget splits on
  /// min(splits, hardware threads) threads whatever this says.
  std::size_t sim_threads = 0;
  /// Deal arrivals to shards by worker share through a deterministic
  /// weighted interleave (WeightedInterleave below) instead of round-robin.
  /// With cluster_size % sim_shards == 0 every share is equal and the deal
  /// reduces exactly to round-robin (differential-tested bit-identical);
  /// with skewed shares a bigger shard receives proportionally more
  /// arrivals, and coordinated mode plans each distinct share for its own
  /// share-proportional demand slice instead of assuming 1/K everywhere.
  bool sim_weighted_split = false;
  /// Re-weight the deal at every window barrier (implies the weighted
  /// split): arrivals go to shards in proportion to their *surviving*
  /// worker counts (share minus crashed workers), so a shard that loses
  /// workers to a FaultPlan crash also sheds its proportional load to its
  /// peers. Arrivals are dealt one window ahead, so the first barrier after
  /// a crash re-weights the arrivals from one window (kSimWindowS) past
  /// that barrier on. The interleave is rebuilt only when the
  /// weights change, so with constant weights (no faults) the run is
  /// bit-identical to the weighted split (differential-tested).
  bool sim_reweight = false;
  /// Deterministic fault schedule (ROADMAP item 4), armed as first-class
  /// simulation events. Worker ids are global cluster ids, split into
  /// per-shard local-id plans along the contiguous worker-share ranges of
  /// the cluster split; an id outside the cluster makes run_experiment
  /// throw CheckFailure before the run starts. An empty plan arms nothing
  /// and is bit-identical to a run without the fault subsystem
  /// (injection-off passivity, differential-tested at K = 1 and K > 1).
  /// Setting system_cfg.fault_plan instead is rejected; the detector and
  /// tracing are set in system_cfg.detector and system_cfg.trace.
  fault::FaultPlan fault_plan;
  /// Optional path to CSV-export the run's final registry snapshot (the
  /// registry itself is created per run; system_cfg.registry is rejected).
  std::string obs_csv_path;
  /// SLO-tier policy (graceful degradation, ROADMAP item 4), given to
  /// every serving system; setting system_cfg.tiers instead is rejected.
  /// Disabled by default. With tiers disabled — or enabled over all-tier-0
  /// traffic — runs are bit-identical to the untiered system
  /// (differential-tested sequential, sharded and coordinated). While
  /// disabled, a non-default depth_watermark or remainder_priority is
  /// rejected.
  serving::TierPolicy tiers;
  /// Per-tier arrival mix, e.g. {0.2, 0.4, 0.4}: each arrival's tier is
  /// drawn from these weights on a dedicated RNG substream, in global
  /// arrival order (the same tier sequence regardless of sim mode or shard
  /// count). Empty = every arrival is tier 0 and NO randomness is drawn —
  /// tier-less experiments stay bit-identical (passivity).
  std::vector<double> tier_mix;
  std::uint64_t tier_seed = 99;
  /// Control-plane fallback chain around every planner's plan(): the
  /// strategy -> near-warm MILP resolve -> greedy -> retain previous plan,
  /// a plan that fails validation falling to the next rung. Disabled by
  /// default. Each planner (a shard's, or the coordinator's per share) is
  /// wrapped in its own serving::PlanFallbackChain with rungs sized for its
  /// cluster slice; outcomes count under serving.degrade.plan_* (per-shard
  /// planners) or exp.coord.plan_* (the coordinator).
  serving::FallbackConfig fallback;
  /// Replay-driven arrivals: when non-empty, the experiment ignores the
  /// demand curve's arrival sampling and feeds the replay's exact
  /// (timestamp, tier) sequence instead — the curve still drives the
  /// controllers' demand view, so pass trace::replay_demand_curve(replay).
  /// Setting tier_mix as well is rejected.
  trace::QueryReplay replay;
};

struct ExperimentResult {
  std::string system_name;
  double slo_violation_ratio = 0.0;
  double mean_accuracy = 0.0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_servers_used = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  double total_solve_time_s = 0.0;
  int allocations = 0;
  serving::Metrics metrics;  // full timeseries for figure output
  /// Final snapshot of the run's metric registry: cluster-wide stage
  /// counters (serving.stage.*), per-request stage latency histograms
  /// (serving.lat.*), per-shard observed demand (exp.shard<k>.arrivals),
  /// the event core's work summed over shards (exp.sim.events: events
  /// fired; exp.sim.lane.<arrival|hop>.events: fired from that lane;
  /// exp.sim.lane.<name>.fallbacks: lane pushes that went to the heap) and
  /// the registry's self-measured snapshot cost (obs.self.*).
  obs::Snapshot obs;
};

/// Runs one system against one demand curve.
ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg);

/// Deterministic weighted interleave: item j (1-based) goes to the shard
/// with the largest weighted deficit w_i * j - n_i, ties to the lowest
/// index, where n_i counts items already assigned to shard i. Every prefix
/// of the assignment tracks the weights to within one item per shard, and
/// equal weights reduce exactly to round-robin (0, 1, ..., K-1, 0, ...) —
/// the property the weighted-split differential test pins.
class WeightedInterleave {
 public:
  /// `weights` must be non-negative with a positive sum (a zero-weight shard
  /// simply receives no items — e.g. every worker on it has crashed); they
  /// are normalized internally.
  explicit WeightedInterleave(std::vector<double> weights);
  /// Shard index for the next item.
  std::size_t next();

 private:
  std::vector<double> weights_;   // normalized to sum 1
  std::vector<double> assigned_;  // items handed to each shard so far
  std::uint64_t step_ = 0;
};

/// Planner-level capacity probe: the allocation plan Loki would produce for
/// a constant demand (no simulation). Used by the Fig. 1 sweep.
struct PlanProbe {
  double demand_qps = 0.0;
  serving::ScalingMode mode = serving::ScalingMode::kHardware;
  double expected_accuracy = 1.0;
  double served_fraction = 1.0;
  int servers_used = 0;
  /// Accuracy of the plan's per-task mix, split by task (diagnostics for
  /// the phase-2/phase-3 distinction of Fig. 1): mean variant accuracy
  /// weighted by planned flow, one entry per task.
  std::vector<double> task_accuracy;
};

PlanProbe probe_plan(serving::AllocationStrategy& strategy,
                     const pipeline::PipelineGraph& graph, double demand_qps);

/// Largest constant demand (QPS) the strategy can serve with
/// served_fraction == 1, found by bisection within [lo, hi].
double find_capacity(serving::AllocationStrategy& strategy, double lo,
                     double hi, const pipeline::MultFactorTable& mult,
                     double tol_qps = 1.0);

}  // namespace loki::exp
