// The serving system runtime: composes the Frontend, Controller (Resource
// Manager + Load Balancer + Metadata Store state), and the simulated worker
// cluster into the full query-processing loop of §3:
//
//   client -> Frontend -> first-task workers -> ... -> sinks -> Frontend
//
// with periodic control events: Resource Manager re-allocation (10 s in the
// paper), Load Balancer routing refresh, and worker heartbeats that report
// observed multiplicative factors. The runtime also implements the §5.2
// early-dropping policies (none / last-task / per-task / opportunistic
// rerouting), selected per experiment for the Fig. 7 ablation.
//
// The same runtime hosts Loki and both baselines: the allocation strategy is
// injected (MilpAllocator, baselines::InferLineStrategy,
// baselines::ProteusStrategy).
//
// This class is the serving core; optional planes plug into it instead of
// branching through it. The FaultPlane (serving/fault_plane.hpp) exists only
// when armed — fault() is nullptr otherwise. The TierPlane
// (serving/degrade.hpp) is always present; unarmed, it fills every tier with
// the untiered fractions and never sheds at admission, so the frontend reads
// it with no tiers-on branch. The plan fallback chain is a strategy
// decorator (serving/degrade.hpp) wrapped around the injected strategy.
//
// Hot-path discipline (per arrival / per forwarded item): routing draws go
// through RoutingPlan::DrawTable (flat cumulative thresholds, branchless
// counting scan — bit-identical to the linear scan); replica selection is
// one branchless argmin over the packed per-worker load-cell array
// (cluster::least_loaded) instead of dereferencing Worker objects; latency
// budgets read a dense per-(task, variant) LUT rebuilt at plan install
// (AllocationPlan keeps the map as its serialization form); fan-out
// bookkeeping reuses member scratch buffers; network hops go on a FIFO
// lane of the simulation, not its heap. Steady-state query flow performs
// no heap allocation outside pool growth.
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/worker.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fault/detector.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/graph.hpp"
#include "serving/allocation.hpp"
#include "serving/degrade.hpp"
#include "serving/fault_plane.hpp"
#include "serving/load_balancer.hpp"
#include "serving/metrics.hpp"
#include "serving/types.hpp"
#include "sim/simulation.hpp"
#include "trace/demand_estimator.hpp"

namespace loki::serving {

/// Early-dropping policy (§5.2, ablated in Fig. 7).
enum class DropPolicy { kNone, kLastTask, kPerTask, kOpportunisticReroute };

std::string to_string(DropPolicy p);

/// Re-planning policy (§4.2) of the Resource Manager and the coordinated
/// control plane; `last` is the demand the current plan was sized for.
/// Off-period trigger: the demand estimate surged or collapsed.
inline bool demand_shifted(double estimate, double last) {
  return estimate > last * 1.25 + 1.0 || estimate < last * 0.5 - 1.0;
}
/// Hysteresis: keep the plan while demand moved less than `threshold`
/// (relative) and the plan serves all of it.
inline bool keep_plan(double demand, double last, double served_fraction,
                      double threshold) {
  const double rel = std::abs(demand - last) / std::max(last, 10.0);
  return rel < threshold && served_fraction >= 1.0;
}

/// Name prefix of every registry series a serving system publishes
/// (<prefix>.admitted, <prefix>.stage.*, <prefix>.lat.*, <prefix>.fault.*,
/// <prefix>.degrade.*).
inline constexpr char kMetricPrefix[] = "serving";

struct SystemConfig {
  AllocatorConfig allocator;
  /// Resource Manager invocation period (§4.2 uses 10 s) and the metrics
  /// window. ServingSystem rejects either unless it is finite and > 0.
  double rm_period_s = 10.0;
  double metrics_window_s = 10.0;
  DropPolicy drop_policy = DropPolicy::kOpportunisticReroute;
  /// Relative jitter on worker execution times (0 = deterministic; the
  /// simulator-validation bench uses this to model the prototype gap).
  double exec_noise_frac = 0.0;
  /// Relative jitter on network hops.
  double comm_jitter_frac = 0.0;
  /// Straggler batches: with this probability a batch runs 1.5x..3x slower
  /// (models contention/throttling on a physical cluster).
  double straggler_prob = 0.0;
  /// Re-allocation hysteresis: the Resource Manager keeps the current plan
  /// when the demand estimate moved less than this relative amount since the
  /// last allocation. Prevents variant-flapping (and the model-swap storms
  /// it causes) when demand is merely noisy.
  double realloc_threshold = 0.06;
  /// Queries arriving before this time are served but not counted in the
  /// metrics (deployment warm-up; the cluster starts empty).
  double metrics_warmup_s = 0.0;
  std::uint64_t seed = 1234;
  /// Observability (src/obs): registry receiving this system's counters and
  /// histograms (nullptr = obs::Registry::global(); experiment drivers pass
  /// a per-run registry so concurrent runs never mix series) and sampled
  /// per-request stage attribution. Tracing defaults ON — the always-on
  /// discipline of ROADMAP item 5 — and is differential-tested to leave
  /// every simulation metric bit-identical.
  obs::Registry* registry = nullptr;
  obs::TraceOptions trace;
  /// Fault injection schedule (src/fault) and heartbeat failure detection.
  /// A non-empty plan or detector.enabled arms the FaultPlane; otherwise
  /// there is none (differential-tested bit-identical).
  fault::FaultPlan fault_plan;
  fault::DetectorConfig detector;
  /// SLO tiers (serving/degrade.hpp). Off keeps the data plane bit-identical
  /// to the untiered system (differential-tested).
  TierPolicy tiers;
};

class ServingSystem {
 public:
  /// `graph` and `strategy` must outlive the system. `profiles` is the
  /// Metadata Store's profiled q(i,k,b) table shared with the strategy.
  /// `strategy` may be nullptr only for externally-planned systems (see
  /// start_external): such a system never runs its own Resource Manager.
  ServingSystem(sim::Simulation* sim, const pipeline::PipelineGraph* graph,
                ProfileTable profiles, AllocationStrategy* strategy,
                SystemConfig cfg);

  ServingSystem(const ServingSystem&) = delete;
  ServingSystem& operator=(const ServingSystem&) = delete;

  /// Performs the initial allocation and schedules the periodic control
  /// events. Call once before submitting queries.
  void start();

  /// Externally-planned (coordinated) mode: schedules only the Load
  /// Balancer and heartbeat loops — no Resource Manager. A coordinator
  /// (e.g. the intra-cluster-sharded experiment driver) pushes plans via
  /// install_plan() at parallel-simulation window barriers. Call once,
  /// instead of start().
  void start_external();

  /// Applies a plan produced outside this system (coordinated mode): worker
  /// placement, routing refresh, allocation metrics. The plan's
  /// solve_time_s is NOT added to total_solve_time_s() — the coordinator
  /// accounts the (shared) solve once.
  void install_plan(AllocationPlan plan);

  /// Client query arriving now (drives one end-to-end pipeline execution).
  /// Equivalent to submit(0): untiered callers produce strict-tier traffic.
  void submit() { submit(/*tier=*/0); }
  /// Tiered submission (0 = strict, 1 = standard, 2 = best-effort; clamped).
  /// With cfg.tiers.enabled this runs priority-aware admission control and
  /// shedding; otherwise the tier only labels the per-tier accounting.
  void submit(int tier);

  /// Stops periodic events and flushes metrics windows at `t_end`.
  void finish(double t_end);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const AllocationPlan& current_plan() const { return plan_; }
  const pipeline::MultFactorTable& mult_estimates() const {
    return mult_estimates_;
  }
  /// Total allocation-solve wall time spent so far (RM overhead, §6.5).
  double total_solve_time_s() const { return total_solve_time_s_; }
  int allocations_performed() const { return allocations_; }

  /// Current frontend demand estimate (coordinated-mode input merging).
  double demand_estimate_now() { return demand_.estimate(sim_->now()); }
  /// Drains the per-task arrival-rate window (coordinated-mode input
  /// merging; the in-process Resource Manager calls the private form).
  std::vector<double> drain_task_arrivals_now() {
    return drain_task_arrivals(sim_->now());
  }

  /// Aggregated per-stage hot-path counters across the whole cluster
  /// (queue wait / batching / execute / swap stalls). Semantics: monotonic
  /// since system construction — apply_plan / install_plan re-installs,
  /// worker reassignments and deactivations never reset them, so two
  /// snapshots straddling any number of plan changes subtract into the
  /// exact work done in between. Deltas are also published into the
  /// registry (<prefix>.stage.*) at every heartbeat and at finish().
  cluster::StageCounters stage_counters() const;

  /// Workers currently crashed (0 unless the fault plane injected some).
  int crashed_workers() const;
  /// The fault plane; nullptr when unarmed.
  FaultPlane* fault() { return fault_.get(); }
  const FaultPlane* fault() const { return fault_.get(); }

 private:
  friend class FaultPlane;

  struct QueryState {
    double arrival = 0.0;
    double deadline = 0.0;
    int outstanding = 0;
    bool dropped = false;
    bool metered = true;  // false during the warm-up window
    /// Why the query was lost (first drop wins; kCapacity when not fault-
    /// related — the pre-fault-subsystem behavior).
    LossCause cause = LossCause::kCapacity;
    double accuracy_sum = 0.0;
    int sink_completions = 0;
    /// SLO tier (0 strict .. 2 best-effort); drives per-tier accounting.
    int tier = 0;
  };

  /// One committed fan-out decision awaiting dispatch (scratch-pooled).
  struct PendingForward {
    int group;
    int count;
    int child_task;
  };

  void on_batch_done(cluster::Worker& w, std::vector<cluster::WorkItem>& items,
                     const cluster::Worker::BatchContext& ctx);
  void on_dropped_items(cluster::Worker& w,
                        std::vector<cluster::WorkItem>& items);
  bool last_task_filter(const cluster::Worker& w,
                        const cluster::WorkItem& item) const;

  /// `force` skips the demand hysteresis (failure re-plans must always
  /// produce a fresh plan over the surviving workers).
  void run_resource_manager(bool force = false);
  /// Installs a plan (from the Resource Manager or a coordinator): worker
  /// placement, routing refresh and allocation metrics.
  void commit_plan(AllocationPlan plan, double demand);
  void run_load_balancer();
  void run_heartbeat();
  /// Schedules the periodic control loops (RM only when `with_rm`).
  void schedule_control_loops(bool with_rm);

  void apply_plan(AllocationPlan plan);
  void redistribute(std::vector<cluster::WorkItem>&& items);
  /// Starts deferred swaps while under the concurrency bound.
  void kick_pending_swaps();

  /// Picks a group from a flattened route table; -1 when the draw lands in
  /// the unplaced remainder (shed/drop). Empty tables short-circuit before
  /// drawing (the routing RNG stream must advance exactly as often as the
  /// pre-table runtime did — bit-reproducibility).
  int pick_group(const RoutingPlan::DrawTable& table);
  /// Least-loaded active worker of a group; -1 if the group has none.
  /// With a fault plane, quarantined (suspect/dead) workers are skipped
  /// first and reconsidered only if nothing else is available.
  int pick_worker(int group) const;
  /// Least-loaded active worker hosting `task` (any variant).
  int pick_worker_for_task(int task) const;
  /// Scans skip workers whose `skip` entry is set (nullptr = skip none).
  int scan_group(int group, const char* skip) const;
  int scan_task(int task, const char* skip) const;
  /// True while any worker is crashed. Routing-gap losses (no staffed
  /// group / no worker for a task) during an outage are crash collateral
  /// and attributed to kWorkerFailure, not to shedding policy; only the
  /// loss paths call this, so the O(workers) scan is off the hot path.
  bool any_worker_crashed() const;

  void forward_item(cluster::WorkItem item, int group);
  /// Expected remaining time budget below `task` (mean per-task budgets of
  /// the plan plus per-hop comm), for the rerouting feasibility test.
  double descendant_budget(int task) const {
    return desc_budget_[static_cast<std::size_t>(task)];
  }
  void recompute_descendant_budgets();
  /// Rebuilds the dense per-(task, variant) latency-budget LUT from the
  /// freshly installed plan's map.
  void rebuild_budget_lut();
  void drop_query_part(std::uint64_t query_id, double now,
                       LossCause cause = LossCause::kCapacity);
  void complete_part(std::uint64_t query_id, double now);
  double runtime_budget(int task, int variant, int batch) const;
  double comm_delay();
  /// Publishes the delta of the aggregate stage counters since the last
  /// publication into the registry (pull model: workers bump plain members
  /// on the hot path; only this cold path touches atomics).
  void publish_stage_counters();

  sim::Simulation* sim_;
  /// Every network hop goes on this FIFO lane: hops all wait the same comm
  /// delay, so they are created in time order. (Comm jitter, or a fault
  /// plane delay that shrinks, sends an out-of-order hop to the heap.)
  sim::Simulation::LaneId hop_lane_;
  const pipeline::PipelineGraph* graph_;
  ProfileTable profiles_;
  AllocationStrategy* strategy_;
  SystemConfig cfg_;

  LoadBalancer lb_;
  Metrics metrics_;
  /// Frontend demand estimate (1 s windows, EWMA weight 0.35, headroom
  /// 1.10: the trace::kDemand* constants).
  trace::DemandEstimator demand_;

  AllocationPlan plan_;
  RoutingPlan routing_;
  std::vector<double> desc_budget_;  // per task
  pipeline::MultFactorTable mult_estimates_;

  // Pipeline-graph lookups cached at construction: root() and
  // branch_ratio() are linear scans inside the graph, and the completion
  // path consults them per arrival / per detected object.
  int root_task_ = 0;
  std::vector<std::vector<double>> branch_ratios_;  // [task][child index]

  // Dense latency-budget LUT: budget_lut_[budget_off_[task] + variant],
  // -1 when the current plan has no (task, variant) entry (fall back to the
  // profiled-latency rule). Rebuilt by rebuild_budget_lut() at plan install;
  // AllocationPlan::latency_budget_s (std::map) stays the authoring and
  // serialization form (plan_io).
  std::vector<std::size_t> budget_off_;  // per task, catalog-size prefix sums
  std::vector<double> budget_lut_;

  std::vector<std::unique_ptr<cluster::Worker>> workers_;
  /// Packed per-worker load cells published by the workers themselves
  /// (cluster::Worker::bind_load_cell): replica selection reads 4 bytes per
  /// candidate instead of chasing a unique_ptr and three flags. Parallel
  /// array worker_task_ mirrors each worker's hosted task (-1 inactive) for
  /// the any-worker-of-task fallback scan.
  std::vector<std::uint32_t> worker_load_;
  std::vector<int> worker_task_;
  std::vector<std::vector<int>> group_workers_;  // plan group -> worker ids
  std::vector<int> worker_group_;                // worker id -> group (-1)
  std::deque<std::pair<int, int>> pending_swaps_;  // (worker id, group)
  int swaps_in_flight_ = 0;

  /// Per-query state in a generation-checked slab pool: the query id carried
  /// by WorkItems *is* the pool handle, so the completion path resolves it
  /// with an index + generation check instead of hashing, and finalized
  /// queries recycle their slot in O(1). Stale ids (parts arriving after the
  /// query finalized) resolve to nullptr, same as the old map-miss path.
  HandlePool<QueryState> queries_;

  /// Observed per-task arrival rates since the last plan request, handed to
  /// the strategy inside PlanRequest::task_arrivals_qps (pipeline-agnostic
  /// strategies consume these instead of propagating demand). Resets the
  /// accumulation window and returns empty when no time has elapsed.
  std::vector<double> drain_task_arrivals(double now);

  // Observed multiplicative factors since the last heartbeat.
  std::vector<std::vector<double>> obs_in_;   // [task][variant]
  std::vector<std::vector<double>> obs_out_;  // [task][variant]
  std::vector<double> task_window_arrivals_;  // per task, since last plan
  double arrivals_window_start_ = 0.0;

  // Fan-out scratch reused across items (capacity survives; the completion
  // path never allocates in steady state).
  std::vector<int> scratch_child_counts_;
  std::vector<PendingForward> scratch_forwards_;

  Rng rng_routing_;
  Rng rng_mult_;
  Rng rng_jitter_;
  Rng rng_shed_;

  /// Optional planes (see the header comment).
  TierPlane tiers_;
  std::unique_ptr<FaultPlane> fault_;

  /// Per-request stage attribution; shared with every worker via
  /// set_tracer(). Histograms land in the configured registry under
  /// kMetricPrefix.
  obs::QueryTracer tracer_;
  /// Stage totals already pushed to the registry (delta publication).
  cluster::StageCounters published_stage_;
  obs::Counter c_admitted_;
  obs::Counter c_stage_enqueued_;
  obs::Counter c_stage_queue_ns_;
  obs::Counter c_stage_batches_;
  obs::Counter c_stage_batch_items_;
  obs::Counter c_stage_execute_ns_;
  obs::Counter c_stage_swaps_;
  obs::Counter c_stage_swap_ns_;

  /// Owners of the self-rescheduling control-loop callbacks. The scheduled
  /// lambdas hold weak_ptrs into these, so destroying the system breaks the
  /// reschedule cycle instead of leaking it.
  std::vector<std::shared_ptr<std::function<void()>>> periodic_;
  bool started_ = false;
  bool stopped_ = false;
  bool external_ = false;
  bool has_plan_ = false;
  double last_alloc_demand_ = 0.0;
  double total_solve_time_s_ = 0.0;
  int allocations_ = 0;
};

}  // namespace loki::serving
