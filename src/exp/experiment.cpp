#include "exp/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/inferline.hpp"
#include "baselines/proteus.hpp"
#include "common/check.hpp"
#include "common/padded.hpp"
#include "profile/profiler.hpp"
#include "serving/control_plane.hpp"
#include "serving/strategy_registry.hpp"
#include "sim/parallel.hpp"

namespace loki::exp {

namespace {

/// Registry factory for a strategy built from the shared (config, graph,
/// profiles) construction triple.
template <typename Strategy>
serving::StrategyRegistry::Factory factory_of() {
  return [](const serving::AllocatorConfig& cfg,
            const pipeline::PipelineGraph* graph,
            const serving::ProfileTable& profiles)
             -> std::unique_ptr<serving::AllocationStrategy> {
    return std::make_unique<Strategy>(cfg, graph, profiles);
  };
}

}  // namespace

void register_builtin_strategies() {
  auto& registry = serving::StrategyRegistry::global();
  // add() is a no-op when the key exists, so repeat calls are harmless.
  registry.add("loki-milp", factory_of<serving::MilpAllocator>());
  registry.add("greedy", factory_of<serving::GreedyAllocator>());
  registry.add("inferline", factory_of<baselines::InferLineStrategy>());
  registry.add("proteus", factory_of<baselines::ProteusStrategy>());
}

std::unique_ptr<serving::AllocationStrategy> make_strategy(
    const std::string& name, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles) {
  register_builtin_strategies();
  return serving::StrategyRegistry::global().create(name, cfg, graph,
                                                    profiles);
}

WeightedInterleave::WeightedInterleave(std::vector<double> weights)
    : weights_(std::move(weights)), assigned_(weights_.size(), 0.0) {
  LOKI_CHECK(!weights_.empty());
  double total = 0.0;
  for (double w : weights_) {
    LOKI_CHECK_MSG(w >= 0.0, "interleave weights must be non-negative");
    total += w;
  }
  LOKI_CHECK_MSG(total > 0.0, "interleave weights must sum to > 0");
  for (double& w : weights_) w /= total;
}

std::size_t WeightedInterleave::next() {
  ++step_;
  const double t = static_cast<double>(step_);
  std::size_t best = 0;
  double best_deficit = weights_[0] * t - assigned_[0];
  for (std::size_t i = 1; i < weights_.size(); ++i) {
    const double deficit = weights_[i] * t - assigned_[i];
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = i;
    }
  }
  assigned_[best] += 1.0;
  return best;
}

namespace {

/// Per-shard worker counts: floor(cluster / K) plus one for the first
/// cluster % K shards.
std::vector<int> shard_shares(int cluster, std::size_t shards) {
  std::vector<int> share(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    share[s] = cluster / static_cast<int>(shards) +
               (static_cast<int>(s) < cluster % static_cast<int>(shards) ? 1
                                                                         : 0);
  }
  return share;
}

/// Simulation end time: past the curve AND any replay tail, plus drain.
/// Without a replay this is exactly the pre-replay horizon.
double run_horizon(const trace::DemandCurve& curve,
                   const ExperimentConfig& cfg) {
  return std::max(curve.duration_s(), cfg.replay.duration_s()) + cfg.drain_s;
}

/// Rejects the knobs run_experiment would otherwise silently ignore: the
/// system_cfg fields it overwrites per shard, a tier mix next to a replay,
/// tier-policy fields while tiers are off, near_warm_start for a strategy
/// that never reads it, and the sharding knobs that disagree with the shard
/// count. Also rejects more shards than the cluster holds.
void check_run_level_knobs(const ExperimentConfig& cfg,
                           const pipeline::PipelineGraph& graph) {
  const serving::SystemConfig& scfg = cfg.system_cfg;
  LOKI_CHECK_MSG(scfg.registry == nullptr,
                 "system_cfg.registry is replaced by the per-run registry; "
                 "read ExperimentResult::obs instead");
  LOKI_CHECK_MSG(scfg.fault_plan.empty(),
                 "system_cfg.fault_plan is replaced by each shard's split of "
                 "the run's plan; set ExperimentConfig::fault_plan instead");
  LOKI_CHECK_MSG(!scfg.tiers.enabled,
                 "system_cfg.tiers is replaced by the run's tier policy; set "
                 "ExperimentConfig::tiers instead");
  LOKI_CHECK_MSG(cfg.replay.empty() || cfg.tier_mix.empty(),
                 "ExperimentConfig::tier_mix is ignored with a replay, which "
                 "stamps each arrival's tier itself; clear one of the two");
  LOKI_CHECK_MSG(!scfg.allocator.near_warm_start ||
                     (cfg.system != "greedy" && cfg.system != "inferline" &&
                      cfg.system != "proteus"),
                 "system_cfg.allocator.near_warm_start is ignored by the "
                     << cfg.system
                     << " strategy, which solves no MILP; unset it");
  // Every shard's allocator needs at least one worker per task.
  const std::size_t max_shards = static_cast<std::size_t>(std::max(
      1, scfg.allocator.cluster_size / std::max(1, graph.num_tasks())));
  LOKI_CHECK_MSG(cfg.sim_shards <= max_shards,
                 "ExperimentConfig::sim_shards = "
                     << cfg.sim_shards << " is more than the cluster holds: "
                     << "each shard needs one worker per pipeline task, so "
                     << "at most cluster_size / num_tasks = " << max_shards);
  const bool sharded = cfg.sim_shards > 1;
  LOKI_CHECK_MSG(cfg.sim_coordinated == sharded,
                 "ExperimentConfig::sim_coordinated must equal sim_shards > 1 "
                 "(sim_shards = "
                     << cfg.sim_shards
                     << "): every sharded run is coordinated, and a one-shard "
                        "run plans for itself");
  const std::size_t shards = std::max<std::size_t>(1, cfg.sim_shards);
  LOKI_CHECK_MSG(cfg.sim_threads <= shards,
                 "ExperimentConfig::sim_threads = "
                     << cfg.sim_threads << " is more than the run's " << shards
                     << " shard(s), and a thread runs whole shards; set it to "
                        "0 (automatic) or at most "
                     << shards);
  const serving::TierPolicy off;
  LOKI_CHECK_MSG(cfg.tiers.enabled ||
                     cfg.tiers.depth_watermark == off.depth_watermark,
                 "ExperimentConfig::tiers.depth_watermark is ignored while "
                 "tiers.enabled is false; enable tiers or keep the default");
  LOKI_CHECK_MSG(cfg.tiers.enabled || !cfg.tiers.remainder_priority,
                 "ExperimentConfig::tiers.remainder_priority is ignored while "
                 "tiers.enabled is false; enable tiers or unset it");
}

/// The serving-system config of shard `s`: its slice of the cluster and of
/// the fault plan, plus the run's registry and tier policy. A single shard
/// keeps the configured seed; with K > 1 each shard gets a decorrelated seed
/// (shards model disjoint replica groups).
serving::SystemConfig shard_config(const ExperimentConfig& cfg,
                                   const std::vector<int>& share,
                                   const std::vector<fault::FaultPlan>& faults,
                                   std::size_t s, obs::Registry* registry) {
  serving::SystemConfig scfg = cfg.system_cfg;
  scfg.allocator.cluster_size = share[s];
  if (share.size() > 1) scfg.seed = cfg.system_cfg.seed + 1000003 * (s + 1);
  scfg.registry = registry;
  scfg.fault_plan = faults[s];
  scfg.tiers = cfg.tiers;
  return scfg;
}

/// One planner: the run's strategy sized for `alloc`, wrapped in the
/// fallback chain when cfg.fallback is enabled — with a near-warm MILP and a
/// greedy allocator for the same slice as rungs 1 and 2, counting outcomes
/// under serving.degrade.plan_*. The control plane builds every planned
/// slice's planner here.
std::unique_ptr<serving::AllocationStrategy> make_planner(
    const ExperimentConfig& cfg, const serving::AllocatorConfig& alloc,
    const pipeline::PipelineGraph& graph, const serving::ProfileTable& profiles,
    obs::Registry& registry) {
  auto strategy = make_strategy(cfg.system, alloc, &graph, profiles);
  if (!cfg.fallback.enabled) return strategy;
  serving::AllocatorConfig near = alloc;
  near.near_warm_start = true;
  return std::make_unique<serving::PlanFallbackChain>(
      std::move(strategy),
      std::make_unique<serving::MilpAllocator>(near, &graph, profiles),
      std::make_unique<serving::GreedyAllocator>(alloc, &graph, profiles),
      &graph, alloc.cluster_size, registry,
      std::string(serving::kMetricPrefix) + ".degrade");
}

using Systems = std::vector<std::unique_ptr<serving::ServingSystem>>;

/// Streams the global (timestamp, tier) arrival sequence into the shard
/// systems. The sequence is drawn lazily: the replay verbatim when one is
/// configured, else the sampled arrival stream with tiers drawn in global
/// arrival order (TierSampler draws nothing without a tier mix). A
/// WeightedInterleave deals it to the shards one window at a time, weighted
/// by each shard's surviving worker count (share minus crashed), re-read at
/// every barrier; the interleave is rebuilt only when the weights change.
/// A crash thus moves load to the survivors, as the one-cluster run's
/// replica pick does, from the arrivals one window past the next barrier
/// on. Equal shares with no crash deal round-robin. Each shard's dealt
/// arrivals are counted in exp.shard<k>.arrivals.
///
/// Dealing runs one window ahead of the simulation, so a shard's chained
/// pump finds its next arrival in its buffer whenever that arrival is less
/// than a window away, and schedules it as the previous one fires — the
/// same event order as an unbuffered pump, ties included. The pump's
/// events come in time order, so they go on a FIFO lane of the shard's
/// simulation instead of its heap. A pump that runs dry is restarted by the
/// barrier that deals its next arrival. Memory is two windows of arrivals,
/// whatever the trace length.
class ArrivalFeeder {
 public:
  ArrivalFeeder(const trace::DemandCurve& curve, const ExperimentConfig& cfg,
                const std::vector<int>& share, sim::ParallelSimulation* psim,
                obs::Registry* registry)
      : cfg_(cfg),
        share_(share),
        psim_(psim),
        stream_(curve, cfg.arrivals),
        sampler_(cfg.tier_mix, cfg.tier_seed),
        shards_(share.size()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].lane = psim_->shard(s).add_lane("arrival");
      shards_[s].arrivals =
          registry->counter("exp.shard" + std::to_string(s) + ".arrivals");
    }
    draw();
  }
  // Scheduled pump events hold `this`.
  ArrivalFeeder(const ArrivalFeeder&) = delete;
  ArrivalFeeder& operator=(const ArrivalFeeder&) = delete;

  /// Deals the first two windows and starts the pumps; call once the shard
  /// systems have started.
  void arm(const Systems* systems) {
    systems_ = systems;
    refresh_weights();
    deal_until(2.0 * kSimWindowS);
  }

  /// Barrier hook: deals the window after the next one.
  void on_barrier(double now) {
    refresh_weights();
    deal_until(now + 2.0 * kSimWindowS);
  }

 private:
  // Each shard's pump runs on that shard's thread: keep them off each
  // other's cache lines.
  struct Arrival {
    double t;
    int tier;
  };
  struct alignas(kCacheLineBytes) Shard {
    std::vector<Arrival> dealt;  // ascending t
    std::size_t head = 0;        // next arrival to fire
    bool pumping = false;        // an arrival event is pending
    sim::Simulation::LaneId lane;  // the pump's time-ordered events
    obs::Counter arrivals;
  };

  /// Draws the next global arrival into next_; next_.t < 0 once the
  /// sequence is exhausted.
  void draw() {
    if (cfg_.replay.empty()) {
      next_.t = stream_.next();
      if (next_.t >= 0.0) next_.tier = sampler_.next();
    } else if (replay_idx_ < cfg_.replay.rows.size()) {
      const trace::ReplayRow& row = cfg_.replay.rows[replay_idx_++];
      next_ = {row.t_s, row.tier};
    } else {
      next_.t = -1.0;
    }
  }

  void refresh_weights() {
    std::vector<double> w;
    for (const auto& system : *systems_) {
      w.push_back(static_cast<double>(system->surviving_workers()));
    }
    if (std::accumulate(w.begin(), w.end(), 0.0) <= 0.0) {
      // Every worker everywhere is down: keep dealing by share so arrivals
      // still land somewhere deterministic (and get accounted as sheds).
      w.assign(share_.begin(), share_.end());
    }
    if (interleave_ == nullptr || w != weights_) {
      weights_ = std::move(w);
      interleave_ = std::make_unique<WeightedInterleave>(weights_);
    }
  }

  /// Deals every arrival before `horizon`, then restarts the pumps that ran
  /// dry and have work again.
  void deal_until(double horizon) {
    std::vector<std::size_t> kept(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      sh.dealt.erase(sh.dealt.begin(),
                     sh.dealt.begin() + static_cast<std::ptrdiff_t>(sh.head));
      sh.head = 0;
      kept[s] = sh.dealt.size();
    }
    while (next_.t >= 0.0 && next_.t < horizon) {
      shards_[interleave_->next()].dealt.push_back(next_);
      draw();
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      sh.arrivals.add(sh.dealt.size() - kept[s]);
      if (!sh.pumping) schedule_next(s);
    }
  }

  void fire(std::size_t s) {
    Shard& sh = shards_[s];
    (*systems_)[s]->submit(sh.dealt[sh.head++].tier);
    schedule_next(s);
  }

  void schedule_next(std::size_t s) {
    Shard& sh = shards_[s];
    sh.pumping = sh.head < sh.dealt.size();
    if (sh.pumping) {
      psim_->shard(s).push(sh.lane, sh.dealt[sh.head].t,
                           [this, s]() { fire(s); });
    }
  }

  const ExperimentConfig& cfg_;
  std::vector<int> share_;
  sim::ParallelSimulation* psim_;
  const Systems* systems_ = nullptr;
  trace::ArrivalStream stream_;
  trace::TierSampler sampler_;
  std::size_t replay_idx_ = 0;
  Arrival next_{-1.0, 0};  // drawn, not yet dealt
  std::vector<double> weights_;  // unnormalized, for change detection
  std::unique_ptr<WeightedInterleave> interleave_;
  std::vector<Shard> shards_;
};

}  // namespace

ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg) {
  check_run_level_knobs(cfg, graph);
  profile::ModelProfiler profiler(profile::default_batch_set(),
                                  /*repetitions=*/5, cfg.profiler_noise_frac,
                                  cfg.profiler_seed);
  serving::ProfileTable profiles =
      serving::build_profile_table(graph, profiler);

  const std::size_t shards = std::max<std::size_t>(1, cfg.sim_shards);
  const std::vector<int> share =
      shard_shares(cfg.system_cfg.allocator.cluster_size, shards);

  // One registry per run: concurrent run_experiment calls (e.g. the fig5
  // bench runs three systems on a team) must not mix series. All of
  // a run's shard systems share it, so stage histograms and counters merge
  // cluster-wide.
  obs::Registry registry;

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = kSimWindowS;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);
  ArrivalFeeder feeder(curve, cfg, share, &psim, &registry);
  // The global-id fault plan splits along the worker-share ranges of the
  // cluster split (cluster-wide events go to every shard); ids outside the
  // cluster are rejected here, before anything runs.
  const std::vector<fault::FaultPlan> faults =
      fault::split_by_shares(cfg.fault_plan, share);

  Systems systems;
  std::vector<serving::ServingSystem*> planned;
  for (std::size_t s = 0; s < shards; ++s) {
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles,
        shard_config(cfg, share, faults, s, &registry)));
    planned.push_back(systems.back().get());
  }
  serving::ControlPlane control(
      std::move(planned), [&](const serving::AllocatorConfig& slice) {
        return make_planner(cfg, slice, graph, profiles, registry);
      });
  // The initial allocation (solver work) runs here, on the driving thread.
  control.start();
  feeder.arm(&systems);
  psim.set_barrier_callback([&](sim::Time now) {
    feeder.on_barrier(now);
    control.on_barrier(now);
  });

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  ExperimentResult out;
  for (auto& system : systems) system->finish(t_end);
  out.system_name = control.name();
  out.total_solve_time_s = control.total_solve_time_s();
  out.allocations = control.allocations();
  // Shard 0's metrics absorb the rest. Every shard's metrics move, so no
  // latency sample is copied at any shard count.
  serving::Metrics& m = out.metrics = std::move(systems[0]->metrics());
  for (std::size_t s = 1; s < shards; ++s) {
    m.merge(std::move(systems[s]->metrics()));
  }
  out.slo_violation_ratio = m.slo_violation_ratio();
  out.mean_accuracy = m.mean_accuracy();
  out.mean_latency_s = m.mean_latency_s();
  out.p99_latency_s = m.p99_latency_s();
  out.mean_servers_used = m.mean_servers_used();
  out.arrivals = m.arrivals();
  out.drops = m.drops();
  // Deterministic event-core work, summed over shards: events fired, and
  // per lane the events it fired and the pushes that fell back to the heap.
  for (std::size_t s = 0; s < shards; ++s) {
    const sim::Simulation& sim = psim.shard(s);
    registry.counter("exp.sim.events").add(sim.processed());
    for (std::uint32_t l = 0; l < sim.num_lanes(); ++l) {
      const auto& lane = sim.lane_stats(sim::Simulation::LaneId{l});
      const std::string prefix = "exp.sim.lane." + lane.name;
      registry.counter(prefix + ".events").add(lane.fired);
      registry.counter(prefix + ".fallbacks").add(lane.fallbacks);
    }
  }
  out.obs = registry.snapshot();
  if (!cfg.obs_csv_path.empty()) out.obs.write_csv(cfg.obs_csv_path);
  return out;
}

PlanProbe probe_plan(serving::AllocationStrategy& strategy,
                     const pipeline::PipelineGraph& graph, double demand_qps) {
  // Pure planner probe: a fresh single-epoch request with no previous plan,
  // so probes are independent of each other and of any prior probes on the
  // same strategy.
  const auto plan =
      strategy.plan({demand_qps, pipeline::default_mult_factors(graph)}).plan;
  PlanProbe probe;
  probe.demand_qps = demand_qps;
  probe.mode = plan.mode;
  probe.expected_accuracy = plan.expected_accuracy;
  probe.served_fraction = plan.served_fraction;
  probe.servers_used = plan.servers_used;

  // Flow-weighted mean variant accuracy per task.
  probe.task_accuracy.assign(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  std::vector<double> weight(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  for (const auto& flow : plan.flows) {
    for (std::size_t i = 0; i < flow.path.tasks.size(); ++i) {
      const int t = flow.path.tasks[i];
      const double a =
          graph.task(t).catalog.at(flow.path.variants[i]).accuracy;
      probe.task_accuracy[static_cast<std::size_t>(t)] += flow.fraction * a;
      weight[static_cast<std::size_t>(t)] += flow.fraction;
    }
  }
  for (std::size_t t = 0; t < probe.task_accuracy.size(); ++t) {
    if (weight[t] > 1e-12) probe.task_accuracy[t] /= weight[t];
    else probe.task_accuracy[t] = 1.0;
  }
  return probe;
}

double find_capacity(serving::AllocationStrategy& strategy, double lo,
                     double hi, const pipeline::MultFactorTable& mult,
                     double tol_qps) {
  LOKI_CHECK(lo >= 0.0 && hi > lo && tol_qps > 0.0);
  auto servable = [&](double qps) {
    return strategy.serves_demand({qps, mult}).served;
  };
  if (!servable(lo)) return 0.0;
  if (servable(hi)) return hi;
  while (hi - lo > tol_qps) {
    const double mid = 0.5 * (lo + hi);
    if (servable(mid)) lo = mid;
    else hi = mid;
  }
  return lo;
}

}  // namespace loki::exp
