#include "exp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/inferline.hpp"
#include "baselines/proteus.hpp"
#include "common/check.hpp"
#include "profile/profiler.hpp"
#include "serving/strategy_registry.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"

namespace loki::exp {

void register_builtin_strategies() {
  auto& registry = serving::StrategyRegistry::global();
  // add() is a no-op when the key exists, so repeat calls are harmless.
  registry.add("loki-milp",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<serving::MilpAllocator>(cfg, graph,
                                                                 profiles);
               });
  registry.add("greedy",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<serving::GreedyAllocator>(cfg, graph,
                                                                   profiles);
               });
  registry.add("inferline",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<baselines::InferLineStrategy>(
                     cfg, graph, profiles);
               });
  registry.add("proteus",
               [](const serving::AllocatorConfig& cfg,
                  const pipeline::PipelineGraph* graph,
                  const serving::ProfileTable& profiles) {
                 return std::make_unique<baselines::ProteusStrategy>(
                     cfg, graph, profiles);
               });
}

std::unique_ptr<serving::AllocationStrategy> make_strategy(
    const std::string& name, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles) {
  register_builtin_strategies();
  return serving::StrategyRegistry::global().create(name, cfg, graph,
                                                    profiles);
}

std::string to_string(SystemKind k) {
  switch (k) {
    case SystemKind::kLoki: return "loki-milp";
    case SystemKind::kInferLine: return "inferline";
    case SystemKind::kProteus: return "proteus";
    case SystemKind::kGreedy: return "greedy";
  }
  return "?";
}

std::unique_ptr<serving::AllocationStrategy> make_strategy(
    SystemKind kind, const serving::AllocatorConfig& cfg,
    const pipeline::PipelineGraph* graph,
    const serving::ProfileTable& profiles) {
  return make_strategy(to_string(kind), cfg, graph, profiles);
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
/// cluster % K shards — the same split both parallel modes already used.
std::vector<int> shard_shares(int cluster, std::size_t shards) {
  std::vector<int> share(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    share[s] = cluster / static_cast<int>(shards) +
               (static_cast<int>(s) < cluster % static_cast<int>(shards) ? 1
                                                                         : 0);
  }
  return share;
}

/// The global (timestamp, tier) arrival sequence every feed mode deals
/// from: the replay verbatim when one is configured, else the sampled
/// arrival stream with tiers drawn in global arrival order (TierSampler
/// draws nothing without a tier mix, so tier-less runs are bit-identical).
struct GlobalArrivals {
  std::vector<double> t;
  std::vector<int> tier;  // parallel to t
};

GlobalArrivals collect_arrivals(const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg) {
  GlobalArrivals out;
  if (!cfg.replay.empty()) {
    out.t.reserve(cfg.replay.rows.size());
    out.tier.reserve(cfg.replay.rows.size());
    for (const trace::ReplayRow& r : cfg.replay.rows) {
      out.t.push_back(r.t_s);
      out.tier.push_back(r.tier);
    }
    return out;
  }
  trace::ArrivalStream stream(curve, cfg.arrivals);
  trace::TierSampler sampler(cfg.tier_mix, cfg.tier_seed);
  for (double t = stream.next(); t >= 0.0; t = stream.next()) {
    out.t.push_back(t);
    out.tier.push_back(sampler.next());
  }
  return out;
}

/// Simulation end time: past the curve AND any replay tail, plus drain.
/// Without a replay this is exactly the pre-replay horizon.
double run_horizon(const trace::DemandCurve& curve,
                   const ExperimentConfig& cfg) {
  return std::max(curve.duration_s(), cfg.replay.duration_s()) + cfg.drain_s;
}

/// Driver-owned fallback rung strategies: when the chain is enabled but the
/// caller left a rung pointer unset, build the standard rung for it — a
/// near-warm MILP resolve and a greedy allocator — sized for this system's
/// cluster slice. Instances must outlive the serving systems that hold the
/// pointers (declare before the systems vector).
struct FallbackRungs {
  std::unique_ptr<serving::AllocationStrategy> near_warm;
  std::unique_ptr<serving::AllocationStrategy> greedy;

  void fill(serving::FallbackConfig& fb, const serving::AllocatorConfig& alloc,
            const pipeline::PipelineGraph* graph,
            const serving::ProfileTable& profiles) {
    if (!fb.enabled) return;
    if (fb.near_warm == nullptr) {
      serving::AllocatorConfig near = alloc;
      near.near_warm_start = true;
      near_warm =
          std::make_unique<serving::MilpAllocator>(near, graph, profiles);
      fb.near_warm = near_warm.get();
    }
    if (fb.greedy == nullptr) {
      greedy =
          std::make_unique<serving::GreedyAllocator>(alloc, graph, profiles);
      fb.greedy = greedy.get();
    }
  }
};

/// Partitions the arrival sequence across shards: round-robin (the
/// bit-reproducible reference) or share-weighted interleave. Tiers travel
/// with their arrival. Also publishes each shard's observed-demand counter
/// (exp.shard<k>.arrivals).
std::vector<std::vector<double>> partition_arrivals(
    const GlobalArrivals& seq, const ExperimentConfig& cfg,
    const std::vector<int>& share, obs::Registry* registry,
    std::vector<std::vector<int>>* shard_tiers) {
  const std::size_t shards = share.size();
  std::vector<std::vector<double>> shard_arrivals(shards);
  shard_tiers->assign(shards, {});
  if (cfg.sim_weighted_split) {
    std::vector<double> weights(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      weights[s] = static_cast<double>(share[s]);
    }
    WeightedInterleave interleave(std::move(weights));
    for (std::size_t j = 0; j < seq.t.size(); ++j) {
      const std::size_t s = interleave.next();
      shard_arrivals[s].push_back(seq.t[j]);
      (*shard_tiers)[s].push_back(seq.tier[j]);
    }
  } else {
    for (std::size_t j = 0; j < seq.t.size(); ++j) {
      const std::size_t s = j % shards;
      shard_arrivals[s].push_back(seq.t[j]);
      (*shard_tiers)[s].push_back(seq.tier[j]);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    registry->counter("exp.shard" + std::to_string(s) + ".arrivals")
        .add(shard_arrivals[s].size());
  }
  return shard_arrivals;
}

/// Streams the shared arrival sequence into the shard systems. Two modes:
///
///  - pre-partitioned (default): the sequence is dealt to shards up front
///    (round-robin or share-weighted interleave, partition_arrivals above)
///    and each shard runs a chained arrival pump over its slice — the
///    bit-reproducible reference.
///  - sim_reweight: arrivals are dealt one *window* at a time from the
///    barrier, re-deriving each shard's weight from its surviving worker
///    count (share minus crashed workers), so a mid-run crash shifts the
///    following windows' load onto the survivors. The interleave persists
///    across windows and is rebuilt only when the weights change, so with
///    constant weights the assignment — and the run's metrics — match the
///    upfront weighted partition exactly (differential-tested).
///
/// init() runs before the shard systems are constructed (it registers the
/// exp.shard<k>.arrivals counters in the same order partition_arrivals did);
/// arm() runs after ServingSystem::start(), when worker states exist.
struct ShardArrivalFeeder {
  sim::ParallelSimulation* psim = nullptr;
  std::vector<std::unique_ptr<serving::ServingSystem>>* systems = nullptr;
  std::vector<int> share;
  double window_s = 0.0;
  bool reweight = false;

  // Pre-partitioned mode.
  std::vector<std::vector<double>> shard_arrivals;
  std::vector<std::vector<int>> shard_tiers;
  std::vector<std::size_t> next_idx;
  std::vector<std::function<void()>> pumps;

  // Reweight mode.
  std::vector<double> arrivals;  // full sequence, ascending
  std::vector<int> tiers;        // parallel to arrivals
  std::size_t cursor = 0;
  std::vector<double> weights;  // unnormalized, for change detection
  std::unique_ptr<WeightedInterleave> interleave;
  std::vector<obs::Counter> counters;

  void init(const trace::DemandCurve& curve, const ExperimentConfig& cfg,
            obs::Registry* registry) {
    reweight = cfg.sim_reweight;
    GlobalArrivals seq = collect_arrivals(curve, cfg);
    if (!reweight) {
      shard_arrivals =
          partition_arrivals(seq, cfg, share, registry, &shard_tiers);
      return;
    }
    arrivals = std::move(seq.t);
    tiers = std::move(seq.tier);
    counters.reserve(share.size());
    for (std::size_t s = 0; s < share.size(); ++s) {
      counters.push_back(
          registry->counter("exp.shard" + std::to_string(s) + ".arrivals"));
    }
  }

  void arm() {
    const std::size_t shards = share.size();
    if (reweight) {
      refresh_weights();
      schedule_until(window_s);
      return;
    }
    next_idx.assign(shards, 0);
    pumps.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      pumps[s] = [this, s]() {
        const std::size_t i = next_idx[s];
        (*systems)[s]->submit(shard_tiers[s][i]);
        const std::size_t j = next_idx[s] = i + 1;
        if (j < shard_arrivals[s].size()) {
          psim->shard(s).schedule_at(shard_arrivals[s][j],
                                     [&pump = pumps[s]]() { pump(); });
        }
      };
      if (!shard_arrivals[s].empty()) {
        psim->shard(s).schedule_at(shard_arrivals[s][0],
                                   [&pump = pumps[s]]() { pump(); });
      }
    }
  }

  /// Barrier hook (reweight mode only): deal the next window's arrivals
  /// with weights recomputed from the current crash state.
  void on_barrier(double now) {
    if (!reweight) return;
    refresh_weights();
    schedule_until(now + window_s);
  }

  void refresh_weights() {
    std::vector<double> w(share.size());
    double total = 0.0;
    for (std::size_t s = 0; s < share.size(); ++s) {
      w[s] = static_cast<double>(
          std::max(0, share[s] - (*systems)[s]->crashed_workers()));
      total += w[s];
    }
    if (total <= 0.0) {
      // Every worker everywhere is down: keep dealing by share so arrivals
      // still land somewhere deterministic (and get accounted as sheds).
      for (std::size_t s = 0; s < share.size(); ++s) {
        w[s] = static_cast<double>(share[s]);
      }
    }
    if (interleave == nullptr || w != weights) {
      weights = std::move(w);
      interleave = std::make_unique<WeightedInterleave>(weights);
    }
  }

  void schedule_until(double horizon) {
    while (cursor < arrivals.size() && arrivals[cursor] < horizon) {
      const double t = arrivals[cursor];
      const int tier = tiers[cursor];
      ++cursor;
      const std::size_t s = interleave->next();
      counters[s].add(1);
      serving::ServingSystem* sys = (*systems)[s].get();
      psim->shard(s).schedule_at(t, [sys, tier]() { sys->submit(tier); });
    }
  }
};

ExperimentResult result_from_metrics(const std::string& name,
                                     const serving::Metrics& m,
                                     double total_solve_time_s,
                                     int allocations) {
  ExperimentResult out;
  out.system_name = name;
  out.slo_violation_ratio = m.slo_violation_ratio();
  out.mean_accuracy = m.mean_accuracy();
  out.mean_latency_s = m.mean_latency_s();
  out.p99_latency_s = m.p99_latency_s();
  out.mean_servers_used = m.mean_servers_used();
  out.arrivals = m.arrivals();
  out.drops = m.drops();
  out.total_solve_time_s = total_solve_time_s;
  out.allocations = allocations;
  out.metrics = m;
  return out;
}

/// Parallel simulation mode: K independent (cluster slice, arrival slice)
/// shards advanced in conservative lockstep windows, metrics merged.
ExperimentResult run_experiment_sharded(const pipeline::PipelineGraph& graph,
                                        const trace::DemandCurve& curve,
                                        const ExperimentConfig& cfg,
                                        const serving::ProfileTable& profiles,
                                        std::size_t shards,
                                        obs::Registry* registry) {
  // Partition of the *same* arrival sequence the sequential reference uses
  // (round-robin, or share-weighted with sim_weighted_split), so the total
  // arrival count matches the sequential run exactly.
  const int cluster = cfg.system_cfg.allocator.cluster_size;
  const std::vector<int> share = shard_shares(cluster, shards);

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = cfg.sim_window_s;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);

  ShardArrivalFeeder feeder;
  feeder.psim = &psim;
  feeder.share = share;
  feeder.window_s = cfg.sim_window_s;
  feeder.init(curve, cfg, registry);

  // The global-id fault plan splits along the same contiguous worker-share
  // ranges as the cluster itself; each shard arms only its own slice
  // (cluster-wide network events are broadcast to every shard).
  std::vector<fault::FaultPlan> shard_faults;
  if (!cfg.fault_plan.empty()) {
    shard_faults = fault::split_by_shares(cfg.fault_plan, share);
  }

  // Each shard gets a proportional slice of the cluster (remainder to the
  // first shards) and its own strategy + serving system + RNG streams
  // (decorrelated seeds: shards model disjoint replica groups). Fallback
  // rung strategies are per shard too (sized for its slice) and must
  // outlive the systems holding the pointers.
  std::vector<FallbackRungs> rungs(shards);
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies;
  std::vector<std::unique_ptr<serving::ServingSystem>> systems;
  for (std::size_t s = 0; s < shards; ++s) {
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.allocator.cluster_size = share[s];
    scfg.seed = cfg.system_cfg.seed + 1000003 * (s + 1);
    scfg.registry = registry;
    scfg.trace = cfg.obs_trace;
    if (!shard_faults.empty()) scfg.fault_plan = shard_faults[s];
    scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;
    scfg.fallback = cfg.fallback;
    rungs[s].fill(scfg.fallback, scfg.allocator, &graph, profiles);
    strategies.push_back(
        make_strategy(cfg.system, scfg.allocator, &graph, profiles));
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles, strategies.back().get(), scfg));
  }
  // start() performs the initial allocation (solver work): sequential, so
  // strategy construction stays off the worker threads.
  for (auto& system : systems) system->start();

  feeder.systems = &systems;
  feeder.arm();
  if (cfg.sim_reweight) {
    psim.set_barrier_callback(
        [&feeder](sim::Time now) { feeder.on_barrier(now); });
  }

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  serving::Metrics merged(cfg.system_cfg.metrics_window_s);
  double solve_s = 0.0;
  int allocations = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    systems[s]->finish(t_end);
    merged.merge(systems[s]->metrics());
    solve_s += systems[s]->total_solve_time_s();
    allocations += systems[s]->allocations_performed();
  }
  return result_from_metrics(strategies.front()->name(), merged, solve_s,
                             allocations);
}

/// Coordinated parallel mode: ONE strategy, solving once per control epoch
/// at a window barrier from globally merged shard observations (summed
/// demand, summed per-task arrival rates, averaged multiplicative factors).
/// The arrival stream is round-robined, so every shard serves the same 1/K
/// demand slice — the representative-slice plan (demand/K over one shard's
/// workers) is installed on every shard. An integral split of one
/// full-cluster plan was measured strictly worse here: equal-demand slices
/// need equal capacity, and dealing a full-cluster plan's replicas across
/// shards necessarily starves one of them (e.g. 3 detection replicas over 2
/// shards), which turns into forward-time drops on the short side.
ExperimentResult run_experiment_coordinated(
    const pipeline::PipelineGraph& graph, const trace::DemandCurve& curve,
    const ExperimentConfig& cfg, const serving::ProfileTable& profiles,
    std::size_t shards, obs::Registry* registry) {
  const int cluster = cfg.system_cfg.allocator.cluster_size;
  const std::vector<int> share = shard_shares(cluster, shards);

  sim::ParallelSimulation::Config pcfg;
  pcfg.shards = shards;
  pcfg.window_s = cfg.sim_window_s;
  pcfg.threads = cfg.sim_threads;
  sim::ParallelSimulation psim(pcfg);

  ShardArrivalFeeder feeder;
  feeder.psim = &psim;
  feeder.share = share;
  feeder.window_s = cfg.sim_window_s;
  feeder.init(curve, cfg, registry);

  // Fault mode: shard systems arm their slice of the plan and run detection
  // locally (they are external systems, so they never replan on their own);
  // the coordinator observes fault_replan_pending() at barriers and replans
  // over the survivors. Plans must then be per *shard*, not per distinct
  // share: two shards with equal shares can lose different workers.
  const bool fault_mode = !cfg.fault_plan.empty() || cfg.detector.enabled;
  std::vector<fault::FaultPlan> shard_faults;
  if (!cfg.fault_plan.empty()) {
    shard_faults = fault::split_by_shares(cfg.fault_plan, share);
  }

  // One strategy per *distinct worker share* — at most two exist (floor and
  // ceil of cluster / K), so a control epoch costs one or two solves for the
  // whole cluster: still K× fewer than plain sharded mode, where every shard
  // runs its own allocator. Round-robin split: every shard serves the same
  // 1/K demand slice, so the representative floor-share plan is installed
  // everywhere (a bigger shard's extra worker idles — the skew gap).
  // Weighted split: a shard's arrival slice is proportional to its share,
  // so each distinct share gets a plan sized for exactly the demand it
  // receives (share / cluster of the total). Shard systems carry no
  // strategy of their own.
  std::vector<int> plan_shares;    // distinct shares, one plan each
  std::vector<double> plan_fracs;  // demand fraction that share serves
  if (fault_mode) {
    // One plan per shard: each tracks its own survivor set. The demand
    // fraction follows the arrival split (share-weighted or 1/K).
    for (std::size_t s = 0; s < shards; ++s) {
      plan_shares.push_back(share[s]);
      plan_fracs.push_back(
          cfg.sim_weighted_split || cfg.sim_reweight
              ? static_cast<double>(share[s]) / static_cast<double>(cluster)
              : 1.0 / static_cast<double>(shards));
    }
  } else if (cfg.sim_weighted_split) {
    for (int s : share) {
      if (std::find(plan_shares.begin(), plan_shares.end(), s) ==
          plan_shares.end()) {
        plan_shares.push_back(s);
        plan_fracs.push_back(static_cast<double>(s) /
                             static_cast<double>(cluster));
      }
    }
  } else {
    plan_shares.push_back(cluster / static_cast<int>(shards));
    plan_fracs.push_back(1.0 / static_cast<double>(shards));
  }
  // The coordinator owns the fallback chain here (one per planned share):
  // shard systems carry no strategy, so chaining happens around the
  // barrier-time plan() calls below rather than inside the systems.
  std::vector<FallbackRungs> rungs(plan_shares.size());
  std::vector<std::unique_ptr<serving::AllocationStrategy>> strategies;
  std::vector<std::unique_ptr<serving::PlanFallbackChain>> chains;
  for (std::size_t pi = 0; pi < plan_shares.size(); ++pi) {
    serving::AllocatorConfig alloc = cfg.system_cfg.allocator;
    alloc.cluster_size = plan_shares[pi];
    strategies.push_back(make_strategy(cfg.system, alloc, &graph, profiles));
    if (cfg.fallback.enabled) {
      serving::FallbackConfig fb = cfg.fallback;
      rungs[pi].fill(fb, alloc, &graph, profiles);
      chains.push_back(std::make_unique<serving::PlanFallbackChain>(
          strategies.back().get(), fb, &graph, plan_shares[pi]));
    }
  }
  obs::Counter c_plan_fallbacks, c_plan_rejects, c_plan_retained;
  if (cfg.fallback.enabled) {
    c_plan_fallbacks = registry->counter("exp.coord.plan_fallbacks");
    c_plan_rejects = registry->counter("exp.coord.plan_rejects");
    c_plan_retained = registry->counter("exp.coord.plan_retained");
  }
  // Shard -> plan index (0 everywhere in round-robin mode).
  std::vector<std::size_t> shard_plan(shards, 0);
  if (fault_mode) {
    for (std::size_t s = 0; s < shards; ++s) shard_plan[s] = s;
  } else if (cfg.sim_weighted_split) {
    for (std::size_t s = 0; s < shards; ++s) {
      shard_plan[s] = static_cast<std::size_t>(
          std::find(plan_shares.begin(), plan_shares.end(), share[s]) -
          plan_shares.begin());
    }
  }

  std::vector<std::unique_ptr<serving::ServingSystem>> systems;
  for (std::size_t s = 0; s < shards; ++s) {
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.allocator.cluster_size = share[s];
    scfg.seed = cfg.system_cfg.seed + 1000003 * (s + 1);
    scfg.registry = registry;
    scfg.trace = cfg.obs_trace;
    if (!shard_faults.empty()) scfg.fault_plan = shard_faults[s];
    scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;  // data-plane tiering runs inside each shard
    systems.push_back(std::make_unique<serving::ServingSystem>(
        &psim.shard(s), &graph, profiles, /*strategy=*/nullptr, scfg));
  }
  for (auto& system : systems) system->start_external();

  // Coordinator state: replans every rm_period_s (at the first barrier at
  // or past the deadline) or when the merged demand estimate surges or
  // collapses — the same triggers the in-process Resource Manager uses.
  double solve_s = 0.0;
  int allocations = 0;
  double last_demand = 0.0;
  bool have_plan = false;
  double next_replan = 0.0;
  std::vector<serving::AllocationPlan> plans(plan_shares.size());

  auto replan = [&](double now, bool force) {
    double demand = 0.0;
    for (auto& system : systems) demand += system->demand_estimate_now();
    if (have_plan && !force) {
      double min_served = 1.0;
      for (const auto& p : plans) {
        min_served = std::min(min_served, p.served_fraction);
      }
      const double rel = std::abs(demand - last_demand) /
                         std::max(last_demand, 10.0);
      if (rel < cfg.system_cfg.realloc_threshold && min_served >= 1.0) {
        return;
      }
    }
    const double inv_shards = 1.0 / static_cast<double>(shards);
    // Merge multiplicative-factor estimates: shards observe the same
    // underlying pipeline, so the mean is the natural pooled estimate.
    pipeline::MultFactorTable mult = systems[0]->mult_estimates();
    for (std::size_t s = 1; s < shards; ++s) {
      const auto& m = systems[s]->mult_estimates();
      for (std::size_t t = 0; t < mult.size(); ++t) {
        for (std::size_t k = 0; k < mult[t].size(); ++k) {
          mult[t][k] += m[t][k];
        }
      }
    }
    for (auto& row : mult) {
      for (auto& v : row) v *= inv_shards;
    }
    // Drain each shard's per-task arrival-rate window exactly once per
    // epoch (draining resets it), then build every share's request from the
    // same observations.
    std::vector<std::vector<double>> sys_rates;
    sys_rates.reserve(shards);
    for (auto& system : systems) {
      sys_rates.push_back(system->drain_task_arrivals_now());
    }
    // Demand fractions: static by default; under reweighted fault mode the
    // arrival split follows the survivors, so the planned slices must too.
    std::vector<double> fracs = plan_fracs;
    if (fault_mode && cfg.sim_reweight) {
      double surviving_total = 0.0;
      std::vector<double> surviving(shards, 0.0);
      for (std::size_t s = 0; s < shards; ++s) {
        surviving[s] = static_cast<double>(
            std::max(0, share[s] - systems[s]->crashed_workers()));
        surviving_total += surviving[s];
      }
      if (surviving_total > 0.0) {
        for (std::size_t s = 0; s < shards; ++s) {
          fracs[s] = surviving[s] / surviving_total;
        }
      }
    }
    for (std::size_t pi = 0; pi < plan_shares.size(); ++pi) {
      serving::PlanRequest req;
      req.demand_qps = demand * fracs[pi];
      req.mult = mult;
      req.task_arrivals_qps.assign(
          static_cast<std::size_t>(graph.num_tasks()), 0.0);
      for (const auto& rates : sys_rates) {
        for (std::size_t t = 0; t < rates.size(); ++t) {
          req.task_arrivals_qps[t] += rates[t] * fracs[pi];
        }
      }
      req.sim_time_s = now;
      req.epoch = allocations;
      req.previous_plan = have_plan ? &plans[pi] : nullptr;
      if (fault_mode) {
        // Plan over the survivors the controller has *detected* (plan index
        // == shard index in fault mode); the allocator clamps internally so
        // it never plans below one worker per task.
        req.available_workers =
            share[pi] - systems[pi]->detector_dead_workers();
      }
      serving::PlanResult result;
      if (!chains.empty()) {
        serving::FallbackOutcome fo = chains[pi]->plan(req);
        result = std::move(fo.result);
        c_plan_fallbacks.add(static_cast<std::uint64_t>(fo.fallbacks));
        c_plan_rejects.add(static_cast<std::uint64_t>(fo.rejects));
        if (fo.retained_previous) c_plan_retained.add(1);
      } else {
        result = strategies[pi]->plan(req);
      }
      plans[pi] = std::move(result.plan);
      solve_s += plans[pi].solve_time_s;
      ++allocations;
    }
    have_plan = true;
    last_demand = demand;
    for (std::size_t s = 0; s < shards; ++s) {
      serving::AllocationPlan sub = plans[shard_plan[s]];
      sub.solve_time_s = 0.0;  // the coordinator accounts the solve once
      systems[s]->install_plan(std::move(sub));
    }
  };

  replan(0.0, /*force=*/true);  // initial allocation before arrivals
  next_replan = cfg.system_cfg.rm_period_s;

  psim.set_barrier_callback([&](sim::Time now) {
    feeder.on_barrier(now);
    // A shard whose detected-dead set changed since its plan was installed
    // forces an immediate survivor replan (the event-driven trigger of
    // ROADMAP item 4); otherwise the usual period/demand-surge triggers.
    bool fault_due = false;
    if (fault_mode) {
      for (auto& system : systems) {
        fault_due = fault_due || system->fault_replan_pending();
      }
    }
    bool due = fault_due || now + 1e-9 >= next_replan;
    if (!due && have_plan) {
      double est = 0.0;
      for (auto& system : systems) est += system->demand_estimate_now();
      due = est > last_demand * 1.25 + 1.0 || est < last_demand * 0.5 - 1.0;
    }
    if (!due) return;
    replan(now, /*force=*/fault_due);
    while (next_replan <= now + 1e-9) next_replan += cfg.system_cfg.rm_period_s;
  });

  feeder.systems = &systems;
  feeder.arm();

  const double t_end = run_horizon(curve, cfg);
  psim.run_until(t_end);

  serving::Metrics merged(cfg.system_cfg.metrics_window_s);
  for (std::size_t s = 0; s < shards; ++s) {
    systems[s]->finish(t_end);
    merged.merge(systems[s]->metrics());
  }
  return result_from_metrics(strategies.front()->name(), merged, solve_s,
                             allocations);
}

}  // namespace

ExperimentResult run_experiment(const pipeline::PipelineGraph& graph,
                                const trace::DemandCurve& curve,
                                const ExperimentConfig& cfg) {
  profile::ModelProfiler profiler(profile::default_batch_set(),
                                  /*repetitions=*/5, cfg.profiler_noise_frac,
                                  cfg.profiler_seed);
  serving::ProfileTable profiles =
      serving::build_profile_table(graph, profiler);

  // Every shard's allocator needs at least one worker per task, so the
  // shard count is bounded by cluster_size / num_tasks.
  const std::size_t max_shards = static_cast<std::size_t>(
      std::max(1, cfg.system_cfg.allocator.cluster_size /
                      std::max(1, graph.num_tasks())));
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, cfg.sim_shards), max_shards);

  // One registry per run: concurrent run_experiment calls (e.g. the fig5
  // bench runs three systems on a thread pool) must not mix series. All of
  // a run's shard systems share it, so stage histograms and counters merge
  // cluster-wide.
  obs::Registry registry;
  ExperimentResult out;
  if (shards > 1) {
    out = cfg.sim_coordinated
              ? run_experiment_coordinated(graph, curve, cfg, profiles,
                                           shards, &registry)
              : run_experiment_sharded(graph, curve, cfg, profiles, shards,
                                       &registry);
  } else {
    auto strategy = make_strategy(cfg.system, cfg.system_cfg.allocator,
                                  &graph, profiles);

    sim::Simulation sim;
    serving::SystemConfig scfg = cfg.system_cfg;
    scfg.registry = &registry;
    scfg.trace = cfg.obs_trace;
    // Sequential mode serves the whole cluster, so the global-id fault plan
    // applies verbatim (no split needed).
    if (!cfg.fault_plan.empty()) scfg.fault_plan = cfg.fault_plan;
    if (cfg.detector.enabled) scfg.detector = cfg.detector;
    scfg.tiers = cfg.tiers;
    scfg.fallback = cfg.fallback;
    FallbackRungs rungs;  // outlives the system holding the rung pointers
    rungs.fill(scfg.fallback, scfg.allocator, &graph, profiles);
    serving::ServingSystem system(&sim, &graph, profiles, strategy.get(),
                                  scfg);
    system.start();

    // Stream arrivals: each arrival event submits and schedules the next
    // one, keeping the event queue O(in-flight) instead of O(trace). Tiers
    // are sampled inline in arrival order (the sampler draws nothing
    // without a mix, so tier-less runs are bit-identical); a configured
    // replay is fed by index instead.
    trace::ArrivalStream stream(curve, cfg.arrivals);
    trace::TierSampler sampler(cfg.tier_mix, cfg.tier_seed);
    std::size_t replay_idx = 0;
    std::function<void()> pump;
    if (!cfg.replay.empty()) {
      pump = [&]() {
        system.submit(cfg.replay.rows[replay_idx].tier);
        if (++replay_idx < cfg.replay.rows.size()) {
          sim.schedule_at(cfg.replay.rows[replay_idx].t_s, pump);
        }
      };
      sim.schedule_at(cfg.replay.rows[0].t_s, pump);
    } else {
      pump = [&]() {
        system.submit(sampler.next());
        const double next = stream.next();
        if (next >= 0.0) sim.schedule_at(next, pump);
      };
      const double first = stream.next();
      if (first >= 0.0) sim.schedule_at(first, pump);
    }

    const double t_end = run_horizon(curve, cfg);
    sim.run_until(t_end);
    system.finish(t_end);

    out = result_from_metrics(strategy->name(), system.metrics(),
                              system.total_solve_time_s(),
                              system.allocations_performed());
  }
  out.obs = registry.snapshot();
  if (!cfg.obs_csv_path.empty()) out.obs.write_csv(cfg.obs_csv_path);
  return out;
}

PlanProbe probe_plan(serving::AllocationStrategy& strategy,
                     const pipeline::PipelineGraph& graph, double demand_qps) {
  // Pure planner probe: a fresh single-epoch request with no previous plan,
  // so probes are independent of each other and of any prior probes on the
  // same strategy (the old API threaded hidden continuity state through
  // them).
  serving::PlanRequest req;
  req.demand_qps = demand_qps;
  req.mult = pipeline::default_mult_factors(graph);
  const auto plan = strategy.plan(req).plan;
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
    serving::PlanRequest req;
    req.demand_qps = qps;
    req.mult = mult;
    return strategy.plan(req).plan.served_fraction >= 1.0 - 1e-9;
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
