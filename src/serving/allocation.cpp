#include "serving/allocation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/check.hpp"
#include "solver/simplex.hpp"

namespace loki::serving {

namespace {

/// The planner's branch-and-bound options; each step's solve also picks its
/// node order (MilpAllocator::solve_step).
constexpr solver::MilpOptions kPlannerMilp = [] {
  solver::MilpOptions o;
  // The accuracy objective lives in [0, 1]; differences below kPlanGapTol
  // (0.05% system accuracy) are immaterial, and the coarser gap prunes the
  // search hard enough to keep a full 3-step allocation within the paper's
  // ~500 ms Gurobi budget (§6.5).
  o.gap_tol = kPlanGapTol;
  // The greedy warm start is already near-optimal; the node budget buys
  // improvement attempts, not an optimality proof (the LP bound of this
  // formulation stays fractionally above the best integer point).
  o.max_nodes = 120;
  // Allocation LPs have ~150 rows and solve in a few hundred pivots; a
  // degenerate node crawling through Bland's rule must not eat the whole
  // budget (a capped node is dropped conservatively).
  o.lp.max_iterations = 3000;
  return o;
}();

/// A path through the augmented graph at config granularity: position i on
/// the root->sink task path uses feasible-config index cfg_idx[i].
struct ConfigPath {
  std::vector<int> tasks;
  std::vector<int> cfg_idx;
};

/// Odometer enumeration of config paths along `tasks`; empty when some task
/// on the path has no feasible config.
std::vector<ConfigPath> enumerate_config_paths(const std::vector<int>& tasks,
                                               const ConfigTable& configs) {
  std::vector<ConfigPath> out;
  for (int t : tasks) {
    if (configs[static_cast<std::size_t>(t)].empty()) return out;
  }
  std::vector<int> choice(tasks.size(), 0);
  for (;;) {
    out.push_back(ConfigPath{tasks, choice});
    int pos = static_cast<int>(tasks.size()) - 1;
    while (pos >= 0) {
      const int limit = static_cast<int>(
          configs[static_cast<std::size_t>(tasks[static_cast<std::size_t>(pos)])]
              .size());
      if (++choice[static_cast<std::size_t>(pos)] < limit) break;
      choice[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return out;
}

double config_path_accuracy(const pipeline::PipelineGraph& g,
                            const ConfigTable& configs, const ConfigPath& p) {
  double acc = 1.0;
  for (std::size_t i = 0; i < p.tasks.size(); ++i) {
    const auto& vc = configs[static_cast<std::size_t>(p.tasks[i])]
                            [static_cast<std::size_t>(p.cfg_idx[i])];
    acc *= g.task(p.tasks[i]).catalog.at(vc.variant).accuracy;
  }
  return acc;
}

/// m(p, pos): requests reaching position pos per request entering the root.
double config_path_multiplier(const pipeline::PipelineGraph& g,
                              const ConfigTable& configs,
                              const pipeline::MultFactorTable& mult,
                              const ConfigPath& p, std::size_t pos) {
  double m = 1.0;
  for (std::size_t i = 0; i < pos; ++i) {
    const int task = p.tasks[i];
    const auto& vc = configs[static_cast<std::size_t>(task)]
                            [static_cast<std::size_t>(p.cfg_idx[i])];
    m *= mult.at(static_cast<std::size_t>(task))
             .at(static_cast<std::size_t>(vc.variant)) *
         g.branch_ratio(task, p.tasks[i + 1]);
  }
  return m;
}

bool config_path_extends(const ConfigPath& p, const ConfigPath& prefix) {
  if (prefix.tasks.size() > p.tasks.size()) return false;
  for (std::size_t i = 0; i < prefix.tasks.size(); ++i) {
    if (p.tasks[i] != prefix.tasks[i] || p.cfg_idx[i] != prefix.cfg_idx[i]) {
      return false;
    }
  }
  return true;
}

/// Load arriving at each task for a pure per-task config choice.
std::vector<double> loads_for_choice(const pipeline::PipelineGraph& g,
                                     const ConfigTable& configs,
                                     const pipeline::MultFactorTable& mult,
                                     const std::vector<int>& cfg_idx,
                                     double demand) {
  std::vector<double> load(static_cast<std::size_t>(g.num_tasks()), 0.0);
  for (int t : g.topological_order()) {
    if (g.parent(t) == -1) load[static_cast<std::size_t>(t)] = demand;
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(
                                cfg_idx[static_cast<std::size_t>(t)])];
    const double r = mult.at(static_cast<std::size_t>(t))
                         .at(static_cast<std::size_t>(vc.variant));
    for (int c : g.children(t)) {
      load[static_cast<std::size_t>(c)] =
          load[static_cast<std::size_t>(t)] * r * g.branch_ratio(t, c);
    }
  }
  return load;
}

double choice_accuracy(const pipeline::PipelineGraph& g,
                       const ConfigTable& configs,
                       const std::vector<int>& cfg_idx) {
  const auto sinks = g.sinks();
  double sum = 0.0;
  for (int s : sinks) {
    double acc = 1.0;
    for (int t : g.task_path_to(s)) {
      const auto& vc = configs[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(
                                  cfg_idx[static_cast<std::size_t>(t)])];
      acc *= g.task(t).catalog.at(vc.variant).accuracy;
    }
    sum += acc;
  }
  return sum / static_cast<double>(sinks.size());
}

std::vector<int> replicas_for_choice(const pipeline::PipelineGraph& g,
                                     const ConfigTable& configs,
                                     const std::vector<int>& cfg_idx,
                                     const std::vector<double>& load) {
  std::vector<int> reps(static_cast<std::size_t>(g.num_tasks()), 1);
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(
                                cfg_idx[static_cast<std::size_t>(t)])];
    reps[static_cast<std::size_t>(t)] = std::max(
        1, static_cast<int>(std::ceil(load[static_cast<std::size_t>(t)] /
                                          vc.throughput_qps -
                                      1e-9)));
  }
  return reps;
}

/// Configs of one task ordered by accuracy descending (tie: throughput).
std::vector<int> accuracy_order(const pipeline::PipelineGraph& g, int task,
                                const std::vector<VariantConfig>& task_configs) {
  std::vector<int> order(task_configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& va = task_configs[static_cast<std::size_t>(a)];
    const auto& vb = task_configs[static_cast<std::size_t>(b)];
    const double aa = g.task(task).catalog.at(va.variant).accuracy;
    const double ab = g.task(task).catalog.at(vb.variant).accuracy;
    if (aa != ab) return aa > ab;
    return va.throughput_qps > vb.throughput_qps;
  });
  return order;
}

struct GreedyChoice {
  bool feasible = false;
  std::vector<int> cfg_idx;   // per task, index into configs[task]
  std::vector<int> replicas;  // per task
  int servers = 0;
  double accuracy = 1.0;      // end-to-end mean over sinks
};

/// Greedy single-config-per-task assignment for one split: start at maximum
/// accuracy; while the cluster is exceeded, degrade the task with the best
/// server-savings per accuracy loss.
GreedyChoice greedy_choice(const pipeline::PipelineGraph& g,
                           const ConfigTable& configs,
                           const pipeline::MultFactorTable& mult,
                           double demand, int cluster_size,
                           bool allow_degrade) {
  GreedyChoice out;
  const int nt = g.num_tasks();
  std::vector<std::vector<int>> order(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    if (configs[static_cast<std::size_t>(t)].empty()) return out;
    order[static_cast<std::size_t>(t)] =
        accuracy_order(g, t, configs[static_cast<std::size_t>(t)]);
  }
  std::vector<int> rank(static_cast<std::size_t>(nt), 0);
  auto cfg_of = [&](const std::vector<int>& rk) {
    std::vector<int> cfg(static_cast<std::size_t>(nt));
    for (int t = 0; t < nt; ++t) {
      cfg[static_cast<std::size_t>(t)] =
          order[static_cast<std::size_t>(t)]
               [static_cast<std::size_t>(rk[static_cast<std::size_t>(t)])];
    }
    return cfg;
  };
  auto servers_of = [&](const std::vector<int>& rk,
                        std::vector<int>* reps_out) {
    const auto cfg = cfg_of(rk);
    const auto load = loads_for_choice(g, configs, mult, cfg, demand);
    const auto reps = replicas_for_choice(g, configs, cfg, load);
    int total = 0;
    for (int r : reps) total += r;
    if (reps_out) *reps_out = reps;
    return total;
  };

  int servers = servers_of(rank, nullptr);
  while (servers > cluster_size) {
    if (!allow_degrade) return out;
    int best_task = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    int best_servers = servers;
    const double cur_acc = choice_accuracy(g, configs, cfg_of(rank));
    for (int t = 0; t < nt; ++t) {
      if (rank[static_cast<std::size_t>(t)] + 1 >=
          static_cast<int>(order[static_cast<std::size_t>(t)].size())) {
        continue;
      }
      auto trial = rank;
      ++trial[static_cast<std::size_t>(t)];
      const int trial_servers = servers_of(trial, nullptr);
      const double trial_acc = choice_accuracy(g, configs, cfg_of(trial));
      const double d_servers = static_cast<double>(servers - trial_servers);
      const double d_acc = std::max(1e-12, cur_acc - trial_acc);
      const double score = d_servers / d_acc;
      if (score > best_score) {
        best_score = score;
        best_task = t;
        best_servers = trial_servers;
      }
    }
    if (best_task < 0) return out;  // fully degraded and still over budget
    ++rank[static_cast<std::size_t>(best_task)];
    servers = best_servers;
  }
  out.feasible = true;
  out.cfg_idx = cfg_of(rank);
  out.servers = servers_of(rank, &out.replicas);
  out.accuracy = choice_accuracy(g, configs, out.cfg_idx);
  return out;
}

void compositions_rec(int total, int parts, std::vector<int>& cur,
                      std::vector<std::vector<int>>& out) {
  if (parts == 1) {
    cur.push_back(total);
    out.push_back(cur);
    cur.pop_back();
    return;
  }
  for (int first = 1; first <= total - (parts - 1); ++first) {
    cur.push_back(first);
    compositions_rec(total - first, parts - 1, cur, out);
    cur.pop_back();
  }
}

/// Builds the plan skeleton for a pure greedy choice.
AllocationPlan plan_from_choice(const pipeline::PipelineGraph& g,
                                const ConfigTable& configs,
                                const GreedyChoice& gc, double demand_qps) {
  AllocationPlan plan;
  plan.demand_qps = demand_qps;
  plan.expected_accuracy = gc.accuracy;
  plan.servers_used = gc.servers;
  plan.feasible = true;
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(
                                gc.cfg_idx[static_cast<std::size_t>(t)])];
    plan.instances.push_back(
        {t, vc.variant, vc.batch, gc.replicas[static_cast<std::size_t>(t)]});
    plan.latency_budget_s[{t, vc.variant}] = 2.0 * vc.latency_s;
  }
  for (int s : g.sinks()) {
    pipeline::VariantPath vp;
    vp.sink = s;
    vp.tasks = g.task_path_to(s);
    for (int t : vp.tasks) {
      vp.variants.push_back(configs[static_cast<std::size_t>(t)]
                                   [static_cast<std::size_t>(
                                       gc.cfg_idx[static_cast<std::size_t>(t)])]
                                       .variant);
    }
    plan.flows.push_back({std::move(vp), 1.0});
  }
  return plan;
}

}  // namespace

ProfileTable build_profile_table(const pipeline::PipelineGraph& g,
                                 const profile::ModelProfiler& profiler) {
  ProfileTable table(static_cast<std::size_t>(g.num_tasks()));
  for (int t = 0; t < g.num_tasks(); ++t) {
    table[static_cast<std::size_t>(t)] =
        profiler.profile_catalog(g.task(t).catalog);
  }
  return table;
}

std::vector<std::vector<double>> budget_splits(const AllocatorConfig& cfg,
                                               const pipeline::PipelineGraph& g) {
  const int levels = g.max_depth() + 1;
  std::vector<std::vector<double>> out;
  if (levels == 1) {
    out.push_back({1.0});
    return out;
  }
  const int grid = std::max(cfg.budget_grid, levels);
  std::vector<std::vector<int>> comps;
  std::vector<int> cur;
  compositions_rec(grid, levels, cur, comps);
  out.reserve(comps.size());
  for (const auto& comp : comps) {
    std::vector<double> w;
    w.reserve(comp.size());
    for (int part : comp) {
      w.push_back(static_cast<double>(part) / static_cast<double>(grid));
    }
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<double> task_budgets_for_split(
    const AllocatorConfig& cfg, const pipeline::PipelineGraph& g,
    const std::vector<double>& level_weights) {
  std::vector<double> budgets(static_cast<std::size_t>(g.num_tasks()),
                              std::numeric_limits<double>::infinity());
  for (int s : g.sinks()) {
    const auto path = g.task_path_to(s);
    const int hops = static_cast<int>(path.size()) + 1;  // fe -> ... -> fe
    const double total =
        cfg.slo_s * kQueueFactor - kCommLatencyS * static_cast<double>(hops);
    LOKI_CHECK_MSG(total > 0.0, "SLO too small for communication latency");
    double denom = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) denom += level_weights.at(i);
    for (std::size_t i = 0; i < path.size(); ++i) {
      auto& b = budgets[static_cast<std::size_t>(path[i])];
      b = std::min(b, total * level_weights.at(i) / denom);
    }
  }
  return budgets;
}

/// One task's slice of feasible_configs.
static std::vector<VariantConfig> task_feasible_configs(
    const pipeline::PipelineGraph& g, const ProfileTable& profiles, int task,
    double budget, double utilization_target) {
  std::vector<VariantConfig> out;
  for (int k = 0; k < g.task(task).catalog.size(); ++k) {
    const auto& prof =
        profiles[static_cast<std::size_t>(task)][static_cast<std::size_t>(k)];
    const int batch = prof.best_batch_within(budget);
    if (batch < 0) continue;
    VariantConfig vc;
    vc.variant = k;
    vc.batch = batch;
    vc.throughput_qps = prof.throughput_for(batch) * utilization_target;
    vc.latency_s = prof.latency_for(batch);
    out.push_back(vc);
  }
  return out;
}

ConfigTable feasible_configs(const pipeline::PipelineGraph& g,
                             const ProfileTable& profiles,
                             const std::vector<double>& task_budgets,
                             double utilization_target) {
  LOKI_CHECK(utilization_target > 0.0 && utilization_target <= 1.0);
  ConfigTable configs(static_cast<std::size_t>(g.num_tasks()));
  for (int t = 0; t < g.num_tasks(); ++t) {
    configs[static_cast<std::size_t>(t)] = task_feasible_configs(
        g, profiles, t, task_budgets[static_cast<std::size_t>(t)],
        utilization_target);
  }
  return configs;
}

// ---------------------------------------------------------------------------
// GreedyAllocator
// ---------------------------------------------------------------------------

GreedyAllocator::GreedyAllocator(AllocatorConfig cfg,
                                 const pipeline::PipelineGraph* graph,
                                 ProfileTable profiles)
    : cfg_(cfg), graph_(graph), profiles_(std::move(profiles)) {
  LOKI_CHECK(graph_ != nullptr);
  LOKI_CHECK(cfg_.cluster_size >= graph_->num_tasks());
}

const std::vector<GreedyAllocator::SplitConfigs>&
GreedyAllocator::split_configs() {
  if (!split_configs_ready_) {
    splits_ = budget_splits(cfg_, *graph_);
    split_configs_.reserve(splits_.size());
    for (const auto& split : splits_) {
      SplitConfigs sc;
      sc.budgets = task_budgets_for_split(cfg_, *graph_, split);
      sc.configs = feasible_configs(*graph_, profiles_, sc.budgets,
                                    kUtilizationTarget);
      split_configs_.push_back(std::move(sc));
    }
    split_configs_ready_ = true;
  }
  return split_configs_;
}

PlanResult GreedyAllocator::plan(const PlanRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // Failure re-plans shrink placement capacity to the surviving workers.
  ScopedClusterCapacity capacity(&cfg_.cluster_size, request,
                                 graph_->num_tasks());
  const auto& g = *graph_;
  // Request shape invariant: observed arrival rates are either absent
  // (planner probes) or one entry per task — never a partial vector.
  LOKI_CHECK_MSG(request.task_arrivals_qps.empty() ||
                     static_cast<int>(request.task_arrivals_qps.size()) ==
                         g.num_tasks(),
                 "task_arrivals_qps has " << request.task_arrivals_qps.size()
                                          << " entries for " << g.num_tasks()
                                          << " tasks");
  const double demand_qps = request.demand_qps;
  const auto& mult = request.mult;
  const auto& per_split = split_configs();

  PlanResult out;
  out.epoch = request.epoch;
  StepSolve step;
  step.step = "greedy";
  step.splits_attempted = static_cast<int>(per_split.size());
  step.selected = true;

  auto finish = [&](AllocationPlan plan) {
    plan.solve_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    step.wall_s = plan.solve_time_s;
    out.steps.push_back(step);
    out.plan = std::move(plan);
    return std::move(out);
  };

  std::optional<AllocationPlan> best;
  for (const auto& sc : per_split) {
    const auto& configs = sc.configs;
    const auto gc = greedy_choice(g, configs, mult, demand_qps,
                                  cfg_.cluster_size, /*allow_degrade=*/true);
    if (!gc.feasible) continue;
    ++step.splits_feasible;
    AllocationPlan plan = plan_from_choice(g, configs, gc, demand_qps);
    plan.mode = gc.accuracy >= 1.0 - 1e-12 ? ScalingMode::kHardware
                                           : ScalingMode::kAccuracy;
    if (!best || plan.expected_accuracy > best->expected_accuracy ||
        (plan.expected_accuracy == best->expected_accuracy &&
         plan.servers_used < best->servers_used)) {
      best = std::move(plan);
    }
  }
  if (best) return finish(std::move(*best));

  // Overload fallback: the cheapest feasible configuration; serve what fits
  // and shed the rest at the frontend.
  for (const auto& sc : per_split) {
    const auto& configs = sc.configs;
    bool ok = true;
    std::vector<int> cheap(static_cast<std::size_t>(g.num_tasks()), 0);
    for (int t = 0; t < g.num_tasks() && ok; ++t) {
      const auto& cs = configs[static_cast<std::size_t>(t)];
      if (cs.empty()) {
        ok = false;
        break;
      }
      int bestj = 0;
      for (std::size_t j = 1; j < cs.size(); ++j) {
        if (cs[j].throughput_qps >
            cs[static_cast<std::size_t>(bestj)].throughput_qps) {
          bestj = static_cast<int>(j);
        }
      }
      cheap[static_cast<std::size_t>(t)] = bestj;
    }
    if (!ok) continue;

    const auto unit_load = loads_for_choice(g, configs, mult, cheap, 1.0);
    double unit_servers = 0.0;
    for (int t = 0; t < g.num_tasks(); ++t) {
      unit_servers += unit_load[static_cast<std::size_t>(t)] /
                      configs[static_cast<std::size_t>(t)]
                             [static_cast<std::size_t>(
                                 cheap[static_cast<std::size_t>(t)])]
                                 .throughput_qps;
    }
    const double capacity_qps = static_cast<double>(cfg_.cluster_size) /
                                std::max(unit_servers, 1e-12);
    GreedyChoice gc;
    gc.feasible = true;
    gc.cfg_idx = cheap;
    double served =
        std::min(1.0, capacity_qps / std::max(demand_qps, 1e-12));
    const auto load =
        loads_for_choice(g, configs, mult, cheap, demand_qps * served);
    gc.replicas = replicas_for_choice(g, configs, cheap, load);
    int total = 0;
    for (int r : gc.replicas) total += r;
    while (total > cfg_.cluster_size) {
      int argmax = 0;
      for (int t = 1; t < g.num_tasks(); ++t) {
        if (gc.replicas[static_cast<std::size_t>(t)] >
            gc.replicas[static_cast<std::size_t>(argmax)]) {
          argmax = t;
        }
      }
      LOKI_CHECK(gc.replicas[static_cast<std::size_t>(argmax)] > 1);
      --gc.replicas[static_cast<std::size_t>(argmax)];
      --total;
    }
    gc.servers = total;
    gc.accuracy = choice_accuracy(g, configs, cheap);
    // Clipping may have removed capacity: recompute the admitted fraction
    // against the final replica counts so no task is overloaded.
    const auto unit = loads_for_choice(g, configs, mult, cheap, 1.0);
    for (int t = 0; t < g.num_tasks(); ++t) {
      const auto& vc = configs[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(
                                  cheap[static_cast<std::size_t>(t)])];
      const double cap = gc.replicas[static_cast<std::size_t>(t)] *
                         vc.throughput_qps;
      const double need = unit[static_cast<std::size_t>(t)] * demand_qps;
      if (need > 1e-12) served = std::min(served, cap / need);
    }
    AllocationPlan plan = plan_from_choice(g, configs, gc, demand_qps);
    plan.mode = ScalingMode::kOverload;
    plan.served_fraction = served;
    ++step.splits_feasible;
    return finish(std::move(plan));
  }
  LOKI_CHECK_MSG(false, "SLO infeasible: no variant fits any budget split");
  return {};
}

// ---------------------------------------------------------------------------
// MilpAllocator
// ---------------------------------------------------------------------------

/// See the declaration in allocation.hpp for the ownership story. Split
/// caches depend only on construction inputs (cfg, graph, profiles) and are
/// immutable once built; the per-(split, step) NearState entries carry the
/// near tier's mutable solver state and are each touched by exactly one
/// thread of the split-parallel solve.
struct MilpAllocator::EpochContext {
  /// The near tier's state for one (budget split, allocation step): the
  /// step's last model and the session of its solve. Used only with
  /// AllocatorConfig::near_warm_start.
  struct NearState {
    bool has_model = false;
    solver::LpProblem model;
    solver::ResolveSession session;

    /// The tier to solve `lp` at — kNearIdentical when it differs from the
    /// last model only in coefficient values — after which `lp` is the
    /// last model.
    solver::WarmTier tier_for(const solver::LpProblem& lp) {
      const bool near = has_model && solver::near_identical(lp, model);
      model = lp;
      has_model = true;
      return near ? solver::WarmTier::kNearIdentical
                  : solver::WarmTier::kCold;
    }
  };
  struct SplitCache {
    std::vector<double> budgets;
    ConfigTable configs;     // all variants (accuracy + overload steps)
    ConfigTable configs_hw;  // most accurate variant only (hardware step)
    bool feasible = false;   // every task has >= 1 feasible config
    bool feasible_hw = false;
    std::vector<std::vector<ConfigPath>> sink_paths;
    std::vector<std::vector<ConfigPath>> sink_paths_hw;
    NearState near[3];  // [0] hardware, [1] accuracy, [2] overload stage A
  };
  std::vector<std::vector<double>> splits;
  std::vector<SplitCache> per_split;
};

MilpAllocator::MilpAllocator(AllocatorConfig cfg,
                             const pipeline::PipelineGraph* graph,
                             ProfileTable profiles)
    : cfg_(cfg), graph_(graph), profiles_(std::move(profiles)) {
  LOKI_CHECK(graph_ != nullptr);
  LOKI_CHECK_MSG(cfg_.cluster_size >= graph_->num_tasks(),
                 "cluster must fit at least one instance per task");
}

MilpAllocator::~MilpAllocator() = default;

namespace {

bool all_tasks_nonempty(const pipeline::PipelineGraph& g,
                        const ConfigTable& configs) {
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (configs[static_cast<std::size_t>(t)].empty()) return false;
  }
  return true;
}

std::vector<std::vector<ConfigPath>> build_sink_paths(
    const pipeline::PipelineGraph& g, const ConfigTable& configs) {
  std::vector<std::vector<ConfigPath>> paths;
  const auto sinks = g.sinks();
  paths.reserve(sinks.size());
  for (int s : sinks) {
    paths.push_back(enumerate_config_paths(g.task_path_to(s), configs));
    LOKI_CHECK(!paths.back().empty());
  }
  return paths;
}

/// The hardware-scaling view of one task's configs: only its most accurate
/// variant (Eq. 8-10).
std::vector<VariantConfig> hardware_view(const pipeline::PipelineGraph& g,
                                         int task,
                                         const std::vector<VariantConfig>& cs) {
  const int best_variant = g.task(task).catalog.most_accurate();
  std::vector<VariantConfig> out;
  for (const auto& vc : cs) {
    if (vc.variant == best_variant) out.push_back(vc);
  }
  return out;
}

}  // namespace

void MilpAllocator::ensure_epoch_context() {
  if (epoch_) return;
  const auto& g = *graph_;
  auto ctx = std::make_unique<EpochContext>();
  ctx->splits = budget_splits(cfg_, g);
  ctx->per_split.resize(ctx->splits.size());
  for (std::size_t i = 0; i < ctx->splits.size(); ++i) {
    auto& sc = ctx->per_split[i];
    sc.budgets = task_budgets_for_split(cfg_, g, ctx->splits[i]);
    sc.configs =
        feasible_configs(g, profiles_, sc.budgets, kUtilizationTarget);
    sc.configs_hw.resize(sc.configs.size());
    for (int t = 0; t < g.num_tasks(); ++t) {
      sc.configs_hw[static_cast<std::size_t>(t)] =
          hardware_view(g, t, sc.configs[static_cast<std::size_t>(t)]);
    }
    sc.feasible = all_tasks_nonempty(g, sc.configs);
    sc.feasible_hw = all_tasks_nonempty(g, sc.configs_hw);
    if (sc.feasible) sc.sink_paths = build_sink_paths(g, sc.configs);
    if (sc.feasible_hw) sc.sink_paths_hw = build_sink_paths(g, sc.configs_hw);
  }
  epoch_ = std::move(ctx);
}

MilpAllocator::MilpResult MilpAllocator::solve_step(
    std::size_t split_idx, double demand_qps,
    const pipeline::MultFactorTable& mult,
    const std::vector<std::vector<bool>>& prev_variants, bool hardware_only,
    bool served_fraction_mode, bool verdict) {
  using solver::Constraint;
  using solver::LpProblem;
  using solver::Relation;
  using solver::Sense;
  using solver::VarType;

  const auto& g = *graph_;
  MilpResult result;

  auto& split_cache = epoch_->per_split[split_idx];
  if (!(hardware_only ? split_cache.feasible_hw : split_cache.feasible)) {
    return result;
  }
  const ConfigTable& configs =
      hardware_only ? split_cache.configs_hw : split_cache.configs;
  const auto& sink_paths =
      hardware_only ? split_cache.sink_paths_hw : split_cache.sink_paths;
  const auto sinks = g.sinks();

  // --- Variables ---
  LpProblem lp(Sense::kMinimize);
  const double S = static_cast<double>(cfg_.cluster_size);

  std::vector<std::vector<int>> n_var(static_cast<std::size_t>(g.num_tasks()));
  for (int t = 0; t < g.num_tasks(); ++t) {
    for (std::size_t j = 0; j < configs[static_cast<std::size_t>(t)].size();
         ++j) {
      // Upper bound left open: the cluster-size row already caps n, and
      // every finite bound would cost a tableau row in each node LP.
      n_var[static_cast<std::size_t>(t)].push_back(
          lp.add_variable("n_" + g.task(t).name + "_" + std::to_string(j), 0.0,
                          solver::kInf, 0.0, VarType::kInteger));
    }
  }
  std::vector<std::vector<int>> c_var(sinks.size());
  for (std::size_t si = 0; si < sinks.size(); ++si) {
    for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
      // c <= 1 is implied by the per-sink flow equality; keep it unbounded
      // so it does not generate a bound row.
      c_var[si].push_back(lp.add_variable(
          "c_s" + std::to_string(si) + "_p" + std::to_string(pi), 0.0,
          solver::kInf, 0.0));
    }
  }
  int lambda_var = -1;
  if (served_fraction_mode) {
    lambda_var = lp.add_variable("lambda", 0.0, 1.0, 0.0);
  }

  // --- Constraints ---
  // (a) Per-sink flow: sum c(p) = 1 (or = lambda in overload mode).
  for (std::size_t si = 0; si < sinks.size(); ++si) {
    Constraint c;
    for (int v : c_var[si]) c.terms.push_back({v, 1.0});
    if (served_fraction_mode) {
      c.terms.push_back({lambda_var, -1.0});
      c.rhs = 0.0;
    } else {
      c.rhs = 1.0;
    }
    c.rel = Relation::kEq;
    c.name = "flow_sink" + std::to_string(si);
    lp.add_constraint(std::move(c));
  }

  // (b) Prefix consistency across sinks sharing an upstream task (hop-by-hop
  //     routing cannot split a shared prefix differently per sink).
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto below = g.sinks_below(t);
    if (below.size() < 2) continue;
    std::vector<std::size_t> below_idx;
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      if (std::find(below.begin(), below.end(), sinks[si]) != below.end()) {
        below_idx.push_back(si);
      }
    }
    const auto prefixes = enumerate_config_paths(g.task_path_to(t), configs);
    for (const auto& prefix : prefixes) {
      const std::size_t s0 = below_idx[0];
      for (std::size_t bi = 1; bi < below_idx.size(); ++bi) {
        const std::size_t si = below_idx[bi];
        Constraint c;
        for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
          if (config_path_extends(sink_paths[si][pi], prefix)) {
            c.terms.push_back({c_var[si][pi], 1.0});
          }
        }
        for (std::size_t pi = 0; pi < sink_paths[s0].size(); ++pi) {
          if (config_path_extends(sink_paths[s0][pi], prefix)) {
            c.terms.push_back({c_var[s0][pi], -1.0});
          }
        }
        c.rel = Relation::kEq;
        c.rhs = 0.0;
        c.name = "consistency_t" + std::to_string(t);
        lp.add_constraint(std::move(c));
      }
    }
  }

  // (c) Capacity per (task, config), Eq. 2. Shared-prefix load is counted
  //     once via the canonical (first) sink below the task.
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto below = g.sinks_below(t);
    std::size_t s0 = 0;
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      if (sinks[si] == below.front()) s0 = si;
    }
    const auto tpath = g.task_path_to(sinks[s0]);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < tpath.size(); ++i) {
      if (tpath[i] == t) pos = i;
    }
    for (std::size_t j = 0; j < configs[static_cast<std::size_t>(t)].size();
         ++j) {
      Constraint c;
      for (std::size_t pi = 0; pi < sink_paths[s0].size(); ++pi) {
        const auto& p = sink_paths[s0][pi];
        if (p.cfg_idx[pos] != static_cast<int>(j)) continue;
        const double m = config_path_multiplier(g, configs, mult, p, pos);
        c.terms.push_back({c_var[s0][pi], demand_qps * m});
      }
      const auto& vc = configs[static_cast<std::size_t>(t)][j];
      c.terms.push_back(
          {n_var[static_cast<std::size_t>(t)][j], -vc.throughput_qps});
      c.rel = Relation::kLe;
      c.rhs = 0.0;
      c.name = "cap_t" + std::to_string(t) + "_j" + std::to_string(j);
      lp.add_constraint(std::move(c));
    }
  }

  // (d) Cluster size (Eq. 3).
  {
    Constraint c;
    for (const auto& vars : n_var) {
      for (int v : vars) c.terms.push_back({v, 1.0});
    }
    c.rel = Relation::kLe;
    c.rhs = S;
    c.name = "cluster";
    lp.add_constraint(std::move(c));
  }

  // (e) At least one instance per task so every task stays routable even at
  //     zero demand.
  for (int t = 0; t < g.num_tasks(); ++t) {
    Constraint c;
    for (int v : n_var[static_cast<std::size_t>(t)]) {
      c.terms.push_back({v, 1.0});
    }
    c.rel = Relation::kGe;
    c.rhs = 1.0;
    c.name = "host_t" + std::to_string(t);
    lp.add_constraint(std::move(c));
  }

  // --- Objective ---
  constexpr double kServerPenalty = 1e-6;
  const double sink_weight = 1.0 / static_cast<double>(sinks.size());
  auto continuity = [&](int task, int variant) {
    if (prev_variants.empty()) return 0.0;
    const auto& pv = prev_variants[static_cast<std::size_t>(task)];
    return pv[static_cast<std::size_t>(variant)] ? kContinuityBonus : 0.0;
  };
  auto set_accuracy_objective = [&]() {
    lp.set_sense(Sense::kMaximize);
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
        lp.set_objective_coeff(
            c_var[si][pi],
            sink_weight * config_path_accuracy(g, configs, sink_paths[si][pi]));
      }
    }
    for (int t = 0; t < g.num_tasks(); ++t) {
      for (std::size_t j = 0; j < configs[static_cast<std::size_t>(t)].size();
           ++j) {
        lp.set_objective_coeff(
            n_var[static_cast<std::size_t>(t)][j],
            -kServerPenalty +
                continuity(t, configs[static_cast<std::size_t>(t)][j].variant));
      }
    }
  };

  // Warm start from the greedy single-choice solution (not in lambda mode).
  std::optional<std::vector<double>> warm;
  if (!served_fraction_mode) {
    const auto gc = greedy_choice(g, configs, mult, demand_qps,
                                  cfg_.cluster_size,
                                  /*allow_degrade=*/!hardware_only);
    if (gc.feasible) {
      std::vector<double> x(static_cast<std::size_t>(lp.num_variables()), 0.0);
      for (int t = 0; t < g.num_tasks(); ++t) {
        x[static_cast<std::size_t>(
            n_var[static_cast<std::size_t>(t)]
                 [static_cast<std::size_t>(
                     gc.cfg_idx[static_cast<std::size_t>(t)])])] =
            static_cast<double>(gc.replicas[static_cast<std::size_t>(t)]);
      }
      for (std::size_t si = 0; si < sinks.size(); ++si) {
        for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
          const auto& p = sink_paths[si][pi];
          bool matches = true;
          for (std::size_t i = 0; i < p.tasks.size(); ++i) {
            if (p.cfg_idx[i] !=
                gc.cfg_idx[static_cast<std::size_t>(p.tasks[i])]) {
              matches = false;
              break;
            }
          }
          if (matches) x[static_cast<std::size_t>(c_var[si][pi])] = 1.0;
        }
      }
      warm = std::move(x);
    }
  }

  // The overload step dives (depth-first + dual cutoff): its searches are
  // node-budget-truncated, diving finds incumbents early and the cutoff
  // then closes most of the remaining tree mid-repair (~20% fewer pivots
  // at demand 5000). The hardware/accuracy steps keep best-first: their
  // truncated-search incumbents feed the next epoch's continuity bonus,
  // and best-first reaches a stable plan fixed point (plan(prev=A) == A)
  // where diving oscillates between near-equal optima.
  solver::MilpOptions step_milp = kPlannerMilp;
  if (served_fraction_mode) {
    step_milp.node_order = solver::NodeOrder::kDepthFirst;
  }
  solver::BranchAndBound bnb(step_milp);
  AllocationPlan plan;
  plan.demand_qps = demand_qps;
  auto track = [&result](const solver::MilpSolution& sol) {
    result.stats.add(sol);
  };

  // Extracts instances/flows/accuracy from a solution vector.
  auto extract = [&](const std::vector<double>& x, double lambda) {
    double acc = 0.0;
    int servers = 0;
    for (int t = 0; t < g.num_tasks(); ++t) {
      for (std::size_t j = 0; j < configs[static_cast<std::size_t>(t)].size();
           ++j) {
        const int reps = static_cast<int>(std::lround(
            x[static_cast<std::size_t>(n_var[static_cast<std::size_t>(t)][j])]));
        if (reps <= 0) continue;
        const auto& vc = configs[static_cast<std::size_t>(t)][j];
        plan.instances.push_back({t, vc.variant, vc.batch, reps});
        plan.latency_budget_s[{t, vc.variant}] = 2.0 * vc.latency_s;
        servers += reps;
      }
    }
    const double norm = std::max(lambda, 1e-12);
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
        const double f = x[static_cast<std::size_t>(c_var[si][pi])];
        if (f < 1e-9) continue;
        const auto& p = sink_paths[si][pi];
        pipeline::VariantPath vp;
        vp.sink = sinks[si];
        vp.tasks = p.tasks;
        for (std::size_t i = 0; i < p.tasks.size(); ++i) {
          vp.variants.push_back(configs[static_cast<std::size_t>(p.tasks[i])]
                                       [static_cast<std::size_t>(p.cfg_idx[i])]
                                           .variant);
        }
        plan.flows.push_back({std::move(vp), f / norm});
        acc += sink_weight * (f / norm) * config_path_accuracy(g, configs, p);
      }
    }
    plan.expected_accuracy = acc;
    plan.servers_used = servers;
    plan.feasible = true;
  };

  if (served_fraction_mode) {
    // Stage A: maximize served fraction. The trivial lambda=0 point (one
    // instance per task, no flow) is always integer-feasible and guarantees
    // the search returns with an incumbent even under tight node budgets.
    std::vector<double> trivial(static_cast<std::size_t>(lp.num_variables()),
                                0.0);
    for (int t = 0; t < g.num_tasks(); ++t) {
      trivial[static_cast<std::size_t>(n_var[static_cast<std::size_t>(t)][0])] =
          1.0;
    }
    lp.set_sense(Sense::kMaximize);
    lp.set_objective_coeff(lambda_var, 1.0);
    for (const auto& vars : n_var) {
      for (int v : vars) lp.set_objective_coeff(v, -kServerPenalty);
    }
    // Stage A and B share one solver session: stage B's model is stage A's
    // with a different objective and a raised lambda floor, so its root LP
    // crash-starts from stage A's retained root basis (the near-identical
    // tier) instead of cold-solving. With the opt-in near tier the session
    // is the split's, so a drifted-demand plan() crash-starts stage A from
    // the last call's basis too; otherwise it lives for this solve only.
    solver::ResolveSession local_session;
    solver::ResolveSession* stage_session = &local_session;
    solver::WarmTier tier_a = solver::WarmTier::kCold;
    if (cfg_.near_warm_start) {
      auto& near = split_cache.near[2];
      tier_a = near.tier_for(lp);  // before stage B mutates the model
      stage_session = &near.session;
    }
    auto solA = bnb.solve(lp, trivial, stage_session, tier_a);
    track(solA);
    if (solA.status != solver::MilpStatus::kOptimal &&
        solA.status != solver::MilpStatus::kFeasible) {
      return result;
    }
    const double lambda_star =
        solA.values[static_cast<std::size_t>(lambda_var)];
    // Stage B: hold the served fraction and maximize accuracy. The floor is
    // a *bound* on lambda, not an extra row — same tableau shape as stage A
    // and one less row in every node LP.
    lp.set_objective_coeff(lambda_var, 0.0);
    lp.set_bounds(lambda_var, std::max(0.0, lambda_star - 1e-6), 1.0);
    set_accuracy_objective();
    auto solB = bnb.solve(lp, solA.values, stage_session,
                          solver::WarmTier::kNearIdentical);
    track(solB);
    const auto& sol = (solB.status == solver::MilpStatus::kOptimal ||
                       solB.status == solver::MilpStatus::kFeasible)
                          ? solB
                          : solA;
    plan.mode = ScalingMode::kOverload;
    plan.served_fraction = sol.values[static_cast<std::size_t>(lambda_var)];
    extract(sol.values, plan.served_fraction);
    result.feasible = true;
    result.plan = std::move(plan);
    return result;
  }

  if (hardware_only) {
    lp.set_sense(Sense::kMinimize);
    for (const auto& vars : n_var) {
      for (int v : vars) lp.set_objective_coeff(v, 1.0);
    }
  } else {
    set_accuracy_objective();
  }

  if (verdict) {
    // A stopped search holds an incumbent exactly when the full one would,
    // but it is no plan: it stays out of the near tier's state, so no later
    // plan() can resume from it.
    const auto sol = bnb.find_feasible(lp, warm);
    track(sol);
    result.feasible = sol.status == solver::MilpStatus::kOptimal ||
                      sol.status == solver::MilpStatus::kFeasible;
    return result;
  }

  // Without the opt-in near tier every solve is cold and keeps no state.
  solver::ResolveSession* session = nullptr;
  solver::WarmTier tier = solver::WarmTier::kCold;
  if (cfg_.near_warm_start) {
    auto& near = split_cache.near[hardware_only ? 0 : 1];
    tier = near.tier_for(lp);
    session = &near.session;
  }
  const auto sol = bnb.solve(lp, warm, session, tier);
  track(sol);
  if (sol.status != solver::MilpStatus::kOptimal &&
      sol.status != solver::MilpStatus::kFeasible) {
    return result;
  }
  plan.mode = hardware_only ? ScalingMode::kHardware : ScalingMode::kAccuracy;
  plan.served_fraction = 1.0;
  extract(sol.values, 1.0);
  result.feasible = true;
  result.plan = std::move(plan);
  return result;
}

std::vector<std::vector<bool>> MilpAllocator::prepare_request(
    const PlanRequest& request) {
  // Request shape invariant: observed arrival rates are either absent
  // (planner probes) or one entry per task — never a partial vector.
  LOKI_CHECK_MSG(request.task_arrivals_qps.empty() ||
                     static_cast<int>(request.task_arrivals_qps.size()) ==
                         graph_->num_tasks(),
                 "task_arrivals_qps has " << request.task_arrivals_qps.size()
                                          << " entries for "
                                          << graph_->num_tasks() << " tasks");
  ensure_epoch_context();
  if (!team_) {
    team_ = std::make_unique<Team>(std::min<std::size_t>(
        epoch_->splits.size(),
        std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  }

  // Previous-plan view -> hosted-variant bitmap. The accuracy objective
  // gives a tiny per-replica bonus for reusing these variants: successive
  // MILP solves otherwise flip between near-equal mixes, and every flip
  // costs real model-swap downtime at runtime (plan-continuity
  // regularization).
  std::vector<std::vector<bool>> prev_variants;
  if (request.previous_plan != nullptr) {
    prev_variants.assign(static_cast<std::size_t>(graph_->num_tasks()), {});
    for (int t = 0; t < graph_->num_tasks(); ++t) {
      prev_variants[static_cast<std::size_t>(t)].assign(
          static_cast<std::size_t>(graph_->task(t).catalog.size()), false);
    }
    for (const auto& ic : request.previous_plan->instances) {
      if (ic.task < 0 || ic.task >= graph_->num_tasks()) continue;
      auto& pv = prev_variants[static_cast<std::size_t>(ic.task)];
      if (ic.variant < 0 || ic.variant >= static_cast<int>(pv.size())) continue;
      pv[static_cast<std::size_t>(ic.variant)] = true;
    }
  }
  return prev_variants;
}

PlanResult MilpAllocator::plan(const PlanRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // Failure re-plans shrink placement capacity to the surviving workers.
  ScopedClusterCapacity capacity(&cfg_.cluster_size, request,
                                 graph_->num_tasks());
  const auto prev_variants = prepare_request(request);
  const double demand_qps = request.demand_qps;
  const auto& splits = epoch_->splits;

  PlanResult out;
  out.epoch = request.epoch;
  // Solver counters aggregate over every split of every step attempted for
  // this allocation, not just the winning plan's own solve.
  SolverStats agg;

  auto finish = [&](AllocationPlan plan) {
    plan.solve_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    plan.demand_qps = demand_qps;
    plan.solver = agg;
    out.solver = agg;
    out.plan = std::move(plan);
    return std::move(out);
  };

  // Solves all splits for one step concurrently; selection afterwards is
  // deterministic (index order). `better` is the step's plan preference.
  auto run_step = [&](const char* step_name, bool hardware_only,
                      bool served_fraction_mode,
                      auto&& better) -> std::optional<AllocationPlan> {
    const auto s0 = std::chrono::steady_clock::now();
    StepSolve step;
    step.step = step_name;
    step.splits_attempted = static_cast<int>(splits.size());
    std::vector<MilpResult> results(splits.size());
    team_->run(splits.size(), [&](std::size_t i) {
      results[i] = solve_step(i, demand_qps, request.mult, prev_variants,
                              hardware_only, served_fraction_mode,
                              /*verdict=*/false);
    });
    std::optional<AllocationPlan> best;
    for (auto& res : results) {
      step.solver += res.stats;
      if (!res.feasible) continue;
      ++step.splits_feasible;
      if (!best || better(res.plan, *best)) best = std::move(res.plan);
    }
    agg += step.solver;
    step.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
            .count();
    step.selected = best.has_value();
    out.steps.push_back(std::move(step));
    return best;
  };

  // Step 1: hardware scaling — minimize servers at maximum accuracy.
  if (auto best = run_step(
          "hardware", /*hardware_only=*/true, /*served_fraction_mode=*/false,
          [](const AllocationPlan& a, const AllocationPlan& b) {
            return a.servers_used < b.servers_used;
          })) {
    return finish(std::move(*best));
  }

  // Step 2: accuracy scaling — maximize accuracy on the full cluster.
  if (auto best = run_step(
          "accuracy", /*hardware_only=*/false, /*served_fraction_mode=*/false,
          [](const AllocationPlan& a, const AllocationPlan& b) {
            return a.expected_accuracy > b.expected_accuracy + 1e-9 ||
                   (std::abs(a.expected_accuracy - b.expected_accuracy) <=
                        1e-9 &&
                    a.servers_used < b.servers_used);
          })) {
    return finish(std::move(*best));
  }

  // Step 3: overload — maximize served fraction, then accuracy.
  auto best = run_step(
      "overload", /*hardware_only=*/false, /*served_fraction_mode=*/true,
      [](const AllocationPlan& a, const AllocationPlan& b) {
        return a.served_fraction > b.served_fraction + 1e-9 ||
               (std::abs(a.served_fraction - b.served_fraction) <= 1e-9 &&
                a.expected_accuracy > b.expected_accuracy);
      });
  LOKI_CHECK_MSG(best.has_value(),
                 "overload MILP must always be feasible (lambda=0 works)");
  return finish(std::move(*best));
}

ServiceVerdict MilpAllocator::serves_demand(const PlanRequest& request) {
  ScopedClusterCapacity capacity(&cfg_.cluster_size, request,
                                 graph_->num_tasks());
  const auto prev_variants = prepare_request(request);
  // No cancellation across splits: each search stops only at its own
  // first incumbent, so the work counted is the same on every run.
  ServiceVerdict verdict;
  for (const bool hardware_only : {true, false}) {
    std::vector<MilpResult> results(epoch_->splits.size());
    team_->run(results.size(), [&](std::size_t i) {
      results[i] = solve_step(i, request.demand_qps, request.mult,
                              prev_variants, hardware_only,
                              /*served_fraction_mode=*/false,
                              /*verdict=*/true);
    });
    for (const MilpResult& res : results) {
      verdict.solver += res.stats;
      verdict.served = verdict.served || res.feasible;
    }
    if (verdict.served) break;
  }
  return verdict;
}

}  // namespace loki::serving
