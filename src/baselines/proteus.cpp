#include "baselines/proteus.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace loki::baselines {

using serving::AllocationPlan;
using serving::ScalingMode;
using serving::VariantConfig;

ProteusStrategy::ProteusStrategy(serving::AllocatorConfig cfg,
                                 const pipeline::PipelineGraph* graph,
                                 serving::ProfileTable profiles,
                                 double demand_ewma_alpha,
                                 double ewma_period_s)
    : cfg_(cfg), graph_(graph), profiles_(std::move(profiles)),
      alpha_(demand_ewma_alpha), ewma_period_s_(ewma_period_s) {
  LOKI_CHECK(graph_ != nullptr);
  LOKI_CHECK(ewma_period_s_ > 0.0);
  task_demand_.assign(static_cast<std::size_t>(graph_->num_tasks()), 0.0);
  demand_seen_.assign(static_cast<std::size_t>(graph_->num_tasks()), false);
}

void ProteusStrategy::fold_observation(const std::vector<double>& qps,
                                       double periods) {
  LOKI_CHECK(qps.size() == task_demand_.size());
  // One observation summarizing `periods` reference periods carries the
  // weight `periods` separate per-period folds would have accumulated, so
  // the EWMA time constant does not depend on the fold cadence.
  const double a =
      1.0 - std::pow(1.0 - alpha_, std::max(1.0, periods));
  for (std::size_t t = 0; t < qps.size(); ++t) {
    if (!demand_seen_[t]) {
      task_demand_[t] = qps[t];
      demand_seen_[t] = true;
    } else {
      task_demand_[t] = a * qps[t] + (1.0 - a) * task_demand_[t];
    }
  }
}

serving::PlanResult ProteusStrategy::plan(
    const serving::PlanRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // Failure re-plans shrink placement capacity to the surviving workers.
  serving::ScopedClusterCapacity capacity(&cfg_.cluster_size, request,
                                          graph_->num_tasks());
  // Request shape invariant: observed arrival rates are either absent
  // (planner probes) or one entry per task — never a partial vector.
  LOKI_CHECK_MSG(request.task_arrivals_qps.empty() ||
                     static_cast<int>(request.task_arrivals_qps.size()) ==
                         graph_->num_tasks(),
                 "task_arrivals_qps has " << request.task_arrivals_qps.size()
                                          << " entries for "
                                          << graph_->num_tasks() << " tasks");
  // Observed arrivals ride in the request now (the old side-channel);
  // an empty vector means no runtime observations (planner probes).
  if (!request.task_arrivals_qps.empty()) {
    const double periods =
        last_fold_time_s_ >= 0.0 && request.sim_time_s > last_fold_time_s_
            ? (request.sim_time_s - last_fold_time_s_) / ewma_period_s_
            : 1.0;
    fold_observation(request.task_arrivals_qps, periods);
    last_fold_time_s_ = request.sim_time_s;
  }
  const double demand_qps = request.demand_qps;
  const auto& g = *graph_;
  const int nt = g.num_tasks();

  // Pipeline-agnostic demand: frontend demand for the root; *observed*
  // arrivals for intermediate tasks (the key limitation §2.2.1 describes).
  std::vector<double> demand(static_cast<std::size_t>(nt), 0.0);
  for (int t = 0; t < nt; ++t) {
    demand[static_cast<std::size_t>(t)] =
        g.parent(t) == -1 ? demand_qps
                          : task_demand_[static_cast<std::size_t>(t)];
  }

  // Even SLO split across the longest path (no per-pipeline optimization).
  const int levels = g.max_depth() + 1;
  const double hops = static_cast<double>(levels + 1);
  const double per_task_budget =
      (cfg_.slo_s * serving::kQueueFactor - serving::kCommLatencyS * hops) /
      static_cast<double>(levels);
  LOKI_CHECK(per_task_budget > 0.0);

  // Per task: feasible variant configs under the even budget, ordered by
  // the task's own accuracy (descending).
  std::vector<std::vector<VariantConfig>> configs(
      static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    for (int k = 0; k < g.task(t).catalog.size(); ++k) {
      const auto& prof =
          profiles_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      const int batch = prof.best_batch_within(per_task_budget);
      if (batch < 0) continue;
      VariantConfig vc;
      vc.variant = k;
      vc.batch = batch;
      vc.throughput_qps =
          prof.throughput_for(batch) * serving::kUtilizationTarget;
      vc.latency_s = prof.latency_for(batch);
      configs[static_cast<std::size_t>(t)].push_back(vc);
    }
    LOKI_CHECK_MSG(!configs[static_cast<std::size_t>(t)].empty(),
                   "Proteus: no variant of task " << g.task(t).name
                                                  << " fits the even SLO split");
    std::sort(configs[static_cast<std::size_t>(t)].begin(),
              configs[static_cast<std::size_t>(t)].end(),
              [&](const VariantConfig& a, const VariantConfig& b) {
                const double aa = g.task(t).catalog.at(a.variant).accuracy;
                const double ab = g.task(t).catalog.at(b.variant).accuracy;
                if (aa != ab) return aa > ab;
                return a.throughput_qps > b.throughput_qps;
              });
  }

  // Start every task at its most accurate config; degrade the task with the
  // best server savings per *task* accuracy loss until the cluster fits.
  std::vector<int> rank(static_cast<std::size_t>(nt), 0);
  auto replicas_of = [&](int t, int rk) {
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(rk)];
    return std::max(
        1, static_cast<int>(std::ceil(demand[static_cast<std::size_t>(t)] /
                                          vc.throughput_qps -
                                      1e-9)));
  };
  auto total_servers = [&]() {
    int total = 0;
    for (int t = 0; t < nt; ++t) {
      total += replicas_of(t, rank[static_cast<std::size_t>(t)]);
    }
    return total;
  };

  int servers = total_servers();
  bool overload = false;
  while (servers > cfg_.cluster_size) {
    int best_task = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int t = 0; t < nt; ++t) {
      const int rk = rank[static_cast<std::size_t>(t)];
      if (rk + 1 >=
          static_cast<int>(configs[static_cast<std::size_t>(t)].size())) {
        continue;
      }
      const double acc_now =
          g.task(t).catalog
              .at(configs[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(rk)]
                             .variant)
              .accuracy;
      const double acc_next =
          g.task(t).catalog
              .at(configs[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(rk + 1)]
                             .variant)
              .accuracy;
      const double d_servers =
          static_cast<double>(replicas_of(t, rk) - replicas_of(t, rk + 1));
      const double score = d_servers / std::max(1e-12, acc_now - acc_next);
      if (score > best_score) {
        best_score = score;
        best_task = t;
      }
    }
    if (best_task < 0) {
      overload = true;  // fully degraded; will shed the remainder
      break;
    }
    ++rank[static_cast<std::size_t>(best_task)];
    servers = total_servers();
  }

  AllocationPlan plan;
  plan.demand_qps = demand_qps;
  plan.feasible = true;

  double served = 1.0;
  if (overload) {
    // Shed proportionally at the frontend so queues stay bounded.
    double unit = 0.0;
    for (int t = 0; t < nt; ++t) {
      const auto& vc = configs[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(
                                  rank[static_cast<std::size_t>(t)])];
      unit += demand[static_cast<std::size_t>(t)] / vc.throughput_qps;
    }
    served = std::min(1.0, static_cast<double>(cfg_.cluster_size) /
                               std::max(unit, 1e-12));
  }

  std::vector<int> reps(static_cast<std::size_t>(nt));
  int total = 0;
  for (int t = 0; t < nt; ++t) {
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(
                                rank[static_cast<std::size_t>(t)])];
    reps[static_cast<std::size_t>(t)] = std::max(
        1,
        static_cast<int>(std::ceil(
            demand[static_cast<std::size_t>(t)] * served / vc.throughput_qps -
            1e-9)));
    total += reps[static_cast<std::size_t>(t)];
  }
  while (total > cfg_.cluster_size) {
    int argmax = 0;
    for (int t = 1; t < nt; ++t) {
      if (reps[static_cast<std::size_t>(t)] >
          reps[static_cast<std::size_t>(argmax)]) {
        argmax = t;
      }
    }
    LOKI_CHECK(reps[static_cast<std::size_t>(argmax)] > 1);
    --reps[static_cast<std::size_t>(argmax)];
    --total;
  }
  // No hardware scaling: spread leftover servers as extra replicas of the
  // currently-chosen configs (Proteus keeps the whole cluster active).
  int leftover = cfg_.cluster_size - total;
  int rr = 0;
  while (leftover > 0) {
    ++reps[static_cast<std::size_t>(rr % nt)];
    ++rr;
    --leftover;
  }
  total = cfg_.cluster_size;

  double acc_sum = 0.0;
  for (int t = 0; t < nt; ++t) {
    const auto& vc = configs[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(
                                rank[static_cast<std::size_t>(t)])];
    plan.instances.push_back(
        {t, vc.variant, vc.batch, reps[static_cast<std::size_t>(t)]});
    plan.latency_budget_s[{t, vc.variant}] = 2.0 * vc.latency_s;
  }
  for (int s : g.sinks()) {
    pipeline::VariantPath vp;
    vp.sink = s;
    vp.tasks = g.task_path_to(s);
    double acc = 1.0;
    for (int t : vp.tasks) {
      const int variant = configs[static_cast<std::size_t>(t)]
                                 [static_cast<std::size_t>(
                                     rank[static_cast<std::size_t>(t)])]
                                     .variant;
      vp.variants.push_back(variant);
      acc *= g.task(t).catalog.at(variant).accuracy;
    }
    acc_sum += acc;
    plan.flows.push_back({std::move(vp), 1.0});
  }
  plan.expected_accuracy = acc_sum / static_cast<double>(g.sinks().size());
  plan.servers_used = total;
  plan.served_fraction = served;
  plan.mode = overload ? ScalingMode::kOverload : ScalingMode::kAccuracy;
  plan.solve_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  serving::PlanResult out;
  out.epoch = request.epoch;
  serving::StepSolve step;
  step.step = "per-task-accuracy-scaling";
  step.wall_s = plan.solve_time_s;
  step.splits_attempted = 1;
  step.splits_feasible = 1;
  step.selected = true;
  out.steps.push_back(std::move(step));
  out.plan = std::move(plan);
  return out;
}

}  // namespace loki::baselines
