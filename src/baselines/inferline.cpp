#include "baselines/inferline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.hpp"

namespace loki::baselines {

using serving::AllocationPlan;
using serving::ScalingMode;

InferLineStrategy::InferLineStrategy(serving::AllocatorConfig cfg,
                                     const pipeline::PipelineGraph* graph,
                                     serving::ProfileTable profiles,
                                     std::vector<int> pinned_variants)
    : cfg_(cfg), graph_(graph), profiles_(std::move(profiles)),
      pinned_(std::move(pinned_variants)) {
  LOKI_CHECK(graph_ != nullptr);
  if (pinned_.empty()) {
    for (int t = 0; t < graph_->num_tasks(); ++t) {
      pinned_.push_back(graph_->task(t).catalog.most_accurate());
    }
  }
  LOKI_CHECK(static_cast<int>(pinned_.size()) == graph_->num_tasks());
}

serving::PlanResult InferLineStrategy::plan(
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
  const double demand_qps = request.demand_qps;
  const auto& mult = request.mult;
  const auto& g = *graph_;

  // Load per task with the pinned variants.
  std::vector<double> load(static_cast<std::size_t>(g.num_tasks()), 0.0);
  for (int t : g.topological_order()) {
    if (g.parent(t) == -1) load[static_cast<std::size_t>(t)] = demand_qps;
    const double r = mult.at(static_cast<std::size_t>(t))
                         .at(static_cast<std::size_t>(
                             pinned_[static_cast<std::size_t>(t)]));
    for (int c : g.children(t)) {
      load[static_cast<std::size_t>(c)] =
          load[static_cast<std::size_t>(t)] * r * g.branch_ratio(t, c);
    }
  }

  // Best batch per task over the budget-split grid: InferLine tunes batch
  // sizes and replication, just never the variant.
  std::optional<AllocationPlan> best;
  const auto splits = serving::budget_splits(cfg_, g);
  int feasible_splits = 0;
  for (const auto& split : splits) {
    const auto budgets = serving::task_budgets_for_split(cfg_, g, split);
    AllocationPlan plan;
    plan.demand_qps = demand_qps;
    bool ok = true;
    double unit_servers = 0.0;  // fractional servers per unit demand
    std::vector<serving::VariantConfig> chosen(
        static_cast<std::size_t>(g.num_tasks()));
    for (int t = 0; t < g.num_tasks() && ok; ++t) {
      const int k = pinned_[static_cast<std::size_t>(t)];
      const auto& prof =
          profiles_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      const int batch =
          prof.best_batch_within(budgets[static_cast<std::size_t>(t)]);
      if (batch < 0) {
        ok = false;
        break;
      }
      serving::VariantConfig vc;
      vc.variant = k;
      vc.batch = batch;
      vc.throughput_qps =
          prof.throughput_for(batch) * serving::kUtilizationTarget;
      vc.latency_s = prof.latency_for(batch);
      chosen[static_cast<std::size_t>(t)] = vc;
      unit_servers += (load[static_cast<std::size_t>(t)] /
                       std::max(demand_qps, 1e-12)) /
                      vc.throughput_qps;
    }
    if (!ok) continue;

    // Capacity of the full cluster with this configuration.
    const double capacity_qps =
        static_cast<double>(cfg_.cluster_size) / std::max(unit_servers, 1e-12);
    const double served =
        demand_qps <= 1e-12
            ? 1.0
            : std::min(1.0, capacity_qps / demand_qps);

    int total = 0;
    for (int t = 0; t < g.num_tasks(); ++t) {
      const auto& vc = chosen[static_cast<std::size_t>(t)];
      const int reps = std::max(
          1, static_cast<int>(std::ceil(
                 load[static_cast<std::size_t>(t)] * served /
                     vc.throughput_qps -
                 1e-9)));
      plan.instances.push_back({t, vc.variant, vc.batch, reps});
      plan.latency_budget_s[{t, vc.variant}] = 2.0 * vc.latency_s;
      total += reps;
    }
    // Clip ceil overshoot against the cluster.
    while (total > cfg_.cluster_size) {
      int argmax = 0;
      for (std::size_t i = 1; i < plan.instances.size(); ++i) {
        if (plan.instances[i].replicas >
            plan.instances[static_cast<std::size_t>(argmax)].replicas) {
          argmax = static_cast<int>(i);
        }
      }
      LOKI_CHECK(plan.instances[static_cast<std::size_t>(argmax)].replicas > 1);
      --plan.instances[static_cast<std::size_t>(argmax)].replicas;
      --total;
    }
    plan.servers_used = total;
    plan.served_fraction = served;
    plan.mode =
        served < 1.0 ? ScalingMode::kOverload : ScalingMode::kHardware;

    double acc_sum = 0.0;
    for (int s : g.sinks()) {
      pipeline::VariantPath vp;
      vp.sink = s;
      vp.tasks = g.task_path_to(s);
      double acc = 1.0;
      for (int t : vp.tasks) {
        vp.variants.push_back(pinned_[static_cast<std::size_t>(t)]);
        acc *= g.task(t).catalog.at(pinned_[static_cast<std::size_t>(t)])
                   .accuracy;
      }
      acc_sum += acc;
      plan.flows.push_back({std::move(vp), 1.0});
    }
    plan.expected_accuracy =
        acc_sum / static_cast<double>(g.sinks().size());
    plan.feasible = true;

    // Prefer plans that serve everything with the fewest servers; among
    // overloaded plans prefer the highest served fraction.
    auto better = [](const AllocationPlan& a, const AllocationPlan& b) {
      if (a.served_fraction != b.served_fraction) {
        return a.served_fraction > b.served_fraction;
      }
      return a.servers_used < b.servers_used;
    };
    ++feasible_splits;
    if (!best || better(plan, *best)) best = std::move(plan);
  }
  LOKI_CHECK_MSG(best.has_value(),
                 "InferLine: pinned variants infeasible under the SLO");
  serving::PlanResult out;
  out.epoch = request.epoch;
  best->solve_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  serving::StepSolve step;
  step.step = "pinned-variant-scaling";
  step.wall_s = best->solve_time_s;
  step.splits_attempted = static_cast<int>(splits.size());
  step.splits_feasible = feasible_splits;
  step.selected = true;
  out.steps.push_back(std::move(step));
  out.plan = std::move(*best);
  return out;
}

}  // namespace loki::baselines
