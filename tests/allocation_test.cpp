// Resource Manager allocator tests (§4): budget splits, feasible configs,
// the greedy allocator, and the three-step MILP allocator — including the
// Fig. 1 phase structure and plan-validity invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "profile/zoo.hpp"
#include "serving/allocation.hpp"
#include "tests/test_support.hpp"

namespace loki::serving {
namespace {

struct Fixture {
  pipeline::PipelineGraph graph;
  ProfileTable profiles;
  AllocatorConfig cfg;
  pipeline::MultFactorTable mult;

  explicit Fixture(pipeline::PipelineGraph g) : graph(std::move(g)) {
    profile::ModelProfiler profiler;
    profiles = build_profile_table(graph, profiler);
    mult = pipeline::default_mult_factors(graph);
    cfg.cluster_size = 20;
    cfg.slo_s = 0.250;
  }
};

Fixture traffic() {
  return Fixture(pipeline::traffic_analysis_pipeline());
}
Fixture traffic2() {
  return Fixture(pipeline::traffic_analysis_two_task_pipeline());
}
Fixture social() { return Fixture(pipeline::social_media_pipeline()); }

// Validates the plan against the physical constraints it claims to satisfy.
void check_plan_validity(const Fixture& f, const AllocationPlan& plan,
                         double demand) {
  // Cluster size respected.
  EXPECT_LE(plan.total_replicas(), f.cfg.cluster_size);
  EXPECT_EQ(plan.servers_used, plan.total_replicas());
  // Every task hosted.
  std::map<int, int> per_task;
  for (const auto& ic : plan.instances) per_task[ic.task] += ic.replicas;
  for (int t = 0; t < f.graph.num_tasks(); ++t) {
    EXPECT_GE(per_task[t], 1) << "task " << t << " not hosted";
  }
  // Flow fractions per sink sum to ~1 (after overload normalization).
  std::map<int, double> sink_flow;
  for (const auto& flow : plan.flows) sink_flow[flow.path.sink] += flow.fraction;
  for (int s : f.graph.sinks()) {
    EXPECT_NEAR(sink_flow[s], 1.0, 1e-6) << "sink " << s;
  }
  // Capacity: per (task, variant), planned load <= replicas * q(batch).
  // Load per (task, variant): demand * served * sum over flows through it.
  const double served = demand * plan.served_fraction;
  std::map<std::pair<int, int>, double> load;
  for (const auto& flow : plan.flows) {
    for (std::size_t i = 0; i < flow.path.tasks.size(); ++i) {
      const int t = flow.path.tasks[i];
      // Only count via the first sink that reaches t (shared prefixes
      // would double count); tasks appear on one path per sink.
      if (flow.path.sink != f.graph.sinks_below(t).front()) continue;
      const double m =
          pipeline::path_multiplier(f.graph, f.mult, flow.path, i);
      load[{t, flow.path.variants[i]}] += served * flow.fraction * m;
    }
  }
  for (const auto& [key, qps] : load) {
    double cap = 0.0;
    for (const auto& ic : plan.instances) {
      if (ic.task == key.first && ic.variant == key.second) {
        const auto& prof =
            f.profiles[static_cast<std::size_t>(ic.task)]
                      [static_cast<std::size_t>(ic.variant)];
        cap += ic.replicas * prof.throughput_for(ic.batch) *
               kUtilizationTarget;
      }
    }
    EXPECT_LE(qps, cap * (1.0 + 1e-6))
        << "overloaded (task,variant)=(" << key.first << "," << key.second
        << ")";
  }
  // Latency budgets: per-path execution within SLO/2 minus comm.
  for (const auto& flow : plan.flows) {
    double exec = 0.0;
    for (std::size_t i = 0; i < flow.path.tasks.size(); ++i) {
      // Find the batch of this (task, variant) in the plan.
      for (const auto& ic : plan.instances) {
        if (ic.task == flow.path.tasks[i] &&
            ic.variant == flow.path.variants[i]) {
          const auto& prof =
              f.profiles[static_cast<std::size_t>(ic.task)]
                        [static_cast<std::size_t>(ic.variant)];
          exec += prof.latency_for(ic.batch);
          break;
        }
      }
    }
    const double hops = static_cast<double>(flow.path.tasks.size()) + 1.0;
    EXPECT_LE(exec, f.cfg.slo_s * kQueueFactor - kCommLatencyS * hops + 1e-9);
  }
}

TEST(BudgetSplits, ChainTwoLevels) {
  const auto f = traffic2();
  const auto splits = budget_splits(f.cfg, f.graph);
  EXPECT_EQ(splits.size(), 6u);  // compositions of 7 into 2 parts
  for (const auto& w : splits) {
    ASSERT_EQ(w.size(), 2u);
    EXPECT_GT(w[0], 0.0);
    EXPECT_GT(w[1], 0.0);
    EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
  }
}

TEST(BudgetSplits, SingleTaskPipeline) {
  pipeline::PipelineGraph g("single");
  g.add_task("only", profile::yolo_detection_catalog());
  g.validate();
  AllocatorConfig cfg;
  const auto splits = budget_splits(cfg, g);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0], std::vector<double>{1.0});
}

TEST(TaskBudgets, SharedRootTakesMinimum) {
  const auto f = traffic();
  const auto budgets = task_budgets_for_split(f.cfg, f.graph, {0.5, 0.5});
  // Both sinks are at depth 1 with 3 hops; root budget = leaf budgets.
  const double total = f.cfg.slo_s * kQueueFactor - 3.0 * kCommLatencyS;
  EXPECT_NEAR(budgets[0], total / 2.0, 1e-12);
  EXPECT_NEAR(budgets[1], total / 2.0, 1e-12);
  EXPECT_NEAR(budgets[2], total / 2.0, 1e-12);
}

TEST(FeasibleConfigs, LatencyCutAndDerating) {
  const auto f = traffic2();
  const auto budgets = task_budgets_for_split(f.cfg, f.graph, {0.5, 0.5});
  const auto with = feasible_configs(f.graph, f.profiles, budgets, 0.9);
  const auto without = feasible_configs(f.graph, f.profiles, budgets, 1.0);
  for (int t = 0; t < f.graph.num_tasks(); ++t) {
    ASSERT_EQ(with[static_cast<std::size_t>(t)].size(),
              without[static_cast<std::size_t>(t)].size());
    for (std::size_t j = 0; j < with[static_cast<std::size_t>(t)].size();
         ++j) {
      const auto& a = with[static_cast<std::size_t>(t)][j];
      const auto& b = without[static_cast<std::size_t>(t)][j];
      EXPECT_NEAR(a.throughput_qps, 0.9 * b.throughput_qps, 1e-9);
      EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
      EXPECT_LE(a.latency_s,
                budgets[static_cast<std::size_t>(t)] + 1e-12);
    }
  }
}

TEST(FeasibleConfigs, TightBudgetExcludesSlowVariants) {
  const auto f = traffic2();
  std::vector<double> tight(2, 0.030);  // 30 ms per task
  const auto configs = feasible_configs(f.graph, f.profiles, tight, 1.0);
  // EfficientNet-b7 (52 QPS design) needs ~46 ms at batch 1: excluded.
  for (const auto& vc : configs[1]) {
    EXPECT_NE(f.graph.task(1).catalog.at(vc.variant).name,
              "efficientnet-b7");
  }
}

TEST(GreedyAllocator, ZeroDemandUsesMinimumServers) {
  auto f = traffic();
  GreedyAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({0.0, f.mult}).plan;
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, f.graph.num_tasks());  // one each
  EXPECT_NEAR(plan.expected_accuracy, 1.0, 1e-12);
  check_plan_validity(f, plan, 0.0);
}

TEST(GreedyAllocator, ServersGrowWithDemand) {
  auto f = traffic();
  GreedyAllocator alloc(f.cfg, &f.graph, f.profiles);
  int prev = 0;
  for (double d : {50.0, 150.0, 300.0}) {
    const auto plan = alloc.plan({d, f.mult}).plan;
    EXPECT_GE(plan.servers_used, prev);
    prev = plan.servers_used;
    check_plan_validity(f, plan, d);
  }
}

TEST(GreedyAllocator, DegradesAccuracyUnderPressure) {
  auto f = traffic();
  GreedyAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto low = alloc.plan({100.0, f.mult}).plan;
  EXPECT_NEAR(low.expected_accuracy, 1.0, 1e-12);
  const auto high = alloc.plan({900.0, f.mult}).plan;
  EXPECT_LT(high.expected_accuracy, 1.0);
  EXPECT_EQ(high.mode, ScalingMode::kAccuracy);
  check_plan_validity(f, high, 900.0);
}

TEST(GreedyAllocator, OverloadShedsFraction) {
  auto f = traffic();
  GreedyAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({50000.0, f.mult}).plan;
  EXPECT_EQ(plan.mode, ScalingMode::kOverload);
  EXPECT_LT(plan.served_fraction, 1.0);
  EXPECT_GT(plan.served_fraction, 0.0);
  check_plan_validity(f, plan, 50000.0);
}

TEST(MilpAllocator, HardwareModeAtLowDemand) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({100.0, f.mult}).plan;
  EXPECT_EQ(plan.mode, ScalingMode::kHardware);
  EXPECT_NEAR(plan.expected_accuracy, 1.0, 1e-9);
  EXPECT_LT(plan.servers_used, f.cfg.cluster_size);
  check_plan_validity(f, plan, 100.0);
}

TEST(MilpAllocator, UsesFewServersAtTinyDemand) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({5.0, f.mult}).plan;
  EXPECT_EQ(plan.servers_used, f.graph.num_tasks());
  check_plan_validity(f, plan, 5.0);
}

TEST(MilpAllocator, AccuracyModeWhenClusterExhausted) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  // Find a demand beyond hardware capacity but within accuracy capacity.
  const auto plan = alloc.plan({1200.0, f.mult}).plan;
  EXPECT_EQ(plan.mode, ScalingMode::kAccuracy);
  EXPECT_LT(plan.expected_accuracy, 1.0);
  EXPECT_GT(plan.expected_accuracy, 0.5);
  EXPECT_NEAR(plan.served_fraction, 1.0, 1e-9);
  check_plan_validity(f, plan, 1200.0);
}

TEST(MilpAllocator, OverloadModeAtExtremeDemand) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({100000.0, f.mult}).plan;
  EXPECT_EQ(plan.mode, ScalingMode::kOverload);
  EXPECT_LT(plan.served_fraction, 0.2);
  check_plan_validity(f, plan, 100000.0);
}

TEST(MilpAllocator, AtLeastAsAccurateAsGreedy) {
  auto f = traffic();
  MilpAllocator milp(f.cfg, &f.graph, f.profiles);
  GreedyAllocator greedy(f.cfg, &f.graph, f.profiles);
  for (double d : {700.0, 1000.0, 1300.0}) {
    const auto mp = milp.plan({d, f.mult}).plan;
    const auto gp = greedy.plan({d, f.mult}).plan;
    if (gp.mode != ScalingMode::kOverload) {
      EXPECT_GE(mp.expected_accuracy, gp.expected_accuracy - 1e-6)
          << "demand " << d;
    }
  }
}

TEST(MilpAllocator, HardwareStepMinimizesServersVsGreedy) {
  auto f = traffic();
  MilpAllocator milp(f.cfg, &f.graph, f.profiles);
  GreedyAllocator greedy(f.cfg, &f.graph, f.profiles);
  for (double d : {80.0, 200.0, 350.0}) {
    const auto mp = milp.plan({d, f.mult}).plan;
    const auto gp = greedy.plan({d, f.mult}).plan;
    if (mp.mode == ScalingMode::kHardware &&
        gp.expected_accuracy >= 1.0 - 1e-9) {
      EXPECT_LE(mp.servers_used, gp.servers_used) << "demand " << d;
    }
  }
}

TEST(MilpAllocator, Fig1PhaseProgressionTwoTask) {
  // The Fig. 1 narrative: hardware scaling at low demand; accuracy scaling
  // degrades the *classification* task (smaller end-to-end impact per
  // throughput gained) before the detection task.
  auto f = traffic2();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);

  const auto low = alloc.plan({200.0, f.mult}).plan;
  EXPECT_EQ(low.mode, ScalingMode::kHardware);

  // Mid-pressure: accuracy scaling begins with task 2 (classification).
  const auto mid = alloc.plan({1300.0, f.mult}).plan;
  if (mid.mode == ScalingMode::kAccuracy) {
    // Flow-weighted variant accuracy per task.
    double det_acc = 0.0, cls_acc = 0.0, wsum = 0.0;
    for (const auto& flow : mid.flows) {
      det_acc += flow.fraction *
                 f.graph.task(0).catalog.at(flow.path.variants[0]).accuracy;
      cls_acc += flow.fraction *
                 f.graph.task(1).catalog.at(flow.path.variants[1]).accuracy;
      wsum += flow.fraction;
    }
    det_acc /= wsum;
    cls_acc /= wsum;
    EXPECT_GT(det_acc, cls_acc)
        << "classification should be degraded before detection";
  }
  check_plan_validity(f, mid, 1300.0);
}

TEST(MilpAllocator, SocialPipelinePlans) {
  auto f = social();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  for (double d : {50.0, 400.0, 1500.0}) {
    const auto plan = alloc.plan({d, f.mult}).plan;
    EXPECT_TRUE(plan.feasible);
    check_plan_validity(f, plan, d);
  }
}

TEST(MilpAllocator, MultiSinkConsistencyOfFlows) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({900.0, f.mult}).plan;
  // The root-variant marginals must agree between the two sinks (a query
  // cannot use different detection variants for its two branches).
  std::map<int, double> marginal_car, marginal_face;
  for (const auto& flow : plan.flows) {
    auto& m = flow.path.sink == pipeline::TrafficTasks::kCarClassification
                  ? marginal_car
                  : marginal_face;
    m[flow.path.variants[0]] += flow.fraction;
  }
  for (const auto& [variant, frac] : marginal_car) {
    EXPECT_NEAR(frac, marginal_face[variant], 1e-5)
        << "root variant " << variant;
  }
}

TEST(MilpAllocator, AccuracyMonotoneInDemand) {
  auto f = traffic2();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  double prev_acc = 2.0;
  for (double d : {400.0, 900.0, 1400.0, 1900.0}) {
    const auto plan = alloc.plan({d, f.mult}).plan;
    if (plan.mode == ScalingMode::kOverload) break;
    EXPECT_LE(plan.expected_accuracy, prev_acc + 1e-6) << "demand " << d;
    prev_acc = plan.expected_accuracy;
  }
}

TEST(MilpAllocator, MultFactorChangesAllocation) {
  auto f = traffic2();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  auto heavy = f.mult;
  for (auto& r : heavy[0]) r *= 2.0;  // detectors produce twice the objects
  const auto base = alloc.plan({600.0, f.mult}).plan;
  const auto loaded = alloc.plan({600.0, heavy}).plan;
  // Twice the downstream load must cost servers or accuracy.
  EXPECT_TRUE(loaded.servers_used > base.servers_used ||
              loaded.expected_accuracy < base.expected_accuracy - 1e-9);
}

TEST(MilpAllocator, LatencyBudgetsExposedForRuntime) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({300.0, f.mult}).plan;
  for (const auto& ic : plan.instances) {
    const auto it = plan.latency_budget_s.find({ic.task, ic.variant});
    ASSERT_NE(it, plan.latency_budget_s.end());
    const auto& prof = f.profiles[static_cast<std::size_t>(ic.task)]
                                 [static_cast<std::size_t>(ic.variant)];
    EXPECT_NEAR(it->second, 2.0 * prof.latency_for(ic.batch), 1e-9);
  }
}

TEST(MilpAllocator, SolveTimeWithinPaperBudget) {
  // §6.5 reports ~500 ms per Gurobi solve; our full three-step allocation
  // across the split grid should stay in that ballpark.
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const auto plan = alloc.plan({900.0, f.mult}).plan;
  EXPECT_LT(plan.solve_time_s, 2.0 * test::timing_budget_scale());
}

class MilpDemandSweep : public ::testing::TestWithParam<double> {};

TEST_P(MilpDemandSweep, PlansAlwaysValid) {
  auto f = traffic();
  MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  const double d = GetParam();
  const auto plan = alloc.plan({d, f.mult}).plan;
  EXPECT_TRUE(plan.feasible);
  check_plan_validity(f, plan, d);
}

INSTANTIATE_TEST_SUITE_P(Demands, MilpDemandSweep,
                         ::testing::Values(0.0, 10.0, 100.0, 300.0, 600.0,
                                           900.0, 1200.0, 1600.0, 2400.0,
                                           5000.0));

}  // namespace
}  // namespace loki::serving
