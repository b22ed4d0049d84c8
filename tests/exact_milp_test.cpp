// Validates the production budget-split allocator against the exact
// linearization of the paper's §4.1 MILP (batch sizes as decision
// variables, big-M path latency constraints). On small instances both
// must agree on feasibility, and the budget-split optimum must come close
// to the exact optimum (the split grid is the only approximation).
#include <gtest/gtest.h>

#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/exact_milp.hpp"

namespace loki::serving {
namespace {

profile::ModelVariant tiny(const std::string& name, double accuracy,
                           double qps_b4, double mult) {
  profile::ModelVariant v;
  v.family = "tiny";
  v.name = name;
  v.accuracy = accuracy;
  v.latency = profile::LatencyModel::from_design_point(qps_b4, 4, 1.6);
  v.mult_factor_mean = mult;
  v.load_time_s = 0.1;
  v.memory_mb = 10.0;
  return v;
}

/// Two-task chain, 2-3 variants each: small enough for the exact MILP.
pipeline::PipelineGraph small_chain() {
  profile::VariantCatalog a("detect");
  a.add(tiny("a-small", 0.85, 120.0, 1.1));
  a.add(tiny("a-big", 1.00, 80.0, 1.4));
  profile::VariantCatalog b("classify");
  b.add(tiny("b-small", 0.80, 200.0, 1.0));
  b.add(tiny("b-mid", 0.92, 120.0, 1.0));
  b.add(tiny("b-big", 1.00, 60.0, 1.0));
  pipeline::PipelineGraph g("small-chain");
  const int t0 = g.add_task("detect", std::move(a));
  const int t1 = g.add_task("classify", std::move(b));
  g.add_edge(t0, t1, 1.0);
  g.validate();
  return g;
}

struct Fixture {
  pipeline::PipelineGraph graph = small_chain();
  ProfileTable profiles;
  pipeline::MultFactorTable mult;
  AllocatorConfig cfg;

  Fixture() {
    // A small batch set keeps the exact model's binary count low.
    profile::ModelProfiler profiler({1, 2, 4, 8}, 1, 0.0, 1);
    profiles = build_profile_table(graph, profiler);
    mult = pipeline::default_mult_factors(graph);
    cfg.cluster_size = 10;
    cfg.slo_s = 0.250;
  }
};

TEST(ExactMilp, HardwareStepMatchesProductionAllocator) {
  Fixture f;
  ExactMilpFormulation exact(f.cfg, &f.graph, f.profiles);
  MilpAllocator production(f.cfg, &f.graph, f.profiles);
  for (double d : {20.0, 60.0, 120.0}) {
    const auto ex = exact.solve_hardware(d, f.mult);
    const auto plan = production.plan({d, f.mult}).plan;
    ASSERT_TRUE(ex.feasible) << "demand " << d;
    ASSERT_EQ(plan.mode, ScalingMode::kHardware) << "demand " << d;
    // The exact model chooses the batch size freely; the split grid can
    // only match or use one more server.
    EXPECT_GE(plan.servers_used, ex.servers_used) << "demand " << d;
    EXPECT_LE(plan.servers_used, ex.servers_used + 1) << "demand " << d;
  }
}

TEST(ExactMilp, AccuracyStepCloseToProductionAllocator) {
  Fixture f;
  ExactMilpFormulation exact(f.cfg, &f.graph, f.profiles);
  MilpAllocator production(f.cfg, &f.graph, f.profiles);
  // Demand beyond the hardware capacity of the 10-server cluster.
  for (double d : {400.0, 550.0}) {
    const auto ex = exact.solve_accuracy(d, f.mult);
    const auto plan = production.plan({d, f.mult}).plan;
    if (!ex.feasible) continue;  // above even exact capacity: skip
    ASSERT_EQ(plan.mode, ScalingMode::kAccuracy) << "demand " << d;
    // Exact optimum bounds the split-grid optimum from above; the gap is
    // the batch-grid discretization and must stay small.
    EXPECT_LE(plan.expected_accuracy, ex.expected_accuracy + 1e-6)
        << "demand " << d;
    EXPECT_GE(plan.expected_accuracy, ex.expected_accuracy - 0.03)
        << "demand " << d;
  }
}

TEST(ExactMilp, InfeasibleWhenDemandExceedsCheapestCapacity) {
  Fixture f;
  ExactMilpFormulation exact(f.cfg, &f.graph, f.profiles);
  const auto ex = exact.solve_accuracy(100000.0, f.mult);
  EXPECT_FALSE(ex.feasible);
  EXPECT_EQ(ex.status, solver::MilpStatus::kInfeasible);
}

TEST(ExactMilp, HardwareInfeasibleTriggersAccuracyRegime) {
  Fixture f;
  ExactMilpFormulation exact(f.cfg, &f.graph, f.profiles);
  // Find a demand where hardware (best variants only) fails but accuracy
  // scaling succeeds — the §4 step-1 -> step-2 transition.
  const auto hw = exact.solve_hardware(450.0, f.mult);
  const auto acc = exact.solve_accuracy(450.0, f.mult);
  EXPECT_FALSE(hw.feasible);
  EXPECT_TRUE(acc.feasible);
  EXPECT_LT(acc.expected_accuracy, 1.0);
}

TEST(ExactMilp, ZeroDemandHostsMinimum) {
  Fixture f;
  ExactMilpFormulation exact(f.cfg, &f.graph, f.profiles);
  const auto ex = exact.solve_hardware(0.0, f.mult);
  ASSERT_TRUE(ex.feasible);
  EXPECT_EQ(ex.servers_used, f.graph.num_tasks());
}

TEST(ExactMilp, MultiSinkTreeSolves) {
  // The traffic tree with full catalogs is too big for big-M; build a
  // 1+2-variant tree instead.
  profile::VariantCatalog root("detect");
  root.add(tiny("r0", 0.9, 100.0, 2.0));
  root.add(tiny("r1", 1.0, 70.0, 2.4));
  profile::VariantCatalog left("cars");
  left.add(tiny("l0", 0.85, 150.0, 1.0));
  left.add(tiny("l1", 1.0, 80.0, 1.0));
  profile::VariantCatalog right("faces");
  right.add(tiny("f0", 0.88, 160.0, 1.0));
  right.add(tiny("f1", 1.0, 90.0, 1.0));
  pipeline::PipelineGraph g("tiny-tree");
  const int t0 = g.add_task("detect", std::move(root));
  const int t1 = g.add_task("cars", std::move(left));
  const int t2 = g.add_task("faces", std::move(right));
  g.add_edge(t0, t1, 0.6);
  g.add_edge(t0, t2, 0.4);
  g.validate();

  AllocatorConfig cfg;
  cfg.cluster_size = 12;
  profile::ModelProfiler profiler({1, 2, 4}, 1, 0.0, 1);
  auto profiles = build_profile_table(g, profiler);
  auto mult = pipeline::default_mult_factors(g);

  ExactMilpFormulation exact(cfg, &g, profiles);
  const auto hw = exact.solve_hardware(50.0, mult);
  ASSERT_TRUE(hw.feasible);
  EXPECT_GE(hw.servers_used, 3);
  EXPECT_LE(hw.servers_used, 12);

  MilpAllocator production(cfg, &g, profiles);
  const auto plan = production.plan({50.0, mult}).plan;
  EXPECT_LE(plan.servers_used, hw.servers_used + 1);
}

}  // namespace
}  // namespace loki::serving
