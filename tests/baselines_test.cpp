// Baseline strategy tests: InferLine-style hardware scaling (fixed
// variants) and Proteus-style pipeline-agnostic accuracy scaling.
#include <gtest/gtest.h>

#include "baselines/inferline.hpp"
#include "baselines/proteus.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"

namespace loki::baselines {
namespace {

struct Fixture {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_pipeline();
  serving::ProfileTable profiles;
  pipeline::MultFactorTable mult;
  serving::AllocatorConfig cfg;

  Fixture() {
    profiles = serving::build_profile_table(graph, profile::ModelProfiler());
    mult = pipeline::default_mult_factors(graph);
    cfg.cluster_size = 20;
  }
};

/// One plan() call with observed per-task arrivals riding in the request.
serving::AllocationPlan plan_with_arrivals(
    serving::AllocationStrategy& s, double demand_qps,
    const pipeline::MultFactorTable& mult,
    std::vector<double> arrivals = {}) {
  serving::PlanRequest req;
  req.demand_qps = demand_qps;
  req.mult = mult;
  req.task_arrivals_qps = std::move(arrivals);
  return s.plan(req).plan;
}

TEST(InferLine, HostsOnlyMostAccurateVariants) {
  Fixture f;
  InferLineStrategy s(f.cfg, &f.graph, f.profiles);
  const auto plan = s.plan({200.0, f.mult}).plan;
  for (const auto& ic : plan.instances) {
    EXPECT_EQ(ic.variant, f.graph.task(ic.task).catalog.most_accurate());
  }
  EXPECT_NEAR(plan.expected_accuracy, 1.0, 1e-12);
}

TEST(InferLine, ScalesServersWithDemand) {
  Fixture f;
  InferLineStrategy s(f.cfg, &f.graph, f.profiles);
  const auto low = s.plan({50.0, f.mult}).plan;
  const auto high = s.plan({400.0, f.mult}).plan;
  EXPECT_LT(low.servers_used, high.servers_used);
  EXPECT_EQ(low.mode, serving::ScalingMode::kHardware);
}

TEST(InferLine, CannotServeBeyondFixedVariantCapacity) {
  Fixture f;
  InferLineStrategy s(f.cfg, &f.graph, f.profiles);
  const auto plan = s.plan({5000.0, f.mult}).plan;
  EXPECT_EQ(plan.mode, serving::ScalingMode::kOverload);
  EXPECT_LT(plan.served_fraction, 1.0);
  // Accuracy never degrades — InferLine has no accuracy scaling.
  EXPECT_NEAR(plan.expected_accuracy, 1.0, 1e-12);
  EXPECT_LE(plan.total_replicas(), f.cfg.cluster_size);
}

TEST(InferLine, RespectsPinnedVariants) {
  Fixture f;
  std::vector<int> pinned{0, 0, 0};  // cheapest everywhere
  InferLineStrategy s(f.cfg, &f.graph, f.profiles, pinned);
  const auto plan = s.plan({200.0, f.mult}).plan;
  for (const auto& ic : plan.instances) {
    EXPECT_EQ(ic.variant, 0);
  }
  EXPECT_LT(plan.expected_accuracy, 1.0);
}

TEST(InferLine, CapacityLowerThanLokiAccuracyScaling) {
  // The core Fig. 5 claim: accuracy scaling extends capacity beyond what
  // hardware scaling with fixed best variants can serve.
  Fixture f;
  InferLineStrategy inferline(f.cfg, &f.graph, f.profiles);
  serving::MilpAllocator loki(f.cfg, &f.graph, f.profiles);
  const double demand = 1200.0;
  const auto il = inferline.plan({demand, f.mult}).plan;
  const auto lk = loki.plan({demand, f.mult}).plan;
  EXPECT_LT(il.served_fraction, 1.0);
  EXPECT_NEAR(lk.served_fraction, 1.0, 1e-9);
}

TEST(Proteus, AlwaysUsesWholeCluster) {
  Fixture f;
  ProteusStrategy s(f.cfg, &f.graph, f.profiles);
  for (double d : {10.0, 200.0, 1500.0}) {
    const auto plan = s.plan({d, f.mult}).plan;
    EXPECT_EQ(plan.servers_used, f.cfg.cluster_size) << "demand " << d;
    EXPECT_EQ(plan.total_replicas(), f.cfg.cluster_size);
  }
}

TEST(Proteus, TracksTaskArrivalsFromPlanRequests) {
  Fixture f;
  ProteusStrategy s(f.cfg, &f.graph, f.profiles);
  plan_with_arrivals(s, 100.0, f.mult, {100.0, 140.0, 70.0});
  EXPECT_NEAR(s.task_demand()[1], 140.0, 1e-9);
  plan_with_arrivals(s, 100.0, f.mult, {100.0, 0.0, 70.0});
  EXPECT_GT(s.task_demand()[1], 0.0);   // EWMA, not instant
  EXPECT_LT(s.task_demand()[1], 140.0);
  // An empty observation vector (nothing seen this epoch) leaves the
  // estimates untouched.
  const double before = s.task_demand()[1];
  plan_with_arrivals(s, 100.0, f.mult);
  EXPECT_DOUBLE_EQ(s.task_demand()[1], before);
}

TEST(Proteus, UnderProvisionsDownstreamBeforeObservation) {
  // Pipeline-agnosticism: before any intermediate demand is observed,
  // Proteus allocates minimal replicas downstream even though the
  // multiplicative factor implies heavy intermediate load — the bottleneck
  // pathology of §2.2.1.
  Fixture f;
  ProteusStrategy s(f.cfg, &f.graph, f.profiles);
  const auto plan = s.plan({400.0, f.mult}).plan;
  int detection_reps = 0, downstream_reps = 0;
  for (const auto& ic : plan.instances) {
    if (ic.task == 0) detection_reps += ic.replicas;
    else downstream_reps += ic.replicas;
  }
  // Downstream gets only the leftover spreading, not load-proportional
  // replicas (with observation, car classification alone would need more
  // than detection).
  EXPECT_GT(detection_reps, 0);
  EXPECT_GT(downstream_reps, 0);
  const auto informed_demand = std::vector<double>{
      400.0, 400.0 * 2.1 * 2.0 / 3.0, 400.0 * 2.1 / 3.0};
  ProteusStrategy informed(f.cfg, &f.graph, f.profiles);
  const auto plan2 =
      plan_with_arrivals(informed, 400.0, f.mult, informed_demand);
  int downstream2 = 0;
  for (const auto& ic : plan2.instances) {
    if (ic.task != 0) downstream2 += ic.replicas;
  }
  EXPECT_GT(downstream2, downstream_reps);
}

TEST(Proteus, DegradesTaskAccuracyUnderPressure) {
  Fixture f;
  ProteusStrategy s(f.cfg, &f.graph, f.profiles);
  // Observed demand that exceeds best-variant capacity.
  const auto plan =
      plan_with_arrivals(s, 900.0, f.mult, {900.0, 1260.0, 630.0});
  EXPECT_LT(plan.expected_accuracy, 1.0);
}

TEST(Proteus, PlansStayWithinCluster) {
  Fixture f;
  ProteusStrategy s(f.cfg, &f.graph, f.profiles);
  const auto plan =
      plan_with_arrivals(s, 5000.0, f.mult, {5000.0, 7000.0, 2000.0});
  EXPECT_LE(plan.total_replicas(), f.cfg.cluster_size);
  EXPECT_LE(plan.served_fraction, 1.0);
}

TEST(Proteus, NamesAndModes) {
  Fixture f;
  ProteusStrategy p(f.cfg, &f.graph, f.profiles);
  InferLineStrategy i(f.cfg, &f.graph, f.profiles);
  EXPECT_EQ(p.name(), "proteus");
  EXPECT_EQ(i.name(), "inferline");
}

}  // namespace
}  // namespace loki::baselines
