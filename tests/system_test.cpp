// End-to-end integration tests of the serving runtime: query lifecycle,
// SLO accounting, hardware scale-down, accuracy scaling under pressure,
// drop-policy behaviour, determinism, baseline execution, and the optional
// planes on a directly driven system (no experiment driver).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/inferline.hpp"
#include "baselines/proteus.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/control_plane.hpp"
#include "serving/system.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

namespace loki::serving {
namespace {

/// Plans through a strategy the test owns, so the test can read it after
/// the control plane is done with it.
class Borrowed final : public AllocationStrategy {
 public:
  explicit Borrowed(AllocationStrategy& inner) : inner_(inner) {}
  PlanResult plan(const PlanRequest& request) override {
    return inner_.plan(request);
  }
  std::string name() const override { return inner_.name(); }

 private:
  AllocationStrategy& inner_;
};

/// A one-shard control plane's planner factory that plans with `strategy`.
ControlPlane::PlannerFactory borrow(AllocationStrategy& strategy) {
  return [&strategy](const AllocatorConfig&) {
    return std::make_unique<Borrowed>(strategy);
  };
}

struct Runner {
  pipeline::PipelineGraph graph;
  ProfileTable profiles;
  SystemConfig cfg;

  explicit Runner(pipeline::PipelineGraph g) : graph(std::move(g)) {
    profiles = build_profile_table(graph, profile::ModelProfiler());
    cfg.allocator.cluster_size = 20;
    cfg.allocator.slo_s = 0.250;
  }

  /// Runs `system` under constant demand for `duration` seconds.
  template <typename MakeStrategy>
  Metrics run_constant(double qps, double duration, MakeStrategy&& make,
                       std::uint64_t seed = 1) {
    sim::Simulation sim;
    cfg.seed = seed;
    cfg.metrics_warmup_s = 10.0;  // skip the empty-cluster cold start
    ServingSystem system(&sim, &graph, profiles, cfg);
    ControlPlane control({&system},
                         [&](const AllocatorConfig&) { return make(); });
    control.start();
    trace::DemandCurve curve;
    curve.interval_s = 1.0;
    curve.qps.assign(static_cast<std::size_t>(duration), qps);
    trace::ArrivalConfig acfg;
    acfg.seed = seed + 99;
    trace::ArrivalStream stream(curve, acfg);
    std::function<void()> pump = [&]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
    sim.run_until(duration + 5.0);
    system.finish(duration + 5.0);
    return system.metrics();
  }

  std::unique_ptr<AllocationStrategy> loki() {
    return std::make_unique<MilpAllocator>(cfg.allocator, &graph, profiles);
  }
};

TEST(ServingSystem, LowLoadServesEverythingAtFullAccuracy) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto m = r.run_constant(100.0, 60.0, [&]() { return r.loki(); });
  EXPECT_GT(m.arrivals(), 4000u);
  EXPECT_LT(m.slo_violation_ratio(), 0.02);
  EXPECT_GT(m.mean_accuracy(), 0.995);
  // Hardware scaling: nowhere near the full cluster at this load.
  EXPECT_LT(m.mean_servers_used(), 15.0);
}

TEST(ServingSystem, ZeroLoadIsQuiet) {
  Runner r(pipeline::social_media_pipeline());
  const auto m = r.run_constant(0.0, 20.0, [&]() { return r.loki(); });
  EXPECT_EQ(m.arrivals(), 0u);
  EXPECT_EQ(m.violations(), 0u);
}

TEST(ServingSystem, LatenciesRespectSloAtModerateLoad) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  const auto m = r.run_constant(300.0, 60.0, [&]() { return r.loki(); });
  EXPECT_LT(m.slo_violation_ratio(), 0.03);
  EXPECT_LT(m.mean_latency_s(), r.cfg.allocator.slo_s);
}

TEST(ServingSystem, AccuracyScalingKicksInUnderPressure) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  const auto m = r.run_constant(1400.0, 60.0, [&]() { return r.loki(); });
  // Demand beyond hardware-scaling capacity: accuracy must drop, but the
  // queries should still be served.
  EXPECT_LT(m.mean_accuracy(), 0.999);
  EXPECT_LT(m.slo_violation_ratio(), 0.25);
}

TEST(ServingSystem, ExtremeOverloadShedsButSurvives) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  const auto m = r.run_constant(6000.0, 30.0, [&]() { return r.loki(); });
  EXPECT_GT(m.shed() + m.drops(), 0u);
  EXPECT_GT(m.completions(), 0u);  // still serving the admitted fraction
}

TEST(ServingSystem, DeterministicForSameSeed) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto a = r.run_constant(250.0, 30.0, [&]() { return r.loki(); }, 7);
  const auto b = r.run_constant(250.0, 30.0, [&]() { return r.loki(); }, 7);
  EXPECT_EQ(a.arrivals(), b.arrivals());
  EXPECT_EQ(a.violations(), b.violations());
  EXPECT_EQ(a.completions(), b.completions());
  EXPECT_DOUBLE_EQ(a.mean_accuracy(), b.mean_accuracy());
}

TEST(ServingSystem, SeedChangesArrivals) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto a = r.run_constant(250.0, 30.0, [&]() { return r.loki(); }, 7);
  const auto b = r.run_constant(250.0, 30.0, [&]() { return r.loki(); }, 8);
  EXPECT_NE(a.arrivals(), b.arrivals());
}

TEST(ServingSystem, UtilizationScalesWithDemand) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto low = r.run_constant(60.0, 40.0, [&]() { return r.loki(); });
  const auto high = r.run_constant(500.0, 40.0, [&]() { return r.loki(); });
  EXPECT_LT(low.mean_servers_used() + 2.0, high.mean_servers_used());
}

TEST(ServingSystem, InferLineBaselineRuns) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto m = r.run_constant(150.0, 40.0, [&]() {
    return std::make_unique<baselines::InferLineStrategy>(
        r.cfg.allocator, &r.graph, r.profiles);
  });
  EXPECT_LT(m.slo_violation_ratio(), 0.05);
  EXPECT_GT(m.mean_accuracy(), 0.999);
}

TEST(ServingSystem, ProteusBaselineRunsAndUsesCluster) {
  Runner r(pipeline::traffic_analysis_pipeline());
  const auto m = r.run_constant(150.0, 40.0, [&]() {
    return std::make_unique<baselines::ProteusStrategy>(
        r.cfg.allocator, &r.graph, r.profiles);
  });
  EXPECT_GT(m.completions(), 0u);
  // No hardware scaling: the whole cluster stays on.
  EXPECT_NEAR(m.mean_servers_used(), 20.0, 0.5);
}

TEST(ServingSystem, LokiBeatsInferLineBeyondHardwareCapacity) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  const double overload_qps = 1500.0;
  const auto loki =
      r.run_constant(overload_qps, 45.0, [&]() { return r.loki(); });
  const auto inferline = r.run_constant(overload_qps, 45.0, [&]() {
    return std::make_unique<baselines::InferLineStrategy>(
        r.cfg.allocator, &r.graph, r.profiles);
  });
  EXPECT_LT(loki.slo_violation_ratio() * 2.0,
            inferline.slo_violation_ratio());
}

class DropPolicyCase
    : public ::testing::TestWithParam<DropPolicy> {};

TEST_P(DropPolicyCase, RunsUnderPressure) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  r.cfg.drop_policy = GetParam();
  const auto m = r.run_constant(1400.0, 30.0, [&]() { return r.loki(); });
  EXPECT_GT(m.completions(), 0u);
  EXPECT_LT(m.slo_violation_ratio(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DropPolicyCase,
    ::testing::Values(DropPolicy::kNone, DropPolicy::kLastTask,
                      DropPolicy::kPerTask,
                      DropPolicy::kOpportunisticReroute));

TEST(ServingSystem, RerouteNoWorseThanNoDropping) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  r.cfg.drop_policy = DropPolicy::kNone;
  const auto none = r.run_constant(1500.0, 40.0, [&]() { return r.loki(); });
  r.cfg.drop_policy = DropPolicy::kOpportunisticReroute;
  const auto reroute =
      r.run_constant(1500.0, 40.0, [&]() { return r.loki(); });
  EXPECT_LE(reroute.slo_violation_ratio(),
            none.slo_violation_ratio() + 0.02);
}

TEST(ServingSystem, ExecNoiseStillWithinReason) {
  Runner r(pipeline::traffic_analysis_pipeline());
  r.cfg.exec_noise_frac = 0.05;
  r.cfg.comm_jitter_frac = 0.2;
  const auto m = r.run_constant(200.0, 40.0, [&]() { return r.loki(); });
  EXPECT_LT(m.slo_violation_ratio(), 0.10);
}

TEST(ServingSystem, MultFactorEstimatesConvergeToObserved) {
  Runner r(pipeline::traffic_analysis_two_task_pipeline());
  sim::Simulation sim;
  ServingSystem system(&sim, &r.graph, r.profiles, r.cfg);
  ControlPlane control({&system},
                       [&](const AllocatorConfig&) { return r.loki(); });
  control.start();
  trace::DemandCurve curve;
  curve.interval_s = 1.0;
  curve.qps.assign(40, 200.0);
  trace::ArrivalConfig acfg;
  trace::ArrivalStream stream(curve, acfg);
  std::function<void()> pump = [&]() {
    system.submit();
    const double next = stream.next();
    if (next >= 0.0) sim.schedule_at(next, pump);
  };
  sim.schedule_at(stream.next(), pump);
  sim.run_until(45.0);
  system.finish(45.0);
  // At 200 QPS the plan hosts yolov5x (variant 4): the observed factor for
  // it should hover near the true mean 2.10.
  EXPECT_NEAR(system.mult_estimates()[0][4], 2.10, 0.15);
}

TEST(ServingSystem, StartTwiceForbidden) {
  Runner r(pipeline::social_media_pipeline());
  sim::Simulation sim;
  ServingSystem system(&sim, &r.graph, r.profiles, r.cfg);
  system.start();
  EXPECT_THROW(system.start(), CheckFailure);
}

TEST(ControlPlane, SolveTimeTracked) {
  Runner r(pipeline::social_media_pipeline());
  sim::Simulation sim;
  ServingSystem system(&sim, &r.graph, r.profiles, r.cfg);
  ControlPlane control({&system},
                       [&](const AllocatorConfig&) { return r.loki(); });
  control.start();
  EXPECT_EQ(control.allocations(), 1);
  EXPECT_GT(control.total_solve_time_s(), 0.0);
  EXPECT_EQ(control.name(), "loki-milp");
}

// ---------------------------------------------------------------------------
// Model-swap accounting across plan changes
// ---------------------------------------------------------------------------

/// Returns a fixed sequence of plans (the last one repeats), recording the
/// shape of every request it receives.
class ScriptedStrategy : public AllocationStrategy {
 public:
  explicit ScriptedStrategy(std::vector<AllocationPlan> plans)
      : plans_(std::move(plans)) {}

  PlanResult plan(const PlanRequest& request) override {
    arrival_vector_sizes.push_back(request.task_arrivals_qps.size());
    PlanResult r;
    r.plan = plans_[std::min(next_++, plans_.size() - 1)];
    r.epoch = request.epoch;
    return r;
  }
  std::string name() const override { return "scripted"; }

  std::vector<std::size_t> arrival_vector_sizes;

 private:
  std::vector<AllocationPlan> plans_;
  std::size_t next_ = 0;
};

TEST(ModelSwap, CrossTaskReassignWithSameVariantIndexPaysSwap) {
  // Regression: the rolling-update path (kick_pending_swaps) used to decide
  // "pays swap" by comparing only the variant *index*, so a worker moving
  // from (task 0, variant 0) to (task 1, variant 0) — a different model
  // that absolutely needs loading — swapped for free and was never counted.
  auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto profiles = build_profile_table(graph, profile::ModelProfiler());
  auto mk = [](std::vector<InstanceConfig> instances) {
    AllocationPlan p;
    p.instances = std::move(instances);
    for (const auto& ic : p.instances) p.servers_used += ic.replicas;
    p.feasible = true;
    return p;
  };
  // Epoch 0: two workers on (task 0, variant 0), one on (task 1, variant 0).
  // Epoch 1: task 1 needs a second replica — one task-0 worker must
  // repurpose to (task 1, variant 0): same variant index, different task.
  ScriptedStrategy strategy({mk({{0, 0, 8, 2}, {1, 0, 8, 1}}),
                             mk({{0, 0, 8, 1}, {1, 0, 8, 2}})});
  SystemConfig cfg;
  cfg.allocator.cluster_size = 3;
  cfg.allocator.slo_s = 0.250;
  cfg.realloc_threshold = 0.0;  // re-plan on every period
  sim::Simulation sim;
  ServingSystem system(&sim, &graph, profiles, cfg);
  ControlPlane control({&system}, borrow(strategy));
  control.start();
  sim.run_until(15.0);  // the t = 10 period applies the scripted move
  system.finish(15.0);

  EXPECT_EQ(system.metrics().model_swaps(), 1u);

  // Shape contract (S3): every request carried either no observations or
  // exactly one rate per task — never a truncated vector.
  ASSERT_GE(strategy.arrival_vector_sizes.size(), 2u);
  for (std::size_t n : strategy.arrival_vector_sizes) {
    EXPECT_TRUE(n == 0 ||
                n == static_cast<std::size_t>(graph.num_tasks()));
  }
}

TEST(ModelSwap, SameModelReassignIsFree) {
  // Control for the regression above: a batch-size-only change on the same
  // (task, variant) must not pay load time or count as a swap.
  auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto profiles = build_profile_table(graph, profile::ModelProfiler());
  auto mk = [](std::vector<InstanceConfig> instances) {
    AllocationPlan p;
    p.instances = std::move(instances);
    for (const auto& ic : p.instances) p.servers_used += ic.replicas;
    p.feasible = true;
    return p;
  };
  ScriptedStrategy strategy({mk({{0, 0, 8, 2}, {1, 0, 8, 1}}),
                             mk({{0, 0, 4, 2}, {1, 0, 4, 1}})});
  SystemConfig cfg;
  cfg.allocator.cluster_size = 3;
  cfg.allocator.slo_s = 0.250;
  cfg.realloc_threshold = 0.0;
  sim::Simulation sim;
  ServingSystem system(&sim, &graph, profiles, cfg);
  ControlPlane control({&system}, borrow(strategy));
  control.start();
  sim.run_until(15.0);
  system.finish(15.0);
  EXPECT_EQ(system.metrics().model_swaps(), 0u);
}

// ---------------------------------------------------------------------------
// Optional planes on a directly driven system
// ---------------------------------------------------------------------------

/// Wraps a strategy, recording (sim time, available_workers) per request.
class RecordingStrategy : public AllocationStrategy {
 public:
  explicit RecordingStrategy(AllocationStrategy* inner) : inner_(inner) {}

  PlanResult plan(const PlanRequest& request) override {
    requests.push_back({request.sim_time_s, request.available_workers});
    return inner_->plan(request);
  }
  std::string name() const override { return inner_->name(); }

  std::vector<std::pair<double, int>> requests;

 private:
  AllocationStrategy* inner_;
};

/// A two-task pipeline on six workers with its own registry, fed one
/// arrival every 10 ms until `until`.
struct PlaneRig {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_two_task_pipeline();
  ProfileTable profiles = build_profile_table(graph, profile::ModelProfiler());
  obs::Registry registry;
  SystemConfig cfg;
  sim::Simulation sim;

  PlaneRig() {
    cfg.allocator.cluster_size = 6;
    cfg.allocator.slo_s = 0.250;
    cfg.registry = &registry;
  }

  void feed(ServingSystem& system, double until) {
    for (double t = 0.005; t < until; t += 0.01) {
      sim.schedule_at(t, [&system]() { system.submit(); });
    }
  }
  std::uint64_t counter(const std::string& name) const {
    return registry.snapshot().counter_value("serving." + name);
  }
};

TEST(ServingPlanes, DefaultSystemHasNoFaultPlaneAndNoPlaneSeries) {
  PlaneRig rig;
  GreedyAllocator greedy(rig.cfg.allocator, &rig.graph, rig.profiles);
  ServingSystem system(&rig.sim, &rig.graph, rig.profiles, rig.cfg);
  EXPECT_EQ(system.fault(), nullptr);
  ControlPlane control({&system}, borrow(greedy));
  control.start();
  rig.feed(system, 5.0);
  rig.sim.run_until(6.0);
  system.finish(6.0);
  EXPECT_GT(system.metrics().arrivals(), 0u);
  const obs::Snapshot snap = rig.registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.find(".fault."), std::string::npos) << name;
    EXPECT_EQ(name.find(".degrade."), std::string::npos) << name;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.name.find(".fault."), std::string::npos) << h.name;
  }
}

TEST(FaultPlane, CrashSuspectDeadRetryReplanRecoverWithExactAccounting) {
  // Detector on (1 s heartbeats, suspect after 2.5 missed, dead after 5.5)
  // with no fault plan: the crash and recovery are injected directly.
  // Worker 1 is one of three replicas of the second task and last reports
  // at t = 10. The 8 s SLO keeps the stranded items' deadlines open past
  // detection, so they are retried on the other two replicas.
  PlaneRig rig;
  rig.cfg.detector.enabled = true;
  rig.cfg.allocator.slo_s = 8.0;
  GreedyAllocator greedy(rig.cfg.allocator, &rig.graph, rig.profiles);
  RecordingStrategy strategy(&greedy);
  ServingSystem system(&rig.sim, &rig.graph, rig.profiles, rig.cfg);
  FaultPlane* fault = system.fault();
  ASSERT_NE(fault, nullptr);
  ControlPlane control({&system}, borrow(strategy));
  control.start();
  rig.feed(system, 40.0);
  rig.sim.schedule_at(10.5, [fault]() { fault->inject_worker_crash(1); });
  rig.sim.schedule_at(20.5, [fault]() { fault->inject_worker_recover(1); });
  const auto health = [fault]() { return fault->detector().health(1); };

  // Crashed, not yet suspected: its items are held, routing unchanged.
  rig.sim.run_until(12.9);
  EXPECT_EQ(rig.counter("fault.crashes"), 1u);
  EXPECT_EQ(system.crashed_workers(), 1);
  EXPECT_EQ(health(), fault::WorkerHealth::kAlive);
  EXPECT_EQ(fault->quarantined()[1], 0);

  // Suspect at t = 13 (phi 3): quarantined, nothing resolved yet.
  rig.sim.run_until(13.5);
  EXPECT_EQ(health(), fault::WorkerHealth::kSuspect);
  EXPECT_EQ(rig.counter("fault.suspects"), 1u);
  EXPECT_EQ(fault->quarantined()[1], 1);
  EXPECT_EQ(rig.counter("fault.stranded_retried") +
                rig.counter("fault.stranded_dropped"),
            0u);
  EXPECT_FALSE(fault->replan_pending());

  // Dead at t = 16 (phi 6): the eight stranded items are retried, and a
  // forced re-plan over the five survivors clears degraded mode at once.
  const std::size_t requests_before = strategy.requests.size();
  rig.sim.run_until(16.5);
  EXPECT_EQ(health(), fault::WorkerHealth::kDead);
  EXPECT_EQ(rig.counter("fault.dead"), 1u);
  EXPECT_EQ(fault->detector().dead_count(), 1);
  EXPECT_EQ(rig.counter("fault.stranded_retried"), 8u);
  EXPECT_EQ(rig.counter("fault.stranded_dropped"), 0u);
  EXPECT_EQ(rig.counter("fault.replans"), 1u);
  ASSERT_EQ(strategy.requests.size(), requests_before + 1);
  EXPECT_DOUBLE_EQ(strategy.requests.back().first, 16.0);
  EXPECT_EQ(strategy.requests.back().second, 5);
  EXPECT_FALSE(fault->replan_pending());
  EXPECT_FALSE(fault->degraded());

  // Recovered at t = 20.5, seen alive at the t = 21 heartbeat: released
  // from quarantine and re-planned over the full cluster.
  rig.sim.run_until(21.5);
  EXPECT_EQ(rig.counter("fault.recoveries"), 1u);
  EXPECT_EQ(health(), fault::WorkerHealth::kAlive);
  EXPECT_EQ(system.crashed_workers(), 0);
  EXPECT_EQ(fault->quarantined()[1], 0);
  EXPECT_EQ(rig.counter("fault.replans"), 2u);
  EXPECT_EQ(strategy.requests.back().second, 6);
  const obs::Snapshot snap = rig.registry.snapshot();
  ASSERT_NE(snap.find_histogram("serving.fault.detect_ns"), nullptr);
  EXPECT_EQ(snap.find_histogram("serving.fault.detect_ns")->count, 1u);
  EXPECT_EQ(snap.find_histogram("serving.fault.recovery_ns")->count, 1u);

  rig.sim.run_until(45.0);
  system.finish(45.0);
  const Metrics& m = system.metrics();
  EXPECT_EQ(m.arrivals(), 4000u);
  EXPECT_EQ(m.arrivals(), m.completions() + m.drops());
  for (int k = 0; k < kNumTiers; ++k) {
    EXPECT_EQ(m.tier(k).arrivals, m.tier(k).completions + m.tier(k).drops);
  }
  // The stranded items were resolved exactly once.
  EXPECT_EQ(rig.counter("fault.stranded_retried"), 8u);
  EXPECT_EQ(rig.counter("fault.stranded_dropped"), 0u);
}

TEST(FaultPlane, ReplanWithNoSurvivorsIsSizedAtOneWorkerPerTask) {
  // Every worker crashes at t = 10.5 and is declared dead at t = 16. The
  // forced re-plan then carries zero survivors, which must floor at one
  // worker per task instead of reading as "the full cluster".
  PlaneRig rig;
  rig.cfg.detector.enabled = true;
  GreedyAllocator greedy(rig.cfg.allocator, &rig.graph, rig.profiles);
  RecordingStrategy strategy(&greedy);
  ServingSystem system(&rig.sim, &rig.graph, rig.profiles, rig.cfg);
  FaultPlane* fault = system.fault();
  ASSERT_NE(fault, nullptr);
  ControlPlane control({&system}, borrow(strategy));
  control.start();
  rig.feed(system, 30.0);
  for (int w = 0; w < rig.cfg.allocator.cluster_size; ++w) {
    rig.sim.schedule_at(10.5, [fault, w]() { fault->inject_worker_crash(w); });
  }

  rig.sim.run_until(16.5);
  EXPECT_EQ(fault->detector().dead_count(), rig.cfg.allocator.cluster_size);
  ASSERT_FALSE(strategy.requests.empty());
  EXPECT_DOUBLE_EQ(strategy.requests.back().first, 16.0);
  EXPECT_EQ(strategy.requests.back().second, 0);
  EXPECT_LE(system.current_plan().servers_used, rig.graph.num_tasks());

  rig.sim.run_until(35.0);
  system.finish(35.0);
  const Metrics& m = system.metrics();
  EXPECT_EQ(m.arrivals(), 3000u);
  EXPECT_EQ(m.arrivals(), m.completions() + m.drops());
  for (int k = 0; k < kNumTiers; ++k) {
    EXPECT_EQ(m.tier(k).arrivals, m.tier(k).completions + m.tier(k).drops);
  }
}

TEST(FaultPlane, UnplannedSystemStaysDegradedUntilAPlanIsInstalled) {
  // No control plane: a detected death leaves a re-plan pending and sheds
  // the lost capacity at the frontend until a plan is installed.
  PlaneRig rig;
  rig.cfg.detector.enabled = true;
  GreedyAllocator greedy(rig.cfg.allocator, &rig.graph, rig.profiles);
  ServingSystem system(&rig.sim, &rig.graph, rig.profiles, rig.cfg);
  FaultPlane* fault = system.fault();
  ASSERT_NE(fault, nullptr);
  system.start();
  const auto mult = pipeline::default_mult_factors(rig.graph);
  system.install_plan(greedy.plan(PlanRequest(100.0, mult)).plan);
  const int servers = system.current_plan().servers_used;
  ASSERT_GE(servers, 2);
  rig.feed(system, 10.0);
  rig.sim.schedule_at(0.5, [fault]() { fault->inject_worker_crash(0); });

  rig.sim.run_until(6.5);
  EXPECT_EQ(fault->detector().dead_count(), 1);
  EXPECT_TRUE(fault->replan_pending());
  EXPECT_TRUE(fault->degraded());
  EXPECT_DOUBLE_EQ(fault->shed_fraction(),
                   std::min(0.9, 1.0 / static_cast<double>(servers)));
  EXPECT_EQ(rig.counter("fault.replans"), 0u);

  rig.sim.run_until(8.0);
  EXPECT_GT(rig.counter("fault.degraded_shed"), 0u);
  const std::uint64_t shed_while_degraded = rig.counter("fault.degraded_shed");
  PlanRequest req(100.0, mult);
  req.available_workers = 5;
  system.install_plan(greedy.plan(req).plan);
  EXPECT_FALSE(fault->replan_pending());
  EXPECT_FALSE(fault->degraded());
  EXPECT_EQ(fault->shed_fraction(), 0.0);

  rig.sim.run_until(12.0);
  system.finish(12.0);
  EXPECT_EQ(rig.counter("fault.degraded_shed"), shed_while_degraded);
  const Metrics& m = system.metrics();
  EXPECT_EQ(m.arrivals(), m.completions() + m.drops());
}

}  // namespace
}  // namespace loki::serving
