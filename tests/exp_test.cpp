// Experiment-driver tests: strategy factory, plan probing, capacity search,
// and a full run_experiment smoke test.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/inferline.hpp"
#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/plan_io.hpp"

namespace loki::exp {
namespace {

TEST(MakeStrategy, AllRegisteredNamesConstructible) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  for (const char* name : {"loki-milp", "inferline", "proteus", "greedy"}) {
    auto s = make_strategy(name, cfg, &graph, profiles);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
}

TEST(ProbePlan, ReportsModeAndTaskAccuracy) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  serving::MilpAllocator alloc(cfg, &graph, profiles);
  const auto low = probe_plan(alloc, graph, 100.0);
  EXPECT_EQ(low.mode, serving::ScalingMode::kHardware);
  ASSERT_EQ(low.task_accuracy.size(), 2u);
  EXPECT_NEAR(low.task_accuracy[0], 1.0, 1e-9);
  EXPECT_NEAR(low.task_accuracy[1], 1.0, 1e-9);

  const auto high = probe_plan(alloc, graph, 1400.0);
  EXPECT_EQ(high.mode, serving::ScalingMode::kAccuracy);
  EXPECT_LT(high.task_accuracy[1], 1.0);  // classification degraded first
}

TEST(FindCapacity, BisectsServableBoundary) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  serving::MilpAllocator alloc(cfg, &graph, profiles);
  const auto mult = pipeline::default_mult_factors(graph);
  const double cap = find_capacity(alloc, 10.0, 20000.0, mult, 20.0);
  EXPECT_GT(cap, 500.0);
  EXPECT_LT(cap, 20000.0);
  // The boundary is genuine: capacity+10% is not servable in full.
  const auto over = probe_plan(alloc, graph, cap * 1.15);
  EXPECT_LT(over.served_fraction, 1.0);
}

TEST(FindCapacity, InferLineCapacityBelowLoki) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  const auto mult = pipeline::default_mult_factors(graph);
  serving::MilpAllocator loki(cfg, &graph, profiles);
  baselines::InferLineStrategy inferline(cfg, &graph, profiles);
  const double cap_loki = find_capacity(loki, 10.0, 20000.0, mult, 20.0);
  const double cap_il = find_capacity(inferline, 10.0, 20000.0, mult, 20.0);
  // The 2.7x-style effective-capacity gain of the paper: at least 2x here.
  EXPECT_GT(cap_loki, cap_il * 2.0);
}

/// Forwards to a strategy, sums what its plans and verdicts cost, and logs
/// each verdict's demand and answer.
class CountingStrategy : public serving::AllocationStrategy {
 public:
  explicit CountingStrategy(serving::AllocationStrategy* inner)
      : inner_(inner) {}
  serving::PlanResult plan(const serving::PlanRequest& request) override {
    serving::PlanResult r = inner_->plan(request);
    ++calls;
    solver += r.solver;
    return r;
  }
  serving::ServiceVerdict serves_demand(
      const serving::PlanRequest& request) override {
    serving::ServiceVerdict v = inner_->serves_demand(request);
    ++calls;
    solver += v.solver;
    verdicts.emplace_back(request.demand_qps, v.served);
    return v;
  }
  std::string name() const override { return inner_->name(); }

  int calls = 0;
  serving::SolverStats solver;
  std::vector<std::pair<double, bool>> verdicts;

 private:
  serving::AllocationStrategy* inner_;
};

// The repository benchmark's capacity probe (benchmark/loki_bench.cpp's
// set-up: traffic-analysis pipeline, the run's profiler, the default mult
// table, bisection over [10, 30000] qps to 10 qps). setup_s times it and
// planned_capacity_qps reports it, so its answer and its solver work are
// pinned exactly on both benchmark cluster sizes.
TEST(FindCapacity, BenchmarkClustersArePinned) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  const profile::ModelProfiler profiler(profile::default_batch_set(),
                                        /*repetitions=*/5,
                                        /*noise_frac=*/0.0, /*seed=*/1);
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);
  struct Case {
    int workers;
    double capacity_qps;
    int calls, lp_iterations, nodes, milp_solves;
  };
  for (const Case& c : {Case{96, 6592.27783203125, 14, 3329, 343, 120},
                        Case{32, 2140.63720703125, 14, 3864, 413, 120}}) {
    SCOPED_TRACE(c.workers);
    serving::AllocatorConfig acfg;
    acfg.cluster_size = c.workers;
    acfg.slo_s = 0.250;
    auto probe = make_strategy("loki-milp", acfg, &graph, profiles);
    CountingStrategy counted(probe.get());
    EXPECT_EQ(find_capacity(counted, 10.0, 30000.0, mult, 10.0),
              c.capacity_qps);
    EXPECT_EQ(counted.calls, c.calls);
    EXPECT_EQ(counted.solver.lp_iterations, c.lp_iterations);
    EXPECT_EQ(counted.solver.nodes_explored, c.nodes);
    EXPECT_EQ(counted.solver.milp_solves, c.milp_solves);
  }
}

// The profiler of the benchmark's capacity probe.
serving::ProfileTable bench_profiles(const pipeline::PipelineGraph& graph) {
  return serving::build_profile_table(
      graph, profile::ModelProfiler(profile::default_batch_set(),
                                    /*repetitions=*/5, /*noise_frac=*/0.0,
                                    /*seed=*/1));
}

bool plan_serves(serving::AllocationStrategy& strategy, double qps,
                 const pipeline::MultFactorTable& mult) {
  return strategy.plan({qps, mult}).plan.served_fraction >= 1.0 - 1e-9;
}

// MilpAllocator's verdict skips the overload step and stops each search at
// its first incumbent; it must still answer exactly what plan() answers.
// On three pipelines, four cluster sizes and three SLOs it is checked at
// every demand the bisection of the benchmark visits and on a 0.5% grid
// within 3% of the capacity, against a second instance that is only asked
// for plans. Then the probed instance plans at the bisection's demands,
// latest first: each plan must equal that instance's bit for bit, work
// included. Consecutive demands differ, so every one of those plans is a
// cold solve, and a verdict that left its model in the epoch caches would
// show as a cheaper first plan.
TEST(FullServiceVerdict, MilpAnswersWhatPlanAnswers) {
  struct Case {
    pipeline::PipelineGraph (*pipeline)();
    int workers;
    double slo_s;
  };
  const Case cases[] = {
      {pipeline::traffic_analysis_pipeline, 96, 0.25},
      {pipeline::traffic_analysis_pipeline, 32, 0.15},
      {pipeline::traffic_analysis_two_task_pipeline, 8, 0.40},
      {pipeline::traffic_analysis_two_task_pipeline, 20, 0.25},
      {pipeline::social_media_pipeline, 20, 0.15},
      {pipeline::social_media_pipeline, 32, 0.40},
  };
  for (const Case& c : cases) {
    const auto graph = c.pipeline();
    SCOPED_TRACE(graph.name() + " on " + std::to_string(c.workers) +
                 " workers, SLO " + std::to_string(c.slo_s));
    const auto profiles = bench_profiles(graph);
    const auto mult = pipeline::default_mult_factors(graph);
    serving::AllocatorConfig acfg;
    acfg.cluster_size = c.workers;
    acfg.slo_s = c.slo_s;
    serving::MilpAllocator probed(acfg, &graph, profiles);
    serving::MilpAllocator reference(acfg, &graph, profiles);
    CountingStrategy counted(&probed);
    const double cap = find_capacity(counted, 10.0, 30000.0, mult, 10.0);
    ASSERT_GT(cap, 10.0);
    ASSERT_LT(cap, 30000.0);

    std::vector<serving::PlanResult> planned;
    for (const auto& [qps, served] : counted.verdicts) {
      planned.push_back(reference.plan({qps, mult}));
      EXPECT_EQ(served, planned.back().plan.served_fraction >= 1.0 - 1e-9)
          << qps << " qps";
    }
    for (std::size_t i = planned.size(); i-- > 0;) {
      const double qps = counted.verdicts[i].first;
      serving::PlanResult r = probed.plan({qps, mult});
      const serving::PlanResult& want = planned[i];
      EXPECT_EQ(r.solver.lp_iterations, want.solver.lp_iterations) << qps;
      EXPECT_EQ(r.solver.nodes_explored, want.solver.nodes_explored) << qps;
      EXPECT_EQ(r.solver.milp_solves, want.solver.milp_solves) << qps;
      r.plan.solve_time_s = want.plan.solve_time_s;
      EXPECT_EQ(serving::plan_to_text(r.plan),
                serving::plan_to_text(want.plan))
          << qps;
    }
    for (int k = -6; k <= 6; ++k) {
      const double qps = cap * (1.0 + 0.005 * k);
      EXPECT_EQ(probed.serves_demand({qps, mult}).served,
                plan_serves(reference, qps, mult))
          << qps << " qps";
    }
  }
}

// The other strategies keep the default verdict, which asks plan().
TEST(FullServiceVerdict, DefaultAsksPlan) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  const auto profiles = bench_profiles(graph);
  const auto mult = pipeline::default_mult_factors(graph);
  serving::AllocatorConfig acfg;
  acfg.cluster_size = 32;
  for (const char* name : {"greedy", "inferline", "proteus"}) {
    SCOPED_TRACE(name);
    auto probed = make_strategy(name, acfg, &graph, profiles);
    auto reference = make_strategy(name, acfg, &graph, profiles);
    CountingStrategy counted(probed.get());
    const double cap = find_capacity(counted, 10.0, 30000.0, mult, 10.0);
    EXPECT_GT(cap, 10.0);
    for (const auto& [qps, served] : counted.verdicts) {
      EXPECT_EQ(served, plan_serves(*reference, qps, mult)) << qps << " qps";
    }
  }
}

TEST(RunExperiment, SmokeAllSystems) {
  const auto graph = pipeline::social_media_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kSine;
  tcfg.duration_s = 30.0;
  tcfg.peak_qps = 200.0;
  const auto curve = trace::generate_trace(tcfg);
  for (const char* system : {"loki-milp", "inferline", "proteus"}) {
    ExperimentConfig cfg;
    cfg.system = system;
    cfg.system_cfg.allocator.cluster_size = 20;
    const auto result = run_experiment(graph, curve, cfg);
    EXPECT_EQ(result.system_name, system);
    EXPECT_GT(result.arrivals, 1000u) << system;
    EXPECT_GE(result.mean_accuracy, 0.5) << system;
    EXPECT_GE(result.allocations, 1) << system;
  }
}

TEST(RunExperiment, MetricsTimeseriesPopulated) {
  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = 40.0;
  tcfg.peak_qps = 150.0;
  const auto curve = trace::generate_trace(tcfg);
  ExperimentConfig cfg;
  cfg.system_cfg.metrics_window_s = 5.0;
  const auto result = run_experiment(graph, curve, cfg);
  EXPECT_GE(result.metrics.demand_series().size(), 7u);
  EXPECT_GE(result.metrics.utilization_series().size(), 30u);
}

// Knobs run_experiment would ignore (the fields it replaces per shard, a
// tier mix next to a replay) and shard counts the cluster cannot hold are
// rejected rather than silently ignored or clamped; the error names the
// knob.

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.system = "greedy";
  cfg.system_cfg.allocator.cluster_size = 8;
  return cfg;
}

trace::DemandCurve small_curve() {
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = 5.0;
  tcfg.peak_qps = 50.0;
  return trace::generate_trace(tcfg);
}

void expect_rejected(const ExperimentConfig& cfg, const std::string& knob) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  try {
    run_experiment(graph, small_curve(), cfg);
    ADD_FAILURE() << "run_experiment accepted an ignored " << knob;
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
        << e.what();
  }
}

TEST(RunExperiment, RejectsSystemCfgRegistry) {
  obs::Registry registry;
  auto cfg = small_config();
  cfg.system_cfg.registry = &registry;
  expect_rejected(cfg, "ExperimentResult::obs");
}

TEST(RunExperiment, RejectsSystemCfgFaultPlan) {
  auto cfg = small_config();
  cfg.system_cfg.fault_plan = fault::crash_plan(1, 2.0, 3.0);
  expect_rejected(cfg, "ExperimentConfig::fault_plan");
}

TEST(RunExperiment, RejectsSystemCfgTiers) {
  auto cfg = small_config();
  cfg.system_cfg.tiers.enabled = true;
  expect_rejected(cfg, "ExperimentConfig::tiers");
}

TEST(RunExperiment, RejectsTierMixWithReplay) {
  auto cfg = small_config();
  cfg.replay.rows.push_back({0.5, 0, 1});
  cfg.tier_mix = {0.2, 0.4, 0.4};
  expect_rejected(cfg, "ExperimentConfig::tier_mix");
}

TEST(RunExperiment, RejectsMoreThreadsThanShards) {
  // A thread runs whole shards: one shard (asked for as 1 or 0) takes at
  // most one thread, and two shards at most two.
  for (const std::size_t shards : {1, 0}) {
    auto cfg = small_config();
    cfg.sim_shards = shards;
    cfg.sim_threads = 2;
    expect_rejected(cfg, "ExperimentConfig::sim_threads");
  }
  auto cfg = small_config();
  cfg.sim_shards = 2;
  cfg.sim_coordinated = true;
  cfg.sim_threads = 3;
  expect_rejected(cfg, "ExperimentConfig::sim_threads");
}

TEST(RunExperiment, RejectsSimCoordinatedUnlessSharded) {
  // Every sharded run is coordinated, and a one-shard run plans for itself:
  // the field must equal sim_shards > 1.
  for (const std::size_t shards : {0, 1}) {
    auto cfg = small_config();
    cfg.sim_shards = shards;
    cfg.sim_coordinated = true;
    expect_rejected(cfg, "ExperimentConfig::sim_coordinated");
  }
  auto cfg = small_config();
  cfg.sim_shards = 2;
  expect_rejected(cfg, "ExperimentConfig::sim_coordinated");
}

TEST(RunExperiment, RejectsMoreShardsThanTheClusterHolds) {
  // Each shard needs one worker per task: two tasks on 3 workers hold one
  // shard, so asking for more is refused rather than clamped, whatever the
  // other sharding knobs say.
  for (const std::size_t shards : {4, 64}) {
    auto cfg = small_config();
    cfg.system_cfg.allocator.cluster_size = 3;
    cfg.sim_shards = shards;
    cfg.sim_coordinated = true;
    cfg.sim_threads = 4;
    expect_rejected(cfg, "ExperimentConfig::sim_shards");
  }
}

TEST(RunExperiment, RejectsNearWarmStartForStrategiesThatIgnoreIt) {
  for (const char* system : {"greedy", "inferline", "proteus"}) {
    auto cfg = small_config();
    cfg.system = system;
    cfg.system_cfg.allocator.near_warm_start = true;
    expect_rejected(cfg, "near_warm_start");
  }
}

TEST(RunExperiment, RejectsControlPeriodsThatNeverAdvance) {
  // A zero, negative or NaN period would re-plan (or roll the metrics) at
  // the same instant forever, at one shard and under the coordinator. The
  // serving systems refuse it when they are built, before anything runs.
  for (const double bad : {0.0, -1.0, std::nan("")}) {
    for (const std::size_t shards : {1, 2}) {
      SCOPED_TRACE(std::to_string(bad) + " at " + std::to_string(shards) +
                   " shard(s)");
      auto rm = small_config();
      rm.sim_shards = shards;
      rm.sim_coordinated = shards > 1;
      rm.system_cfg.rm_period_s = bad;
      expect_rejected(rm, "SystemConfig::rm_period_s");
      auto window = small_config();
      window.sim_shards = shards;
      window.sim_coordinated = shards > 1;
      window.system_cfg.metrics_window_s = bad;
      expect_rejected(window, "SystemConfig::metrics_window_s");
    }
  }
}

TEST(RunExperiment, RejectsTierFieldsWithTiersDisabled) {
  auto watermark = small_config();
  watermark.tiers.depth_watermark = {1e18, 1e18, 1e18};
  expect_rejected(watermark, "ExperimentConfig::tiers.depth_watermark");
  auto remainder = small_config();
  remainder.tiers.remainder_priority = true;
  expect_rejected(remainder, "ExperimentConfig::tiers.remainder_priority");
}

TEST(RunExperiment, FallbackChainReportsTheWrappedStrategy) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  for (const std::size_t shards : {1, 2}) {
    auto cfg = small_config();
    cfg.fallback.enabled = true;
    cfg.sim_shards = shards;
    cfg.sim_coordinated = shards > 1;
    const auto result = run_experiment(graph, small_curve(), cfg);
    EXPECT_EQ(result.system_name, "greedy") << shards << " shards";
  }
}

TEST(BaselinesHeader, IncludedTransitively) {
  // exp_test reaches baselines through experiment.hpp's factory; this
  // guards the public include surface.
  SUCCEED();
}

}  // namespace
}  // namespace loki::exp
