// Experiment-driver tests: strategy factory, plan probing, capacity search,
// and a full run_experiment smoke test.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "baselines/inferline.hpp"
#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"

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

/// Forwards to a strategy and sums what its plans cost.
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
  std::string name() const override { return inner_->name(); }

  int calls = 0;
  serving::SolverStats solver;

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
  for (const Case& c : {Case{96, 6592.27783203125, 14, 34558, 12874, 216},
                        Case{32, 2140.63720703125, 14, 37750, 13496, 228}}) {
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
// tier mix next to a replay) are rejected rather than silently ignored; the
// error names the knob.

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

TEST(RunExperiment, RejectsSimThreadsWithOneShard) {
  // Two tasks on 8 workers allow four shards; one shard (asked for, or
  // clamped from more than the cluster holds) has no helper to run.
  for (const std::size_t shards : {1, 0}) {
    auto cfg = small_config();
    cfg.sim_shards = shards;
    cfg.sim_threads = 2;
    expect_rejected(cfg, "ExperimentConfig::sim_threads");
  }
  auto cfg = small_config();
  cfg.system_cfg.allocator.cluster_size = 3;  // one shard after the clamp
  cfg.sim_shards = 4;
  cfg.sim_threads = 4;
  expect_rejected(cfg, "ExperimentConfig::sim_threads");
}

TEST(RunExperiment, RejectsShardingKnobsWithOneShard) {
  // One shard (asked for, or clamped from more than the cluster holds)
  // receives every arrival and plans for itself. Pairs of (cluster_size,
  // sim_shards); two tasks on 3 workers leave one shard.
  const std::pair<int, std::size_t> one_shard[] = {{8, 1}, {8, 0}, {3, 4}};
  for (const auto& [workers, shards] : one_shard) {
    auto base = small_config();
    base.system_cfg.allocator.cluster_size = workers;
    base.sim_shards = shards;
    auto coordinated = base;
    coordinated.sim_coordinated = true;
    expect_rejected(coordinated, "ExperimentConfig::sim_coordinated");
    auto weighted = base;
    weighted.sim_weighted_split = true;
    expect_rejected(weighted, "ExperimentConfig::sim_weighted_split");
    auto reweight = base;
    reweight.sim_reweight = true;
    expect_rejected(reweight, "ExperimentConfig::sim_reweight");
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
  for (const bool coordinated : {false, true}) {
    auto cfg = small_config();
    cfg.fallback.enabled = true;
    cfg.sim_shards = 2;
    cfg.sim_coordinated = coordinated;
    const auto result = run_experiment(graph, small_curve(), cfg);
    EXPECT_EQ(result.system_name, "greedy") << coordinated;
  }
}

TEST(BaselinesHeader, IncludedTransitively) {
  // exp_test reaches baselines through experiment.hpp's factory; this
  // guards the public include surface.
  SUCCEED();
}

}  // namespace
}  // namespace loki::exp
