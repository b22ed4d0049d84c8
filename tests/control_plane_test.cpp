// When a run plans: every plan() call of the pinned runs, by simulated
// instant and control epoch, at one shard and at several. A recording
// strategy registered in the strategy registry wraps the run's planner, so
// the pins read what the planner was asked, not what the driver reports.
// On the runs without the fallback chain the driver's accounting must equal
// the calls made: ExperimentResult::allocations counts them and
// total_solve_time_s sums their plans' solve times in call order. The runs
// with faults also pin each forced re-plan: its instant and the surviving
// worker count it planned for.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "serving/strategy_registry.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki {
namespace {

/// One plan() call as the planner saw it.
struct Call {
  double t;
  int epoch;
  int available_workers;
  double solve_time_s;
};

/// Every call any recording strategy received since the last clear(). A
/// run's planners all run on the driving thread.
std::vector<Call>& calls() {
  static std::vector<Call> log;
  return log;
}

/// Forwards to the registered strategy `inner` and records each call.
class RecordingStrategy final : public serving::AllocationStrategy {
 public:
  RecordingStrategy(std::string name,
                    std::unique_ptr<serving::AllocationStrategy> inner)
      : name_(std::move(name)), inner_(std::move(inner)) {}

  serving::PlanResult plan(const serving::PlanRequest& request) override {
    serving::PlanResult result = inner_->plan(request);
    calls().push_back({request.sim_time_s, request.epoch,
                       request.available_workers, result.plan.solve_time_s});
    return result;
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::unique_ptr<serving::AllocationStrategy> inner_;
};

/// Registers "recording-<inner>" for the greedy and MILP planners and
/// returns the key for `inner`.
std::string recording(const std::string& inner) {
  exp::register_builtin_strategies();
  const std::string key = "recording-" + inner;
  serving::StrategyRegistry::global().add(
      key, [key, inner](const serving::AllocatorConfig& cfg,
                        const pipeline::PipelineGraph* graph,
                        const serving::ProfileTable& profiles) {
        return std::make_unique<RecordingStrategy>(
            key, exp::make_strategy(inner, cfg, graph, profiles));
      });
  return key;
}

/// Runs `cfg` from a clear log.
exp::ExperimentResult run(const trace::DemandCurve& curve,
                          const exp::ExperimentConfig& cfg) {
  calls().clear();
  return exp::run_experiment(pipeline::traffic_analysis_two_task_pipeline(),
                             curve, cfg);
}

struct Instant {
  double t;
  int epoch;
};

void expect_instants(const std::vector<Instant>& want) {
  ASSERT_EQ(calls().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(calls()[i].t, want[i].t) << "call " << i;
    EXPECT_EQ(calls()[i].epoch, want[i].epoch) << "call " << i;
  }
}

/// allocations counts the calls; total_solve_time_s sums their solve times
/// in call order.
void expect_accounting(const exp::ExperimentResult& r) {
  EXPECT_EQ(r.allocations, static_cast<int>(calls().size()));
  double total = 0.0;
  for (const Call& c : calls()) total += c.solve_time_s;
  EXPECT_EQ(r.total_solve_time_s, total);
}

struct Forced {
  double t;
  int available_workers;
};

/// Each forced re-plan is a call at its instant for exactly its surviving
/// worker count; with K shards each forced re-plan makes K calls.
void expect_forced(const std::vector<Forced>& want, std::size_t shards) {
  for (const Forced& f : want) {
    std::size_t found = 0;
    for (const Call& c : calls()) {
      if (c.t == f.t && c.available_workers == f.available_workers) ++found;
    }
    EXPECT_GE(found, 1u) << "no re-plan at t = " << f.t << " for "
                         << f.available_workers << " workers";
    EXPECT_LE(found, shards) << "at t = " << f.t;
  }
}

/// The SequentialGoldens smoke workload (sim_parallel_test).
exp::ExperimentResult run_smoke() {
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 120.0;
  tcfg.seed = test::test_seed("e2e_smoke_curve");
  exp::ExperimentConfig cfg;
  cfg.system = recording("loki-milp");
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("e2e_smoke_arrivals");
  return run(trace::generate_trace(tcfg), cfg);
}

/// The ModeGoldens curve and config (sim_parallel_test's diff_curve and
/// diff_config) with the recording greedy planner.
trace::DemandCurve mode_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kAzureDiurnal;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 120.0;
  cfg.seed = test::test_seed("sim_parallel_curve");
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig mode_config(std::size_t shards) {
  exp::ExperimentConfig cfg;
  cfg.system = recording("greedy");
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("sim_parallel_arrivals");
  cfg.sim_shards = shards;
  cfg.sim_coordinated = shards > 1;
  return cfg;
}

TEST(PlanInstants, SmokeWorkloadAtOneShard) {
  // The period (10 s) and the heartbeat's surge or collapse checks (1 s).
  const auto r = run_smoke();
  EXPECT_EQ(r.arrivals, 3070u);
  expect_instants({{0.0, 0},   {1.0, 1},   {2.0, 2},   {10.0, 3},
                   {14.0, 4},  {20.0, 5},  {21.0, 6},  {23.0, 7},
                   {30.0, 8},  {40.0, 9},  {42.0, 10}, {44.0, 11},
                   {46.0, 12}, {50.0, 13}, {56.0, 14}, {60.0, 15},
                   {62.0, 16}, {64.0, 17}});
  expect_accounting(r);
}

TEST(PlanInstants, TwoEqualShardsPlanOneSliceAtBarriers) {
  const auto r = run(mode_curve(), mode_config(2));
  EXPECT_EQ(r.arrivals, 3180u);
  expect_instants({{0.0, 0},   {1.0, 1},   {20.0, 2},  {24.0, 3},
                   {40.0, 4},  {41.0, 5},  {43.0, 6},  {47.0, 7},
                   {50.0, 8},  {57.0, 9},  {60.0, 10}, {62.0, 11},
                   {64.0, 12}});
  expect_accounting(r);
}

TEST(PlanInstants, ThreeSkewedShardsPlanTwoSlicesPerEpoch) {
  // Shares {4, 3, 3}: one call for the 4-worker slice, then one for the
  // 3-worker slice, each taking the next epoch.
  auto cfg = mode_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  const auto r = run(mode_curve(), cfg);
  EXPECT_EQ(r.arrivals, 3180u);
  expect_instants({{0.0, 0},   {0.0, 1},   {1.0, 2},   {1.0, 3},
                   {20.0, 4},  {20.0, 5},  {24.0, 6},  {24.0, 7},
                   {40.0, 8},  {40.0, 9},  {41.0, 10}, {41.0, 11},
                   {43.0, 12}, {43.0, 13}, {47.0, 14}, {47.0, 15},
                   {50.0, 16}, {50.0, 17}, {57.0, 18}, {57.0, 19},
                   {60.0, 20}, {60.0, 21}, {62.0, 22}, {62.0, 23},
                   {64.0, 24}, {64.0, 25}});
  expect_accounting(r);
}

TEST(PlanInstants, OneShardReplansAtOnceWhenTheDeadSetChanges) {
  // The ModeGoldens run with every plane at one shard: worker 1 crashes at
  // t = 20, is declared dead at the t = 25 heartbeat and is seen alive
  // again at t = 40. Both detector transitions re-plan at once, inside the
  // heartbeat; the t = 40 period, which runs first, keeps its plan.
  trace::QueryReplay replay;
  for (int i = 0; i < 1200; ++i) {
    replay.rows.push_back({static_cast<double>(i) * 0.05, 0, i % 3});
  }
  auto cfg = mode_config(1);
  cfg.replay = replay;
  cfg.tiers.enabled = true;
  cfg.fault_plan = fault::crash_plan(1, 20.0, 40.0);
  cfg.fallback.enabled = true;
  const auto r = run(trace::replay_demand_curve(replay, 1.0), cfg);
  EXPECT_EQ(r.arrivals, 1200u);
  expect_instants({{0.0, 0}, {1.0, 1}, {25.0, 2}, {40.0, 3}, {62.0, 4},
                   {65.0, 5}});
  for (const Call& c : calls()) EXPECT_GE(c.available_workers, 7);
  expect_forced({{25.0, 7}, {40.0, 8}}, 1);
  EXPECT_EQ(r.obs.counter_value("serving.fault.replans"), 2u);
}

TEST(PlanInstants, TwoShardsReplanAtTheBarrierAfterTheDeadSetChanges) {
  // The ModeGoldens run with every plane at two shards: global worker 5
  // (shard 1) crashes at t = 20 and recovers at t = 40. Fault mode plans
  // one slice per shard; shard 0 has no fault plane and plans for its whole
  // share. Each detector transition re-plans both shards at the next
  // barrier, which counts once.
  auto cfg = mode_config(2);
  cfg.tiers.enabled = true;
  cfg.tier_mix = {0.2, 0.4, 0.4};
  cfg.fallback.enabled = true;
  cfg.fault_plan = fault::crash_plan(5, 20.0, 40.0);
  const auto r = run(mode_curve(), cfg);
  EXPECT_EQ(r.arrivals, 3180u);
  expect_instants({{0.0, 0},   {0.0, 1},   {1.0, 2},   {1.0, 3},
                   {20.0, 4},  {20.0, 5},  {24.0, 6},  {24.0, 7},
                   {25.0, 8},  {25.0, 9},  {40.0, 10}, {40.0, 11},
                   {41.0, 12}, {41.0, 13}, {43.0, 14}, {43.0, 15},
                   {47.0, 16}, {47.0, 17}, {50.0, 18}, {50.0, 19},
                   {57.0, 20}, {57.0, 21}, {60.0, 22}, {60.0, 23},
                   {62.0, 24}, {62.0, 25}, {64.0, 26}, {64.0, 27}});
  for (std::size_t i = 0; i < calls().size(); ++i) {
    // Shard 1's slice at t = 25 is the only one planned around a death.
    const bool shard1_at_25 = calls()[i].t == 25.0 && i % 2 == 1;
    EXPECT_EQ(calls()[i].available_workers, shard1_at_25 ? 3 : 4)
        << "call " << i;
  }
  expect_forced({{25.0, 3}, {40.0, 4}}, 2);
  EXPECT_EQ(r.obs.counter_value("serving.fault.replans"), 2u);
}

}  // namespace
}  // namespace loki
