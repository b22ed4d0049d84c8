// Failure-injection integration suite (ROADMAP item 4):
//
//  1. Injection-off passivity differentials: arming the fault machinery with
//     nothing to do (empty plan + enabled detector, or events past t_end)
//     must leave every simulation metric bit-identical to the default run at
//     one shard and at two, and must only ever *add* zero-valued
//     serving.fault.* series to the obs snapshot.
//  2. The crash -> detect -> re-plan -> recover arc under a pinned seed:
//     detection latency bounded by the phi timeout, the event-driven re-plan
//     fires, stranded queries are shed-by-failure, and the run stays exactly
//     accounted and deterministic.
//  3. Tracer reconciliation at sample period 1: every admitted query flushes
//     exactly once even when its worker dies under it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"

namespace loki {
namespace {

// Fixed literal seeds for the scenarios whose exact outcomes are pinned
// below; every other case derives its seeds from test_seed().
constexpr std::uint64_t kPinnedCurveSeed = 9001;
constexpr std::uint64_t kPinnedArrivalSeed = 9002;

trace::DemandCurve fr_curve(std::uint64_t seed) {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kConstant;
  cfg.duration_s = 60.0;
  // Enough headroom that the quiet greedy run is near-clean: outage damage
  // then shows up unambiguously as extra drops/violations in the crash runs.
  cfg.peak_qps = 40.0;
  cfg.noise_frac = 0.0;
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

trace::DemandCurve fr_curve() {
  return fr_curve(test::test_seed("failure_recovery_curve"));
}

exp::ExperimentConfig fr_config(std::uint64_t arrival_seed) {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";  // fast allocator keeps the suite cheap
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = arrival_seed;
  return cfg;
}

exp::ExperimentConfig fr_config() {
  return fr_config(test::test_seed("failure_recovery_arrivals"));
}

void expect_metrics_bit_identical(const exp::ExperimentResult& a,
                                  const exp::ExperimentResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
  EXPECT_EQ(a.metrics.late(), b.metrics.late());
  EXPECT_EQ(a.metrics.violations(), b.metrics.violations());
  EXPECT_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.mean_servers_used, b.mean_servers_used);
}

/// Armed-but-inert fault config: one crash scheduled far beyond the end of
/// the run (also auto-enables the detector). Nothing ever fires, so the run
/// must be bit-identical to the default.
exp::ExperimentConfig armed_inert(exp::ExperimentConfig cfg) {
  cfg.fault_plan = fault::crash_plan(0, 1e6, 0.0);
  cfg.system_cfg.detector.enabled = true;
  return cfg;
}

/// Every series present in `off` must appear in `armed` with the identical
/// value; series only in `armed` must be zero-valued serving.fault.* ones.
void expect_snapshot_superset(const obs::Snapshot& off,
                              const obs::Snapshot& armed) {
  for (const auto& [name, value] : off.counters) {
    EXPECT_EQ(armed.counter_value(name), value) << "counter " << name;
  }
  for (const auto& h : off.histograms) {
    const auto* ah = armed.find_histogram(h.name);
    ASSERT_NE(ah, nullptr) << "histogram " << h.name;
    EXPECT_EQ(ah->count, h.count) << "histogram " << h.name;
    EXPECT_EQ(ah->sum, h.sum) << "histogram " << h.name;
  }
  for (const auto& [name, value] : armed.counters) {
    if (off.counter_value(name) == value) continue;
    EXPECT_NE(name.find(".fault."), std::string::npos)
        << "unexpected new counter " << name;
    EXPECT_EQ(value, 0u) << "inert fault counter " << name << " moved";
  }
}

TEST(FaultPassivity, ArmedInertSequentialIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  const auto off = exp::run_experiment(graph, curve, fr_config());
  const auto armed = exp::run_experiment(graph, curve, armed_inert(fr_config()));
  expect_metrics_bit_identical(off, armed);
  EXPECT_EQ(off.allocations, armed.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
  // The machinery was armed (series exist) but nothing fired.
  EXPECT_EQ(armed.obs.counter_value("serving.fault.crashes"), 0u);
}

TEST(FaultPassivity, ArmedInertSequentialOnPinnedSeedsIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve(kPinnedCurveSeed);
  const auto cfg = fr_config(kPinnedArrivalSeed);
  const auto off = exp::run_experiment(graph, curve, cfg);
  const auto armed = exp::run_experiment(graph, curve, armed_inert(cfg));
  expect_metrics_bit_identical(off, armed);
  EXPECT_EQ(off.allocations, armed.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
  EXPECT_EQ(armed.obs.counter_value("serving.fault.crashes"), 0u);
}

TEST(FaultPassivity, ArmedInertCoordinatedIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  auto cfg = fr_config();
  cfg.sim_shards = 2;
  cfg.sim_coordinated = true;
  const auto off = exp::run_experiment(graph, curve, cfg);
  const auto armed = exp::run_experiment(graph, curve, armed_inert(cfg));
  expect_metrics_bit_identical(off, armed);
  // Coordinated fault mode plans per *shard* rather than per distinct
  // share (two shards can lose different workers), so the inert run solves
  // K plans per epoch instead of one: allocations scale by K while every
  // installed plan — and therefore every metric — stays identical.
  EXPECT_EQ(armed.allocations, 2 * off.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
}

TEST(FaultPassivity, DefaultSnapshotHasNoFaultSeries) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto off = exp::run_experiment(graph, fr_curve(), fr_config());
  for (const auto& [name, value] : off.obs.counters) {
    EXPECT_EQ(name.find(".fault."), std::string::npos)
        << "default run registered fault series " << name;
  }
}

// ---------------------------------------------------------------------------
// Crash -> detect -> re-plan -> recover
// ---------------------------------------------------------------------------

exp::ExperimentConfig crash_config(exp::ExperimentConfig cfg = fr_config()) {
  // Worker 0 dies at t = 20 and returns at t = 40. Default detector: 1 s
  // heartbeats, dead after phi >= 5.5 periods -> detection ~6 s after the
  // last accepted report.
  cfg.fault_plan = fault::crash_plan(0, 20.0, 40.0);
  return cfg;
}

TEST(FailureRecovery, CrashDetectReplanRecoverUnderPinnedSeed) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  const auto off = exp::run_experiment(graph, curve, fr_config());
  const auto r = exp::run_experiment(graph, curve, crash_config());

  // The full arc is visible in the fault series.
  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.recoveries"), 1u);
  EXPECT_GE(r.obs.counter_value("serving.fault.suspects"), 1u);
  EXPECT_GE(r.obs.counter_value("serving.fault.dead"), 1u);
  EXPECT_GE(r.obs.counter_value("serving.fault.replans"), 1u);

  // Detection latency: bounded by the dead-phi timeout (5.5 periods) plus
  // one heartbeat of quantization, and strictly positive.
  const auto* detect = r.obs.find_histogram("serving.fault.detect_ns");
  ASSERT_NE(detect, nullptr);
  ASSERT_GE(detect->count, 1u);
  EXPECT_GT(detect->mean(), 0.0);
  EXPECT_LE(detect->mean(), 7.0 * 1e9);
  // Recovery time (crash -> detector sees the worker alive again) spans the
  // 20 s outage plus detection/report quantization.
  const auto* recovery = r.obs.find_histogram("serving.fault.recovery_ns");
  ASSERT_NE(recovery, nullptr);
  EXPECT_GE(recovery->count, 1u);

  // The event-driven re-plan produced more allocations than the quiet run.
  EXPECT_GT(r.allocations, off.allocations);

  // Exact accounting always holds; the outage strands real work.
  EXPECT_EQ(r.arrivals, off.arrivals);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  EXPECT_GE(r.metrics.shed_by_failure(), 1u);
  EXPECT_GE(r.drops, off.drops);

  // Recovery is real: the system still completes the overwhelming majority
  // of queries, and the SLO damage is confined to the detection window.
  EXPECT_GE(static_cast<double>(r.metrics.completions()),
            0.9 * static_cast<double>(r.arrivals));
  EXPECT_LT(r.slo_violation_ratio, 0.15);
  EXPECT_GT(r.slo_violation_ratio, off.slo_violation_ratio);
}

TEST(FailureRecovery, PinnedSeedDetectionAndRecoveryTimes) {
  // The simulated detection latency and recovery time of the crash cycle
  // are deterministic, so both histograms are pinned exactly: one crash,
  // detected 5 s after it happened and seen alive again 20 s after it.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto r =
      exp::run_experiment(graph, fr_curve(kPinnedCurveSeed),
                          crash_config(fr_config(kPinnedArrivalSeed)));
  const auto* detect = r.obs.find_histogram("serving.fault.detect_ns");
  const auto* recovery = r.obs.find_histogram("serving.fault.recovery_ns");
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(detect->count, 1u);
  EXPECT_EQ(detect->sum, 5'000'000'000ull);
  EXPECT_EQ(recovery->count, 1u);
  EXPECT_EQ(recovery->sum, 20'000'000'000ull);
}

TEST(FailureRecovery, CrashRunIsDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  const auto a = exp::run_experiment(graph, curve, crash_config());
  const auto b = exp::run_experiment(graph, curve, crash_config());
  expect_metrics_bit_identical(a, b);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.metrics.shed_by_failure(), b.metrics.shed_by_failure());
  EXPECT_EQ(a.obs.counter_value("serving.fault.stranded_dropped"),
            b.obs.counter_value("serving.fault.stranded_dropped"));
  const auto* ha = a.obs.find_histogram("serving.fault.detect_ns");
  const auto* hb = b.obs.find_histogram("serving.fault.detect_ns");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->sum, hb->sum);
}

TEST(FailureRecovery, ShardedAndCoordinatedCrashRunsStayAccounted) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();

  auto cfg = crash_config();
  cfg.sim_shards = 2;
  cfg.sim_coordinated = true;
  const auto r = exp::run_experiment(graph, curve, cfg);
  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.recoveries"), 1u);
  EXPECT_GE(r.obs.counter_value("serving.fault.dead"), 1u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  // The control plane counts the re-plans on the detected death and
  // recovery at two shards as it does at one.
  const auto one = exp::run_experiment(graph, curve, crash_config());
  EXPECT_GE(one.obs.counter_value("serving.fault.replans"), 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.replans"),
            one.obs.counter_value("serving.fault.replans"));
  EXPECT_GE(static_cast<double>(r.metrics.completions()),
            0.85 * static_cast<double>(r.arrivals));

  // Deterministic under repeat.
  const auto r2 = exp::run_experiment(graph, curve, cfg);
  expect_metrics_bit_identical(r, r2);
}

TEST(FailureRecovery, WorkerOutsideTheClusterIsRejectedInEveryMode) {
  // An 8-worker cluster has no worker 8: the plan is refused when the run
  // is built, alike for one shard and for two.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  for (const std::size_t shards : {1, 2}) {
    auto cfg = fr_config();
    cfg.sim_shards = shards;
    cfg.sim_coordinated = shards > 1;
    cfg.fault_plan = fault::crash_plan(8, 10.0, 0.0);
    EXPECT_THROW(exp::run_experiment(graph, curve, cfg), CheckFailure)
        << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Shed accounting + tracer flush-exactly-once when workers die
// ---------------------------------------------------------------------------

TEST(FailureAccounting, StrandedWorkIsShedByFailureNotLost) {
  // Crash with no recovery: the stranded queue must surface as
  // shed-by-failure (stranded_retried + stranded_dropped covers every held
  // item) and the arrivals == completions + drops invariant must reconcile
  // exactly.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  auto cfg = fr_config();
  cfg.fault_plan = fault::crash_plan(1, 30.0, 0.0);  // never recovers
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.recoveries"), 0u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  const std::uint64_t retried =
      r.obs.counter_value("serving.fault.stranded_retried");
  const std::uint64_t stranded_dropped =
      r.obs.counter_value("serving.fault.stranded_dropped");
  EXPECT_GE(retried + stranded_dropped, 1u);  // the worker was mid-work
  // Stranded counters are item-level (a query fans out to one item per
  // pipeline task, and only the first loss cause sticks), so the query-level
  // check is simply that some loss was attributed to the failure.
  EXPECT_GE(r.metrics.shed_by_failure(), 1u);
  EXPECT_LE(r.metrics.shed_by_failure() + r.metrics.shed_by_degraded(),
            r.metrics.shed());
  EXPECT_LE(r.metrics.shed(), r.drops);
}

TEST(FailureAccounting, TracerFlushesExactlyOncePerQueryAtPeriodOne) {
  // Sample every query; kill a worker mid-run without recovery. Every
  // admitted query must flush exactly once — completed or dropped — never
  // twice and never leaked, even when its worker dies with it in flight.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fr_curve();
  auto cfg = fr_config();
  cfg.fault_plan = fault::crash_plan(1, 30.0, 0.0);
  cfg.system_cfg.trace.sample_period = 1;
  const auto r = exp::run_experiment(graph, curve, cfg);

  const std::uint64_t sampled = r.obs.counter_value("serving.trace.sampled");
  const std::uint64_t completed =
      r.obs.counter_value("serving.trace.completed");
  const std::uint64_t dropped = r.obs.counter_value("serving.trace.dropped");
  EXPECT_GT(sampled, 0u);
  EXPECT_EQ(sampled, completed + dropped);
  EXPECT_GE(dropped, 1u);  // the stranded work died with its worker
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
}

}  // namespace
}  // namespace loki
