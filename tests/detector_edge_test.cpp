// FailureDetector incarnation edge cases (ROADMAP item 4 hardening):
// delayed heartbeats from a previous life arriving *after* recovery, crash
// and recovery colliding on the same timestamp, and the ordering guarantees
// a re-planning consumer relies on when it drains health transitions.
#include <gtest/gtest.h>

#include <vector>

#include "exp/experiment.hpp"
#include "fault/detector.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"

namespace loki::fault {
namespace {

DetectorConfig edge_config() {
  DetectorConfig cfg;
  cfg.enabled = true;
  return cfg;
}

std::vector<HealthTransition> for_worker(std::vector<HealthTransition> all,
                                         int worker) {
  std::vector<HealthTransition> out;
  for (const auto& tr : all) {
    if (tr.worker == worker) out.push_back(tr);
  }
  return out;
}

TEST(DetectorEdges, StaleHeartbeatAfterRecoveryCannotMaskFreshLife) {
  FailureDetector d(edge_config(), 1);
  ASSERT_EQ(d.report(0, 0, 0.0), FailureDetector::ReportResult::kAccepted);
  d.evaluate(3.0);  // phi 3.0 -> suspect
  d.evaluate(6.0);  // phi 6.0 -> dead
  ASSERT_EQ(d.health(0), WorkerHealth::kDead);

  // The worker recovers with a bumped incarnation...
  ASSERT_EQ(d.report(0, 1, 6.5), FailureDetector::ReportResult::kAccepted);
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.incarnation(0), 1);

  // ...and a delayed heartbeat from its previous life arrives afterwards.
  // It must be rejected outright: no state change, no phi re-anchoring.
  EXPECT_EQ(d.report(0, 0, 6.9), FailureDetector::ReportResult::kStale);
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.incarnation(0), 1);
  EXPECT_DOUBLE_EQ(d.phi(0, 7.5), 1.0);  // anchored at the 6.5 report

  // The full arc is visible, in detection order, with the recovery carrying
  // the new incarnation.
  const auto trs = for_worker(d.drain_transitions(), 0);
  ASSERT_EQ(trs.size(), 3u);
  EXPECT_EQ(trs[0].from, WorkerHealth::kAlive);
  EXPECT_EQ(trs[0].to, WorkerHealth::kSuspect);
  EXPECT_EQ(trs[1].from, WorkerHealth::kSuspect);
  EXPECT_EQ(trs[1].to, WorkerHealth::kDead);
  EXPECT_EQ(trs[2].from, WorkerHealth::kDead);
  EXPECT_EQ(trs[2].to, WorkerHealth::kAlive);
  EXPECT_EQ(trs[2].incarnation, 1);
  EXPECT_DOUBLE_EQ(trs[2].t, 6.5);
}

TEST(DetectorEdges, StaleHeartbeatCannotResurrectDeadState) {
  FailureDetector d(edge_config(), 1);
  ASSERT_EQ(d.report(0, 0, 0.0), FailureDetector::ReportResult::kAccepted);
  ASSERT_EQ(d.report(0, 1, 1.0), FailureDetector::ReportResult::kAccepted);
  d.evaluate(7.0);  // inc-1 life went silent at 1.0 -> phi 6.0 -> dead
  ASSERT_EQ(d.health(0), WorkerHealth::kDead);
  ASSERT_EQ(d.dead_count(), 1);

  // A delayed inc-0 heartbeat can never mask the fresh inc-1 failure.
  EXPECT_EQ(d.report(0, 0, 7.1), FailureDetector::ReportResult::kStale);
  EXPECT_EQ(d.health(0), WorkerHealth::kDead);
  EXPECT_EQ(d.dead_count(), 1);
  EXPECT_EQ(d.incarnation(0), 1);
}

TEST(DetectorEdges, RecoveryAtDetectionTimestampLiftsDeathImmediately) {
  // Death declared and recovery reported at the same simulated instant: the
  // lift happens on the report itself — a re-planning consumer that drains
  // transitions afterwards must already see dead_count back at zero, so the
  // plan it installs covers the recovered worker.
  FailureDetector d(edge_config(), 1);
  ASSERT_EQ(d.report(0, 0, 0.0), FailureDetector::ReportResult::kAccepted);
  d.evaluate(11.0);
  ASSERT_EQ(d.health(0), WorkerHealth::kDead);
  ASSERT_EQ(d.dead_count(), 1);

  ASSERT_EQ(d.report(0, 1, 11.0), FailureDetector::ReportResult::kAccepted);
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.dead_count(), 0);

  // Re-scanning at the same instant must not re-kill: phi is anchored to
  // the accepted recovery report.
  d.evaluate(11.0);
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.dead_count(), 0);

  const auto trs = for_worker(d.drain_transitions(), 0);
  ASSERT_EQ(trs.size(), 2u);
  EXPECT_EQ(trs[0].to, WorkerHealth::kDead);
  EXPECT_EQ(trs[1].to, WorkerHealth::kAlive);
  EXPECT_DOUBLE_EQ(trs[0].t, 11.0);
  EXPECT_DOUBLE_EQ(trs[1].t, 11.0);
  EXPECT_EQ(trs[1].incarnation, 1);
}

TEST(DetectorEdges, ScanTransitionsDrainInWorkerIdOrder) {
  // One timeout scan killing several workers queues their transitions in
  // worker-id order — the deterministic order re-planning relies on.
  FailureDetector d(edge_config(), 3);
  for (int w = 0; w < 3; ++w) {
    ASSERT_EQ(d.report(w, 0, 0.0), FailureDetector::ReportResult::kAccepted);
  }
  d.evaluate(10.0);
  const auto trs = d.drain_transitions();
  ASSERT_EQ(trs.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(trs[static_cast<std::size_t>(w)].worker, w);
    EXPECT_EQ(trs[static_cast<std::size_t>(w)].to, WorkerHealth::kDead);
    EXPECT_DOUBLE_EQ(trs[static_cast<std::size_t>(w)].t, 10.0);
  }
  EXPECT_EQ(d.dead_count(), 3);
}

// ---------------------------------------------------------------------------
// Same-timestamp crash + recover through the full serving system
// ---------------------------------------------------------------------------

TEST(DetectorEdges, SameTimestampCrashRecoverStaysAccounted) {
  // Crash and recovery authored at the identical simulated time: normalize()
  // keeps authoring order on ties, so the worker dies and returns (with a
  // bumped incarnation) within one instant. Heartbeats resume before any
  // phi threshold trips, the run stays exactly accounted, and the whole
  // thing is deterministic.
  trace::TraceConfig tc;
  tc.shape = trace::TraceShape::kConstant;
  tc.duration_s = 60.0;
  tc.peak_qps = 40.0;
  tc.noise_frac = 0.0;
  tc.seed = test::test_seed("detector_edge_curve");
  const auto curve = trace::generate_trace(tc);
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();

  exp::ExperimentConfig cfg;
  cfg.system = "greedy";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("detector_edge_arrivals");
  FaultPlan plan;
  plan.events.push_back({30.0, FaultKind::kCrash, 1, 0.0, 0.0});
  plan.events.push_back({30.0, FaultKind::kRecover, 1, 0.0, 0.0});
  cfg.fault_plan = plan;

  const auto r = exp::run_experiment(graph, curve, cfg);
  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.recoveries"), 1u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  // The zero-length outage still strands whatever the worker held, but the
  // system keeps serving essentially cleanly.
  EXPECT_GE(static_cast<double>(r.metrics.completions()),
            0.9 * static_cast<double>(r.arrivals));

  const auto r2 = exp::run_experiment(graph, curve, cfg);
  EXPECT_EQ(r.arrivals, r2.arrivals);
  EXPECT_EQ(r.drops, r2.drops);
  EXPECT_EQ(r.metrics.completions(), r2.metrics.completions());
  EXPECT_EQ(r.metrics.shed(), r2.metrics.shed());
}

}  // namespace
}  // namespace loki::fault
