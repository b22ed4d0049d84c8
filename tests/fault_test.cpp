// Fault-subsystem unit tests (ROADMAP item 4): deterministic FaultPlan
// authoring/splitting, the phi-style heartbeat failure detector (lifecycle,
// incarnation fencing, monotonic suspicion), the plan-arming injector, and
// worker-level crash/recover/straggler semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/worker.hpp"
#include "common/check.hpp"
#include "fault/detector.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "profile/zoo.hpp"
#include "sim/simulation.hpp"
#include "tests/test_support.hpp"

namespace loki::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, CrashPlanPairsCrashWithRecovery) {
  const FaultPlan p = crash_plan(3, 10.0, 25.0);
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(p.events[0].worker, 3);
  EXPECT_DOUBLE_EQ(p.events[0].t, 10.0);
  EXPECT_EQ(p.events[1].kind, FaultKind::kRecover);
  EXPECT_DOUBLE_EQ(p.events[1].t, 25.0);
  EXPECT_DOUBLE_EQ(p.last_event_time(), 25.0);
}

TEST(FaultPlan, NoRecoveryWhenRecoverNotAfterCrash) {
  const FaultPlan p = crash_plan(0, 10.0, 10.0);
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].kind, FaultKind::kCrash);
}

TEST(FaultPlan, NormalizeIsStableByTime) {
  FaultPlan p;
  p.events.push_back({5.0, FaultKind::kRecover, 1, 0.0, 0.0});
  p.events.push_back({1.0, FaultKind::kCrash, 1, 0.0, 0.0});
  p.events.push_back({5.0, FaultKind::kCrash, 2, 0.0, 0.0});  // tie with [0]
  p.normalize();
  EXPECT_EQ(p.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(p.events[0].worker, 1);
  // Equal-time events keep authoring order: recover(1) before crash(2).
  EXPECT_EQ(p.events[1].kind, FaultKind::kRecover);
  EXPECT_EQ(p.events[2].worker, 2);
}

TEST(FaultPlan, RandomPlanIsDeterministicUnderSeed) {
  RandomFaultConfig cfg;
  cfg.cluster_size = 8;
  cfg.duration_s = 600.0;
  cfg.crash_rate_per_min = 2.0;
  cfg.straggler_rate_per_min = 1.0;
  const std::uint64_t seed = test::test_seed("fault_random_plan");

  const FaultPlan a = random_plan(cfg, seed);
  const FaultPlan b = random_plan(cfg, seed);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].t, b.events[i].t) << "event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].worker, b.events[i].worker) << "event " << i;
    EXPECT_DOUBLE_EQ(a.events[i].param, b.events[i].param) << "event " << i;
  }
  // Sanity: every event targets a real worker and starts within the run.
  for (const auto& e : a.events) {
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, cfg.cluster_size);
    EXPECT_GE(e.t, 0.0);
  }
  // A different seed produces a different schedule.
  const FaultPlan c = random_plan(cfg, seed + 1);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].t != c.events[i].t ||
              a.events[i].worker != c.events[i].worker;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, SplitBySharesMapsGlobalIdsToShardLocal) {
  // Shares {2, 3}: shard 0 owns global workers [0, 2), shard 1 owns [2, 5).
  FaultPlan p;
  append(p, crash_plan(1, 5.0, 15.0));   // shard 0 local id 1
  append(p, crash_plan(4, 8.0, 0.0));    // shard 1 local id 2
  p.events.push_back({2.0, FaultKind::kNetworkDegradeStart, -1, 0.01, 0.1});
  p.normalize();

  const auto split = split_by_shares(p, {2, 3});
  ASSERT_EQ(split.size(), 2u);

  // Shard 0: network broadcast + crash/recover of local worker 1.
  ASSERT_EQ(split[0].events.size(), 3u);
  EXPECT_EQ(split[0].events[0].kind, FaultKind::kNetworkDegradeStart);
  EXPECT_EQ(split[0].events[0].worker, -1);
  EXPECT_EQ(split[0].events[1].kind, FaultKind::kCrash);
  EXPECT_EQ(split[0].events[1].worker, 1);
  EXPECT_EQ(split[0].events[2].kind, FaultKind::kRecover);

  // Shard 1: network broadcast + crash of local worker 4 - 2 = 2.
  ASSERT_EQ(split[1].events.size(), 2u);
  EXPECT_EQ(split[1].events[1].kind, FaultKind::kCrash);
  EXPECT_EQ(split[1].events[1].worker, 2);
}

TEST(FaultPlan, SplitBySharesRejectsWorkersOutsideTheCluster) {
  // Shares {2, 3} cover global workers [0, 5): id 5 and beyond belong to no
  // shard, whatever the shard count, so the plan is rejected outright.
  EXPECT_THROW(split_by_shares(crash_plan(99, 9.0, 0.0), {2, 3}),
               CheckFailure);
  EXPECT_THROW(split_by_shares(crash_plan(5, 9.0, 0.0), {5}), CheckFailure);
  EXPECT_EQ(split_by_shares(crash_plan(4, 9.0, 0.0), {5})[0].events.size(),
            1u);
}

// ---------------------------------------------------------------------------
// FailureDetector
// ---------------------------------------------------------------------------

DetectorConfig detector_config() {
  DetectorConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(FailureDetector, LifecycleAliveSuspectDeadRecovered) {
  FailureDetector d(detector_config(), 2);
  // Worker 0 reports on time; worker 1 goes silent after t = 1.
  for (double t = 1.0; t <= 8.0; t += 1.0) {
    d.report(0, 0, t);
    if (t <= 1.0) d.report(1, 0, t);
    d.evaluate(t);
  }
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.health(1), WorkerHealth::kDead);
  EXPECT_EQ(d.dead_count(), 1);
  EXPECT_EQ(d.suspect_count(), 0);

  const auto transitions = d.drain_transitions();
  // Worker 1: alive -> suspect (phi crosses 2.5 at t = 4), suspect -> dead
  // (phi crosses 5.5 at t = 7). Worker 0 never transitions.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].worker, 1);
  EXPECT_EQ(transitions[0].from, WorkerHealth::kAlive);
  EXPECT_EQ(transitions[0].to, WorkerHealth::kSuspect);
  EXPECT_DOUBLE_EQ(transitions[0].t, 4.0);
  EXPECT_EQ(transitions[1].to, WorkerHealth::kDead);
  EXPECT_DOUBLE_EQ(transitions[1].t, 7.0);

  // A fresh report (new incarnation) revives the dead worker.
  EXPECT_EQ(d.report(1, 1, 9.0), FailureDetector::ReportResult::kAccepted);
  EXPECT_EQ(d.health(1), WorkerHealth::kAlive);
  EXPECT_EQ(d.dead_count(), 0);
  const auto revived = d.drain_transitions();
  ASSERT_EQ(revived.size(), 1u);
  EXPECT_EQ(revived[0].from, WorkerHealth::kDead);
  EXPECT_EQ(revived[0].to, WorkerHealth::kAlive);
  EXPECT_EQ(revived[0].incarnation, 1);
}

TEST(FailureDetector, StaleIncarnationReportsAreRejected) {
  FailureDetector d(detector_config(), 1);
  EXPECT_EQ(d.report(0, 2, 1.0), FailureDetector::ReportResult::kAccepted);
  EXPECT_EQ(d.incarnation(0), 2);
  // A delayed heartbeat from a previous life must not refresh liveness.
  EXPECT_EQ(d.report(0, 1, 6.0), FailureDetector::ReportResult::kStale);
  d.evaluate(7.0);  // phi = 6 periods since the *accepted* report at t = 1
  EXPECT_EQ(d.health(0), WorkerHealth::kDead);
}

TEST(FailureDetector, SuspectRecoversOnlyViaReport) {
  FailureDetector d(detector_config(), 1);
  d.report(0, 0, 1.0);
  d.evaluate(4.0);  // phi = 3 -> suspect
  EXPECT_EQ(d.health(0), WorkerHealth::kSuspect);
  // Evaluation alone never downgrades suspicion, no matter how it is called.
  d.evaluate(4.0);
  EXPECT_EQ(d.health(0), WorkerHealth::kSuspect);
  d.report(0, 0, 4.5);
  EXPECT_EQ(d.health(0), WorkerHealth::kAlive);
  EXPECT_EQ(d.suspect_count(), 0);
}

TEST(FailureDetector, PhiCountsPeriodsSinceLastAcceptedReport) {
  FailureDetector d(detector_config(), 1);
  d.report(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(d.phi(0, 5.0), 3.0);
}

// ---------------------------------------------------------------------------
// Injector: a plan armed on a simulation fires hooks at exact times in order
// ---------------------------------------------------------------------------

TEST(FaultInjector, ArmedPlanFiresHooksAtExactTimesInOrder) {
  sim::Simulation sim;
  FaultPlan plan;
  plan.events.push_back({1.0, FaultKind::kCrash, 2, 0.0, 0.0});
  plan.events.push_back({2.0, FaultKind::kStragglerStart, 1, 3.0, 0.0});
  plan.events.push_back({3.0, FaultKind::kStragglerEnd, 1, 0.0, 0.0});
  plan.events.push_back({4.0, FaultKind::kNetworkDegradeStart, -1, 0.02, 0.1});
  plan.events.push_back({5.0, FaultKind::kNetworkDegradeEnd, -1, 0.0, 0.0});
  plan.events.push_back({6.0, FaultKind::kHeartbeatLossStart, 0, 0.0, 0.0});
  plan.events.push_back({7.0, FaultKind::kHeartbeatLossEnd, 0, 0.0, 0.0});
  plan.events.push_back({8.0, FaultKind::kRecover, 2, 0.0, 0.0});
  plan.normalize();

  std::vector<std::string> log;
  FaultHooks hooks;
  hooks.crash = [&](int w) {
    log.push_back("crash:" + std::to_string(w) + "@" +
                  std::to_string(sim.now()));
  };
  hooks.recover = [&](int w) { log.push_back("recover:" + std::to_string(w)); };
  hooks.straggler = [&](int w, double m) {
    log.push_back("straggler:" + std::to_string(w) + ":" +
                  std::to_string(m));
  };
  hooks.heartbeat_loss = [&](int w, bool lost) {
    log.push_back("hb:" + std::to_string(w) + ":" + (lost ? "lost" : "back"));
  };
  hooks.network = [&](double delay, double drop) {
    log.push_back("net:" + std::to_string(delay) + ":" +
                  std::to_string(drop));
  };
  arm_fault_plan(&sim, plan, std::move(hooks));
  sim.run_all();

  const std::vector<std::string> want = {
      "crash:2@1.000000",    "straggler:1:3.000000", "straggler:1:1.000000",
      "net:0.020000:0.100000", "net:0.000000:0.000000", "hb:0:lost",
      "hb:0:back",           "recover:2"};
  EXPECT_EQ(log, want);
}

TEST(FaultInjector, EmptyPlanArmsNoEvents) {
  sim::Simulation sim;
  bool fired = false;
  FaultHooks hooks;
  hooks.crash = [&](int) { fired = true; };
  arm_fault_plan(&sim, FaultPlan{}, std::move(hooks));
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// ---------------------------------------------------------------------------
// Worker crash / recover / straggler semantics
// ---------------------------------------------------------------------------

struct WorkerHarness {
  sim::Simulation sim;
  cluster::Worker worker{0, &sim};
  std::vector<cluster::WorkItem> done;
  profile::VariantCatalog catalog = profile::car_classification_catalog();

  WorkerHarness() {
    worker.set_batch_done([this](cluster::Worker&,
                                 std::vector<cluster::WorkItem>& items,
                                 const cluster::Worker::BatchContext&) {
      for (auto& i : items) done.push_back(i);
    });
  }

  cluster::WorkItem item(std::uint64_t id) {
    cluster::WorkItem w;
    w.query_id = id;
    w.task = 0;
    w.deadline = 1e9;
    w.enqueue_time = sim.now();
    return w;
  }
};

TEST(WorkerFault, CrashStrandsQueueAndInflightBatch) {
  WorkerHarness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 1, /*swap_cost=*/false);
  // One item starts executing immediately (batch of 1); three more queue up.
  for (std::uint64_t id = 1; id <= 4; ++id) h.worker.enqueue(h.item(id));
  EXPECT_TRUE(h.worker.busy());

  const auto stranded = h.worker.crash();
  EXPECT_TRUE(h.worker.crashed());
  EXPECT_FALSE(h.worker.active());
  ASSERT_EQ(stranded.size(), 4u);  // 3 queued + 1 in-flight
  // The cancelled batch never completes: batch_items counts the *started*
  // batch (1 item) but the completion callback must never fire.
  h.sim.run_all();
  EXPECT_TRUE(h.done.empty());
  EXPECT_EQ(h.worker.items_executed(), 1u);
}

TEST(WorkerFault, RecoverBumpsIncarnationAndAllowsReassignment) {
  WorkerHarness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 2, false);
  EXPECT_EQ(h.worker.incarnation(), 0);
  (void)h.worker.crash();
  h.worker.recover();
  EXPECT_FALSE(h.worker.crashed());
  EXPECT_EQ(h.worker.incarnation(), 1);
  EXPECT_FALSE(h.worker.active());  // idles until a plan places an instance

  h.worker.assign(0, 0, &h.catalog.at(0), 2, false);
  h.worker.enqueue(h.item(1));
  h.sim.run_all();
  EXPECT_EQ(h.done.size(), 1u);
}

TEST(WorkerFault, StragglerMultiplierScalesBatchesStartedAfterward) {
  WorkerHarness h;
  h.worker.assign(0, 0, &h.catalog.at(0), 1, false);
  const double nominal = h.catalog.at(0).latency.latency_s(1);

  h.worker.enqueue(h.item(1));
  h.sim.run_all();
  EXPECT_NEAR(h.sim.now(), nominal, 1e-12);

  h.worker.set_exec_multiplier(3.0);
  const double t0 = h.sim.now();
  h.worker.enqueue(h.item(2));
  h.sim.run_all();
  EXPECT_NEAR(h.sim.now() - t0, 3.0 * nominal, 1e-9);

  h.worker.set_exec_multiplier(1.0);
  const double t1 = h.sim.now();
  h.worker.enqueue(h.item(3));
  h.sim.run_all();
  EXPECT_NEAR(h.sim.now() - t1, nominal, 1e-12);
}

TEST(WorkerFault, CrashedWorkerRejectsAssignment) {
  WorkerHarness h;
  (void)h.worker.crash();
  EXPECT_THROW(h.worker.assign(0, 0, &h.catalog.at(0), 1, false),
               CheckFailure);
}

}  // namespace
}  // namespace loki::fault
