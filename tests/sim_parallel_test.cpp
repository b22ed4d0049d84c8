// Differential suite for the parallel simulation:
//
//  1. ParallelSimulation primitives: lockstep windows, team sizes that
//     leave every shard's events unchanged, shard failures.
//  2. Experiment-level differential checks: a K-shard run against the
//     sequential reference — the total arrival count must match *exactly*
//     (one arrival sequence dealt to the shards), aggregate accounting must
//     hold in both, and the sharded run must be deterministic whatever its
//     thread count.
//  3. Sequential bit-identity goldens: the one-shard path is the
//     bit-reproducible reference, pinned to full-precision metrics captured
//     before the data-plane overhaul (pooled events / indexed heap /
//     SmallFunction callbacks must not perturb a single event ordering).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "sim/parallel.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki {
namespace {

// ---------------------------------------------------------------------------
// ParallelSimulation primitives
// ---------------------------------------------------------------------------

TEST(ParallelSim, SingleShardRunsLikeSequential) {
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 1;
  cfg.window_s = 0.1;
  sim::ParallelSimulation psim(cfg);
  std::vector<int> order;
  psim.shard(0).schedule_at(0.35, [&]() { order.push_back(2); });
  psim.shard(0).schedule_at(0.05, [&]() { order.push_back(1); });
  psim.run_until(1.0);
  EXPECT_DOUBLE_EQ(psim.now(), 1.0);
  EXPECT_DOUBLE_EQ(psim.shard(0).now(), 1.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

/// A shard's event stream that logs every firing.
struct Ticker {
  sim::ParallelSimulation* psim;
  std::vector<std::vector<double>>* log;
  std::size_t shard;
  double period;

  void operator()() const {
    sim::Simulation& s = psim->shard(shard);
    (*log)[shard].push_back(s.now());
    s.schedule_after(period, *this);
  }
};

TEST(ParallelSim, TeamSizeDoesNotChangeAnyShardsEvents) {
  // Five shards over 400 short windows on teams of one to eight threads:
  // counts that do not divide the shard count, and more threads than
  // shards. Whichever team member runs a shard in a window, every shard
  // must fire the same events in the same order.
  constexpr std::size_t kShards = 5;
  constexpr double kWindow = 0.005;
  auto run = [&](std::size_t threads) {
    sim::ParallelSimulation::Config cfg;
    cfg.shards = kShards;
    cfg.window_s = kWindow;
    cfg.threads = threads;
    sim::ParallelSimulation psim(cfg);
    std::vector<std::vector<double>> log(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      const double period = 0.0007 * static_cast<double>(s + 1);
      psim.shard(s).schedule_at(period, Ticker{&psim, &log, s, period});
    }
    psim.run_until(2.0);
    return log;
  };
  const std::vector<std::vector<double>> one = run(1);
  for (const std::vector<double>& shard : one) EXPECT_GT(shard.size(), 500u);
  for (const std::size_t threads : {2, 3, 8}) {
    EXPECT_EQ(run(threads), one) << threads << " threads";
  }
}

TEST(ParallelSim, ShardFailureRethrowsLowestShardAfterEveryShardRan) {
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 4;
  cfg.window_s = 0.25;
  cfg.threads = 2;
  sim::ParallelSimulation psim(cfg);
  std::array<bool, 4> ran{};
  for (std::size_t s = 0; s < 4; ++s) {
    psim.shard(s).schedule_at(0.1, [&ran, s]() {
      ran[s] = true;
      if (s % 2 == 1) throw std::runtime_error("shard " + std::to_string(s));
    });
  }
  try {
    psim.run_until(1.0);
    ADD_FAILURE() << "the shard failure did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
  }
  EXPECT_EQ(ran, (std::array<bool, 4>{true, true, true, true}));
}

// ---------------------------------------------------------------------------
// Experiment-level differential checks (sequential vs. sharded)
// ---------------------------------------------------------------------------

trace::DemandCurve diff_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kAzureDiurnal;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 120.0;
  cfg.seed = test::test_seed("sim_parallel_curve");
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig diff_config(std::size_t shards) {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";  // fast allocator: keeps the differential runs cheap
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("sim_parallel_arrivals");
  cfg.sim_shards = shards;
  cfg.sim_coordinated = shards > 1;
  return cfg;
}

TEST(ParallelExperiment, ShardedRunPreservesArrivalTotalExactly) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto seq = exp::run_experiment(graph, curve, diff_config(1));
  const auto par = exp::run_experiment(graph, curve, diff_config(2));

  // The sharded run deals out the *same* arrival sequence, so the total is
  // exact, not approximate.
  EXPECT_EQ(par.arrivals, seq.arrivals);

  // Both modes satisfy the accounting invariants.
  for (const auto* r : {&seq, &par}) {
    EXPECT_GT(r->arrivals, 0u);
    EXPECT_LE(r->drops, r->arrivals);
    EXPECT_LE(r->metrics.shed(), r->drops);
    EXPECT_EQ(r->metrics.completions() + r->drops, r->arrivals);
    EXPECT_GT(r->mean_latency_s, 0.0);
    EXPECT_GE(r->p99_latency_s, r->mean_latency_s);
    EXPECT_GT(r->allocations, 0);
  }

  // Metric equivalence: the workload is well inside capacity in both runs
  // (8 workers in one cell, or 4+4 planned by one control plane), so both must
  // essentially meet the SLO; server usage must be in the same ballpark.
  EXPECT_LE(seq.slo_violation_ratio, 0.05);
  EXPECT_LE(par.slo_violation_ratio, 0.05);
  EXPECT_GT(par.mean_servers_used, 0.5 * seq.mean_servers_used);
  EXPECT_LT(par.mean_servers_used, 2.0 * seq.mean_servers_used + 1.0);
}

TEST(ParallelExperiment, ShardedRunIsDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, diff_config(2));
  const auto b = exp::run_experiment(graph, curve, diff_config(2));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
}

TEST(ParallelExperiment, ShardedRunIsIndependentOfThreadCount) {
  // A sharded run must honour sim_threads, and the outcome may not depend
  // on it: the control plane plans at window barriers on the driving thread
  // from inputs merged in shard order, and the barriers fix the order in
  // which shard events meet. Two shards on one and two threads, and four
  // shards on one, two and four, give bit-identical metrics and registry
  // snapshots.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  for (const std::size_t shards : {2, 4}) {
    std::vector<exp::ExperimentResult> runs;
    for (const std::size_t threads : {1, 2, 4}) {
      if (threads > shards) continue;  // rejected: a thread runs whole shards
      auto cfg = diff_config(shards);
      cfg.sim_threads = threads;
      runs.push_back(exp::run_experiment(graph, curve, cfg));
    }
    const auto& a = runs.front();
    EXPECT_GT(a.arrivals, 0u);
    EXPECT_EQ(a.metrics.completions() + a.drops, a.arrivals);
    for (std::size_t k = 1; k < runs.size(); ++k) {
      const auto& b = runs[k];
      SCOPED_TRACE(std::to_string(shards) + " shards, run " +
                   std::to_string(k));
      EXPECT_EQ(a.arrivals, b.arrivals);
      EXPECT_EQ(a.drops, b.drops);
      EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
      EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
      EXPECT_EQ(a.metrics.late(), b.metrics.late());
      EXPECT_EQ(a.metrics.violations(), b.metrics.violations());
      EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
      EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy);
      EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
      EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
      EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
      EXPECT_EQ(a.allocations, b.allocations);
      EXPECT_EQ(a.obs.counters, b.obs.counters);
      ASSERT_EQ(a.obs.histograms.size(), b.obs.histograms.size());
      for (std::size_t h = 0; h < a.obs.histograms.size(); ++h) {
        const auto& ha = a.obs.histograms[h];
        const auto& hb = b.obs.histograms[h];
        EXPECT_EQ(ha.name, hb.name);
        EXPECT_EQ(ha.count, hb.count) << ha.name;
        EXPECT_EQ(ha.sum, hb.sum) << ha.name;
        EXPECT_EQ(ha.bucket, hb.bucket) << ha.name;
      }
    }
  }
}

TEST(ParallelExperiment, MeanServersUsedIsClusterWide) {
  // The merged servers series sums the shards' heartbeats, and
  // mean_servers_used is its time average whatever the shares: two equal
  // shards, and three skewed ones.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();
  auto skewed = diff_config(3);
  skewed.system_cfg.allocator.cluster_size = 10;
  for (const auto& cfg : {diff_config(2), skewed}) {
    SCOPED_TRACE(cfg.sim_shards);
    const auto r = exp::run_experiment(graph, curve, cfg);
    EXPECT_DOUBLE_EQ(r.mean_servers_used, r.metrics.servers_series().mean());
  }
}

// ---------------------------------------------------------------------------
// The arrival deal: by surviving worker count, through a weighted interleave
// ---------------------------------------------------------------------------

TEST(WeightedInterleave, EqualWeightsReduceToRoundRobin) {
  exp::WeightedInterleave wi({1.0, 1.0, 1.0});
  for (int j = 0; j < 300; ++j) {
    EXPECT_EQ(wi.next(), static_cast<std::size_t>(j % 3)) << "item " << j;
  }
}

TEST(WeightedInterleave, SkewedWeightsTrackEveryPrefixWithinOneItem) {
  const std::vector<double> w = {4.0, 3.0, 3.0};  // shares of a 10-worker pool
  exp::WeightedInterleave wi(w);
  std::array<double, 3> n{};
  for (int j = 1; j <= 1000; ++j) {
    n[wi.next()] += 1.0;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(n[i], w[i] / 10.0 * j, 1.0)
          << "shard " << i << " after " << j << " items";
    }
  }
}

TEST(WeightedInterleave, DeterministicAcrossInstances) {
  exp::WeightedInterleave a({2.0, 1.0});
  exp::WeightedInterleave b({2.0, 1.0});
  for (int j = 0; j < 200; ++j) EXPECT_EQ(a.next(), b.next());
}

TEST(WeightedSplit, SkewedSharesSplitArrivalsProportionally) {
  // cluster_size 10 / 3 shards -> shares {4, 3, 3}. With no crash the deal
  // must preserve the arrival total exactly and hand each shard a share-
  // proportional slice (within one item per shard at every prefix, so
  // exactly within one at the end). Per-shard observed demand is read back
  // from the run's registry snapshot.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  const auto seqcfg = [&] {
    auto c = cfg;
    c.sim_shards = 1;
    c.sim_coordinated = false;
    return c;
  }();

  const auto seq = exp::run_experiment(graph, curve, seqcfg);
  const auto w = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(w.arrivals, seq.arrivals);
  EXPECT_LE(w.drops, w.arrivals);
  EXPECT_EQ(w.metrics.completions() + w.drops, w.arrivals);
  EXPECT_GT(w.allocations, 0);

  const double total = static_cast<double>(w.arrivals);
  const std::uint64_t s0 = w.obs.counter_value("exp.shard0.arrivals");
  const std::uint64_t s1 = w.obs.counter_value("exp.shard1.arrivals");
  const std::uint64_t s2 = w.obs.counter_value("exp.shard2.arrivals");
  EXPECT_EQ(s0 + s1 + s2, w.arrivals);
  EXPECT_NEAR(static_cast<double>(s0), 0.4 * total, 1.0);
  EXPECT_NEAR(static_cast<double>(s1), 0.3 * total, 1.0);
  EXPECT_NEAR(static_cast<double>(s2), 0.3 * total, 1.0);
  // The skew is real: the 4-worker shard sees strictly more traffic.
  EXPECT_GT(s0, s1);
}

TEST(WeightedSplit, SkewedCoordinatedRunIsDeterministicAndAccounted) {
  // Skewed shares: two distinct plan slices (4 and 3 workers) are solved
  // per epoch. Accounting must hold and repeat runs must be bit-identical
  // regardless of worker-thread count.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  cfg.sim_threads = 1;
  const auto a = exp::run_experiment(graph, curve, cfg);
  cfg.sim_threads = 2;
  const auto b = exp::run_experiment(graph, curve, cfg);

  EXPECT_GT(a.arrivals, 0u);
  EXPECT_EQ(a.metrics.completions() + a.drops, a.arrivals);
  EXPECT_LE(a.slo_violation_ratio, 0.05);

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.obs.counter_value("exp.shard0.arrivals"),
            b.obs.counter_value("exp.shard0.arrivals"));
}

// ---------------------------------------------------------------------------
// Barrier re-weighting: a crash moves the deal to the survivors
// ---------------------------------------------------------------------------

TEST(Reweight, CrashShiftsArrivalSplitToSurvivors) {
  // Kill a worker in shard 0 (global id 1, shares {4, 4}) with no recovery:
  // from the next window barrier on, shard 0's weight drops to 3 vs 4, so
  // the surviving shard must end up with strictly more arrivals while the
  // total and the accounting invariant stay exact.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(2);
  cfg.fault_plan = fault::crash_plan(1, 10.0, 0.0);
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  const std::uint64_t s0 = r.obs.counter_value("exp.shard0.arrivals");
  const std::uint64_t s1 = r.obs.counter_value("exp.shard1.arrivals");
  EXPECT_EQ(s0 + s1, r.arrivals);
  EXPECT_LT(s0, s1);

  // Deterministic under repeat.
  const auto r2 = exp::run_experiment(graph, curve, cfg);
  EXPECT_EQ(r2.obs.counter_value("exp.shard0.arrivals"), s0);
  EXPECT_EQ(r2.drops, r.drops);
  EXPECT_DOUBLE_EQ(r2.mean_latency_s, r.mean_latency_s);
}

// ---------------------------------------------------------------------------
// Sequential bit-identity goldens
// ---------------------------------------------------------------------------

TEST(SequentialGoldens, SmokeWorkloadMetricsAreBitIdentical) {
  // Full-precision goldens for the e2e smoke workload, captured from the
  // pre-overhaul data plane (std::function callbacks, tombstone heap,
  // unordered_map query states). The rebuilt hot path must replay the exact
  // same event sequence.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 120.0;
  tcfg.seed = test::test_seed("e2e_smoke_curve");
  const auto curve = trace::generate_trace(tcfg);

  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("e2e_smoke_arrivals");

  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.arrivals, 3070u);
  EXPECT_EQ(r.drops, 84u);
  EXPECT_EQ(r.metrics.completions(), 2986u);
  EXPECT_EQ(r.metrics.shed(), 18u);
  EXPECT_EQ(r.metrics.late(), 0u);
  EXPECT_EQ(r.metrics.violations(), 84u);
  EXPECT_EQ(r.allocations, 18);
  EXPECT_DOUBLE_EQ(r.slo_violation_ratio, 0.02736156351791531);
  EXPECT_DOUBLE_EQ(r.mean_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_latency_s, 0.098174636698791506);
  EXPECT_DOUBLE_EQ(r.p99_latency_s, 0.23212521921268792);
  EXPECT_DOUBLE_EQ(r.mean_servers_used, 3.9692307692307702);
}

// ---------------------------------------------------------------------------
// Event-core work pins: the number of events a run fires is deterministic
// for a fixed seed and shard count, so these exact counts catch a hot-path
// change that does more (or less) simulation work, independent of the host.
// ---------------------------------------------------------------------------

struct WorkPin {
  std::uint64_t arrivals, forwards, batches, events;
};

void expect_work(const exp::ExperimentResult& r, const WorkPin& pin) {
  EXPECT_EQ(r.arrivals, pin.arrivals);
  EXPECT_EQ(r.metrics.forwards(), pin.forwards);
  EXPECT_EQ(r.obs.counter_value("serving.stage.batches"), pin.batches);
  EXPECT_EQ(r.obs.counter_value("exp.sim.events"), pin.events);
}

/// Events fired from the arrival and hop lanes; no push falls back to the
/// heap, since arrivals are dealt in time order and every hop takes the
/// same comm delay.
void expect_lanes(const exp::ExperimentResult& r, std::uint64_t arrival,
                  std::uint64_t hop) {
  EXPECT_EQ(r.obs.counter_value("exp.sim.lane.arrival.events"), arrival);
  EXPECT_EQ(r.obs.counter_value("exp.sim.lane.hop.events"), hop);
  EXPECT_EQ(r.obs.counter_value("exp.sim.lane.arrival.fallbacks"), 0u);
  EXPECT_EQ(r.obs.counter_value("exp.sim.lane.hop.fallbacks"), 0u);
}

/// The SequentialGoldens smoke workload on `shards` event shards.
exp::ExperimentResult run_smoke_workload(std::size_t shards) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 120.0;
  tcfg.seed = test::test_seed("e2e_smoke_curve");
  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("e2e_smoke_arrivals");
  cfg.sim_shards = shards;
  cfg.sim_coordinated = shards > 1;
  return exp::run_experiment(graph, trace::generate_trace(tcfg), cfg);
}

TEST(EventCoreWork, SmokeWorkloadEventCounts) {
  const auto r = run_smoke_workload(1);
  expect_work(r, {3070, 4176, 4971, 15382});
  expect_lanes(r, 3070, 7228);
}

TEST(EventCoreWork, TwoShardCountsSumOverShards) {
  // Both shards' pumps together fire every arrival of the one global
  // sequence, so the arrival lane's total is the arrival count.
  const auto r = run_smoke_workload(2);
  expect_work(r, {3070, 4318, 5405, 16062});
  expect_lanes(r, 3070, 7383);
}

TEST(EventCoreWork, DiurnalNinetySixWorkersEventCounts) {
  // A short diurnal day on 96 workers of the three-task traffic pipeline:
  // the benchmark's diurnal shape at a twentieth of its length.
  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 30.0;
  tcfg.peak_qps = 5300.0;
  tcfg.seed = 5;
  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 96;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.system_cfg.seed = 11;
  cfg.arrivals.seed = 12;
  const auto r =
      exp::run_experiment(graph, trace::generate_trace(tcfg), cfg);
  expect_work(r, {68567, 96479, 55202, 288293});
  expect_lanes(r, 68567, 163756);
}

TEST(EventCoreWork, SteadyShardedFourCoordinatedShards) {
  // The benchmark's steady-sharded shape at a twentieth of its length:
  // constant demand on 96 workers of the three-task traffic pipeline, four
  // coordinated shards on two threads. Its outcome is pinned as well.
  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = 30.0;
  tcfg.peak_qps = 4600.0;
  tcfg.noise_frac = 0.0;
  tcfg.seed = 5;
  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 96;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.system_cfg.seed = 11;
  cfg.arrivals.seed = 12;
  cfg.sim_shards = 4;
  cfg.sim_coordinated = true;
  cfg.sim_threads = 2;
  const auto r =
      exp::run_experiment(graph, trace::generate_trace(tcfg), cfg);
  expect_work(r, {138078, 278647, 97816, 652674});
  expect_lanes(r, 138078, 416252);
  const std::array<std::uint64_t, 4> shard_arrivals = {34520, 34520, 34519,
                                                       34519};
  for (std::size_t s = 0; s < shard_arrivals.size(); ++s) {
    EXPECT_EQ(r.obs.counter_value("exp.shard" + std::to_string(s) +
                                  ".arrivals"),
              shard_arrivals[s])
        << "shard " << s;
  }
  EXPECT_EQ(r.allocations, 4);
  EXPECT_DOUBLE_EQ(r.slo_violation_ratio, 0.040904416344385061);
  EXPECT_DOUBLE_EQ(r.mean_accuracy, 0.90099872649329515);
  EXPECT_DOUBLE_EQ(r.mean_latency_s, 0.1288174154919145);
  EXPECT_DOUBLE_EQ(r.p99_latency_s, 0.17767803707962962);
  EXPECT_DOUBLE_EQ(r.mean_servers_used, 92.457142857142856);
}

// ---------------------------------------------------------------------------
// Tracer work pins: the tracer samples by pool-handle slot and never draws
// randomness, so the queries it samples and the records it flushes are as
// deterministic as the event counts above. A tracer change that does more
// work per arrival fails here by name, on any host.
// ---------------------------------------------------------------------------

/// Queries sampled, records flushed as completed or dropped, and the
/// samples each serving.lat.* stage histogram took.
struct TracePin {
  std::uint64_t sampled, completed, dropped, per_stage;
};

void expect_trace(const exp::ExperimentResult& r, const TracePin& pin) {
  EXPECT_EQ(r.obs.counter_value("serving.trace.sampled"), pin.sampled);
  EXPECT_EQ(r.obs.counter_value("serving.trace.completed"), pin.completed);
  EXPECT_EQ(r.obs.counter_value("serving.trace.dropped"), pin.dropped);
  const std::string prefix = "serving.lat.";
  std::map<std::string, std::uint64_t> per_stage;
  for (const auto& h : r.obs.histograms) {
    if (h.name.rfind(prefix, 0) == 0) {
      per_stage[h.name.substr(prefix.size())] = h.count;
    }
  }
  std::map<std::string, std::uint64_t> want;
  for (const char* stage :
       {"queue", "batch", "execute", "swap_stall", "comm", "e2e"}) {
    want[stage] = pin.per_stage;
  }
  EXPECT_EQ(per_stage, want);
}

TEST(TracerWork, SmokeWorkloadTraceCounts) {
  const auto r = run_smoke_workload(1);
  expect_trace(r, {91, 83, 8, 91});
}

TEST(TracerWork, DiurnalNinetySixWorkersTraceCounts) {
  // The EventCoreWork 96-worker diurnal run.
  const auto graph = pipeline::traffic_analysis_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 30.0;
  tcfg.peak_qps = 5300.0;
  tcfg.seed = 5;
  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 96;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.system_cfg.seed = 11;
  cfg.arrivals.seed = 12;
  const auto r =
      exp::run_experiment(graph, trace::generate_trace(tcfg), cfg);
  expect_trace(r, {867, 534, 333, 867});
}

// ---------------------------------------------------------------------------
// Per-mode bit-identity goldens: one pinned run for each shape a run can
// take (one shard with every optional plane armed; two equal shards; three
// skewed shares; two shards with every plane armed). Differential tests
// only compare runs against each other; these pin the absolute outcome, so a
// driver change that shifts every mode alike still shows up.
// ---------------------------------------------------------------------------

struct RunGolden {
  std::uint64_t arrivals, drops, completions, shed;
  int allocations;
  // Per tier: arrivals, completions, drops, shed.
  std::array<std::array<std::uint64_t, 4>, serving::kNumTiers> tiers;
  // exp.shard<k>.arrivals for every shard (empty for sequential runs).
  std::vector<std::uint64_t> shard_arrivals;
  double slo_violation_ratio, mean_accuracy, mean_latency_s, p99_latency_s,
      mean_servers_used;
};

void expect_golden(const exp::ExperimentResult& r, const RunGolden& g) {
  EXPECT_EQ(r.arrivals, g.arrivals);
  EXPECT_EQ(r.drops, g.drops);
  EXPECT_EQ(r.metrics.completions(), g.completions);
  EXPECT_EQ(r.metrics.shed(), g.shed);
  EXPECT_EQ(r.allocations, g.allocations);
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const auto& tc = r.metrics.tier(k);
    const auto& want = g.tiers[static_cast<std::size_t>(k)];
    EXPECT_EQ(tc.arrivals, want[0]) << "tier " << k;
    EXPECT_EQ(tc.completions, want[1]) << "tier " << k;
    EXPECT_EQ(tc.drops, want[2]) << "tier " << k;
    EXPECT_EQ(tc.shed, want[3]) << "tier " << k;
  }
  for (std::size_t s = 0; s < g.shard_arrivals.size(); ++s) {
    EXPECT_EQ(r.obs.counter_value("exp.shard" + std::to_string(s) +
                                  ".arrivals"),
              g.shard_arrivals[s])
        << "shard " << s;
  }
  EXPECT_DOUBLE_EQ(r.slo_violation_ratio, g.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(r.mean_accuracy, g.mean_accuracy);
  EXPECT_DOUBLE_EQ(r.mean_latency_s, g.mean_latency_s);
  EXPECT_DOUBLE_EQ(r.p99_latency_s, g.p99_latency_s);
  EXPECT_DOUBLE_EQ(r.mean_servers_used, g.mean_servers_used);
}

TEST(ModeGoldens, SequentialReplayWithFaultsTiersAndFallback) {
  // Grid-aligned replay (t = i * 0.05, so arrivals land exactly on window
  // barriers), tiers cycling 0, 1, 2 with the tier policy on, a crash and
  // recovery of worker 1, and the control-plane fallback chain.
  trace::QueryReplay replay;
  for (int i = 0; i < 1200; ++i) {
    replay.rows.push_back({static_cast<double>(i) * 0.05, 0, i % 3});
  }
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = trace::replay_demand_curve(replay, 1.0);
  auto cfg = diff_config(1);
  cfg.replay = replay;
  cfg.tiers.enabled = true;
  cfg.fault_plan = fault::crash_plan(1, 20.0, 40.0);
  cfg.fallback.enabled = true;
  expect_golden(exp::run_experiment(graph, curve, cfg),
                RunGolden{1200, 86, 1114, 85, 6,
                          {{{400, 369, 31, 30}, {400, 371, 29, 29},
                            {400, 374, 26, 26}}},
                          {},
                          0.072499999999999995, 1.0, 0.083624698756209384,
                          0.19933645183646437, 2.0});
}

TEST(ModeGoldens, CoordinatedTwoShards) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  expect_golden(exp::run_experiment(graph, diff_curve(), diff_config(2)),
                RunGolden{3180, 39, 3141, 0, 13,
                          {{{3180, 3141, 39, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
                          {1590, 1590},
                          0.012264150943396227, 0.99950971028334878,
                          0.092131595595809163, 0.23083910543265201,
                          4.9846153846153847});
}

TEST(ModeGoldens, CoordinatedThreeSkewedWeightedShards) {
  // cluster 10 over 3 shards: shares {4, 3, 3}, dealt by share.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  expect_golden(exp::run_experiment(graph, diff_curve(), cfg),
                RunGolden{3180, 14, 3166, 0, 26,
                          {{{3180, 3166, 14, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
                          {1272, 954, 954},
                          0.0044025157232704401, 1.0, 0.087638297597336073,
                          0.21792781272143846, 6.5538461538461537});
}

/// Arms every optional plane on a sharded config: SLO tiers over a mixed
/// tier stream, the fallback chain, and a crash plus recovery of global
/// worker 5. With shares {4, 4} the crash lands on shard 1 only, so shard 0
/// runs with no fault plane while the run as a whole is in fault mode.
void arm_every_plane(exp::ExperimentConfig& cfg) {
  cfg.tiers.enabled = true;
  cfg.tier_mix = {0.2, 0.4, 0.4};
  cfg.fallback.enabled = true;
  cfg.fault_plan = fault::crash_plan(5, 20.0, 40.0);
}

TEST(ModeGoldens, CoordinatedTwoShardsReweightedWithEveryPlane) {
  // The control plane must plan in fault mode (one plan per shard, sized for
  // the detected survivors) although only shard 1 is armed, and re-weight
  // the deal toward shard 0 while worker 5 is down.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = diff_config(2);
  arm_every_plane(cfg);
  expect_golden(exp::run_experiment(graph, diff_curve(), cfg),
                RunGolden{3180, 35, 3145, 3, 28,
                          {{{653, 651, 2, 1}, {1201, 1195, 6, 1},
                            {1326, 1299, 27, 1}}},
                          {1678, 1502},
                          0.012264150943396227, 0.99951033386327492,
                          0.090561558119771068, 0.21941130548387483,
                          5.046153846153846});
}

}  // namespace
}  // namespace loki
