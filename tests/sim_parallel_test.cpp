// Differential suite for the opt-in parallel simulation mode (tentpole 4):
//
//  1. ParallelSimulation primitives: lockstep windows, deterministic
//     cross-shard post merging, conservative-lookahead enforcement.
//  2. Experiment-level differential checks: a K-shard run against the
//     sequential reference — the total arrival count must match *exactly*
//     (round-robin partition of one arrival sequence), aggregate accounting
//     must hold in both modes, and the sharded run must be deterministic.
//  3. Sequential bit-identity goldens: the one-shard path is the
//     bit-reproducible reference, pinned to full-precision metrics captured
//     before the data-plane overhaul (pooled events / indexed heap /
//     SmallFunction callbacks must not perturb a single event ordering).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
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

TEST(ParallelSim, CrossShardPostsArriveAtTargetTime) {
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 2;
  cfg.window_s = 0.25;
  sim::ParallelSimulation psim(cfg);
  double fired_at = -1.0;
  // From shard 0's first window, post into shard 1 beyond the barrier.
  psim.shard(0).schedule_at(0.1, [&]() {
    psim.post(0, 1, 0.6, [&]() { fired_at = psim.shard(1).now(); });
  });
  psim.run_until(1.0);
  EXPECT_DOUBLE_EQ(fired_at, 0.6);
}

TEST(ParallelSim, PostMergeOrderIsDeterministic) {
  // Posts issued from different source shards at equal target times must
  // apply in (t, dst, src, issue-order) order regardless of which shard's
  // window happened to run first. Two runs must agree exactly.
  auto run_once = [](std::vector<int>& order) {
    sim::ParallelSimulation::Config cfg;
    cfg.shards = 2;
    cfg.window_s = 0.25;
    sim::ParallelSimulation psim(cfg);
    for (std::size_t src = 0; src < 2; ++src) {
      psim.shard(src).schedule_at(0.1, [&psim, &order, src]() {
        // Same destination, same time: merge key falls through to (src,
        // issue-order).
        psim.post(src, 0, 0.5,
                  [&order, src]() { order.push_back(static_cast<int>(src)); });
        psim.post(src, 0, 0.5, [&order, src]() {
          order.push_back(10 + static_cast<int>(src));
        });
      });
    }
    psim.run_until(1.0);
  };
  std::vector<int> a, b;
  run_once(a);
  run_once(b);
  const std::vector<int> want = {0, 10, 1, 11};
  EXPECT_EQ(a, want);
  EXPECT_EQ(b, want);
}

TEST(ParallelSim, PostBeforeBarrierIsRejected) {
  // Conservative lookahead: a post targeting a time inside the current
  // window could land in a shard's past. Must fail loudly, not corrupt.
  sim::ParallelSimulation::Config cfg;
  cfg.shards = 1;  // single shard runs inline, so the throw propagates
  cfg.window_s = 0.25;
  sim::ParallelSimulation psim(cfg);
  bool threw = false;
  psim.shard(0).schedule_at(0.05, [&]() {
    try {
      psim.post(0, 0, 0.1, []() {});  // 0.1 < window barrier 0.25
    } catch (const CheckFailure&) {
      threw = true;
    }
  });
  psim.run_until(0.5);
  EXPECT_TRUE(threw);
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
  return cfg;
}

TEST(ParallelExperiment, ShardedRunPreservesArrivalTotalExactly) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto seq = exp::run_experiment(graph, curve, diff_config(1));
  const auto par = exp::run_experiment(graph, curve, diff_config(2));

  // The sharded run round-robins the *same* arrival sequence, so the total
  // is exact, not approximate.
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

  // Metric equivalence: the workload is well inside capacity in both modes
  // (8 workers sequentially, 4+4 sharded), so both must essentially meet
  // the SLO; server usage must be in the same ballpark.
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
  // Plain sharded mode must honour sim_threads (it used to run on the
  // default thread count whatever the config said), and the outcome may not
  // depend on it: every shard replans on its own clock, and the window
  // barriers fix the order in which shard events meet. Four shards on one,
  // two and four worker threads give bit-identical metrics and registry
  // snapshots.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  std::vector<exp::ExperimentResult> runs;
  for (const std::size_t threads : {1, 2, 4}) {
    auto cfg = diff_config(4);
    cfg.sim_threads = threads;
    runs.push_back(exp::run_experiment(graph, curve, cfg));
  }
  const auto& a = runs.front();
  EXPECT_GT(a.arrivals, 0u);
  EXPECT_EQ(a.metrics.completions() + a.drops, a.arrivals);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const auto& b = runs[k];
    SCOPED_TRACE("run " + std::to_string(k));
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

// ---------------------------------------------------------------------------
// Coordinated intra-cluster sharding (one allocator, barrier-pushed plans)
// ---------------------------------------------------------------------------

exp::ExperimentConfig coord_config(std::size_t shards, std::size_t threads) {
  auto cfg = diff_config(shards);
  cfg.sim_coordinated = true;
  cfg.sim_threads = threads;
  return cfg;
}

TEST(CoordinatedExperiment, PreservesArrivalTotalAndAccounting) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto seq = exp::run_experiment(graph, curve, diff_config(1));
  const auto coord = exp::run_experiment(graph, curve, coord_config(2, 0));

  // Same round-robin partition of one arrival sequence as sharded mode:
  // totals match the sequential reference exactly.
  EXPECT_EQ(coord.arrivals, seq.arrivals);
  EXPECT_GT(coord.arrivals, 0u);
  EXPECT_LE(coord.drops, coord.arrivals);
  EXPECT_EQ(coord.metrics.completions() + coord.drops, coord.arrivals);
  EXPECT_GT(coord.allocations, 0);
  // One allocator for the whole cluster: the coordinated run performs far
  // fewer solves than independent-per-shard mode would (K allocators each
  // replanning on their own period), and both modes stay within SLO on this
  // in-capacity workload.
  EXPECT_LE(coord.slo_violation_ratio, 0.05);
  EXPECT_GT(coord.mean_servers_used, 0.0);
}

TEST(CoordinatedExperiment, DeterministicAcrossThreadCounts) {
  // The coordinator runs at window barriers on the driving thread with
  // merged inputs read in shard order; nothing downstream may depend on how
  // the OS scheduled the shard threads. One worker thread vs. two must
  // produce bit-identical metrics.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, coord_config(2, 1));
  const auto b = exp::run_experiment(graph, curve, coord_config(2, 2));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
  EXPECT_EQ(a.metrics.late(), b.metrics.late());
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_servers_used, b.mean_servers_used);
  EXPECT_EQ(a.allocations, b.allocations);
  // total_solve_time_s is wall-clock measured inside the strategy, so it is
  // deliberately not compared (same solves, different host timings).
}

TEST(CoordinatedExperiment, RepeatRunsAreDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto a = exp::run_experiment(graph, curve, coord_config(2, 0));
  const auto b = exp::run_experiment(graph, curve, coord_config(2, 0));

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.allocations, b.allocations);
}

TEST(ParallelExperiment, ShardCountIsClampedToClusterSize) {
  // More shards than the cluster can feed degenerates gracefully: every
  // shard needs at least one worker per task, so a 3-worker cluster on a
  // 2-task pipeline falls back to the sequential path.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();
  auto cfg = diff_config(64);
  cfg.system_cfg.allocator.cluster_size = 3;
  const auto r = exp::run_experiment(graph, curve, cfg);
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
}

TEST(ParallelExperiment, MeanServersUsedIsClusterWide) {
  // The merged servers series sums the shards' heartbeats, and
  // mean_servers_used is its time average in every sharded mode: a plain
  // two-shard run and a coordinated, weighted three-shard run.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();
  auto weighted = coord_config(3, 0);
  weighted.system_cfg.allocator.cluster_size = 10;
  weighted.sim_weighted_split = true;
  for (const auto& cfg : {diff_config(2), weighted}) {
    SCOPED_TRACE(cfg.sim_shards);
    const auto r = exp::run_experiment(graph, curve, cfg);
    EXPECT_DOUBLE_EQ(r.mean_servers_used, r.metrics.servers_series().mean());
  }
}

// ---------------------------------------------------------------------------
// Weighted shard splits (satellite of the observability PR; closes the
// per-shard demand-skew gap of ROADMAP item 2)
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

TEST(WeightedSplit, EqualSharesAreBitIdenticalToRoundRobinSharded) {
  // cluster_size 8 / 2 shards -> shares {4, 4}: the weighted interleave must
  // reduce exactly to round-robin, so the whole run is bit-identical.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto rr = exp::run_experiment(graph, curve, diff_config(2));
  auto wcfg = diff_config(2);
  wcfg.sim_weighted_split = true;
  const auto w = exp::run_experiment(graph, curve, wcfg);

  EXPECT_EQ(w.arrivals, rr.arrivals);
  EXPECT_EQ(w.drops, rr.drops);
  EXPECT_EQ(w.metrics.completions(), rr.metrics.completions());
  EXPECT_EQ(w.metrics.shed(), rr.metrics.shed());
  EXPECT_DOUBLE_EQ(w.slo_violation_ratio, rr.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(w.mean_accuracy, rr.mean_accuracy);
  EXPECT_DOUBLE_EQ(w.mean_latency_s, rr.mean_latency_s);
  EXPECT_DOUBLE_EQ(w.p99_latency_s, rr.p99_latency_s);
  EXPECT_DOUBLE_EQ(w.mean_servers_used, rr.mean_servers_used);
  EXPECT_EQ(w.allocations, rr.allocations);
}

TEST(WeightedSplit, EqualSharesAreBitIdenticalToRoundRobinCoordinated) {
  // Coordinated mode with equal shares: the per-distinct-share planning path
  // collapses to one plan with fraction share/cluster == 1/K (the same exact
  // binary double), so metrics must match the round-robin coordinated run
  // bit for bit.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto rr = exp::run_experiment(graph, curve, coord_config(2, 0));
  auto wcfg = coord_config(2, 0);
  wcfg.sim_weighted_split = true;
  const auto w = exp::run_experiment(graph, curve, wcfg);

  EXPECT_EQ(w.arrivals, rr.arrivals);
  EXPECT_EQ(w.drops, rr.drops);
  EXPECT_EQ(w.metrics.completions(), rr.metrics.completions());
  EXPECT_DOUBLE_EQ(w.slo_violation_ratio, rr.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(w.mean_accuracy, rr.mean_accuracy);
  EXPECT_DOUBLE_EQ(w.mean_latency_s, rr.mean_latency_s);
  EXPECT_DOUBLE_EQ(w.p99_latency_s, rr.p99_latency_s);
  EXPECT_DOUBLE_EQ(w.mean_servers_used, rr.mean_servers_used);
  EXPECT_EQ(w.allocations, rr.allocations);
}

TEST(WeightedSplit, SkewedSharesSplitArrivalsProportionally) {
  // cluster_size 10 / 3 shards -> shares {4, 3, 3}. The weighted partition
  // must preserve the arrival total exactly and hand each shard a share-
  // proportional slice (within one item per shard at every prefix, so
  // exactly within one at the end). Per-shard observed demand is read back
  // from the run's registry snapshot.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(3);
  cfg.system_cfg.allocator.cluster_size = 10;
  cfg.sim_weighted_split = true;
  const auto seqcfg = [&] {
    auto c = cfg;
    c.sim_shards = 1;
    c.sim_weighted_split = false;
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
  // Coordinated + skewed shares: two distinct plan shares (4 and 3) are
  // solved per epoch. Accounting must hold and repeat runs must be
  // bit-identical regardless of worker-thread count.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = coord_config(3, 1);
  cfg.system_cfg.allocator.cluster_size = 10;
  cfg.sim_weighted_split = true;
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
// Barrier re-weighting (sim_reweight, ROADMAP item 4)
// ---------------------------------------------------------------------------

TEST(Reweight, ConstantWeightsAreBitIdenticalSharded) {
  // With no faults the surviving-worker weights never change, so the
  // windowed re-weighting feeder must reproduce the upfront round-robin
  // partition bit for bit (equal shares reduce the interleave to
  // round-robin, and per-arrival scheduling preserves event order).
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto rr = exp::run_experiment(graph, curve, diff_config(2));
  auto rcfg = diff_config(2);
  rcfg.sim_reweight = true;
  const auto rw = exp::run_experiment(graph, curve, rcfg);

  EXPECT_EQ(rw.arrivals, rr.arrivals);
  EXPECT_EQ(rw.drops, rr.drops);
  EXPECT_EQ(rw.metrics.completions(), rr.metrics.completions());
  EXPECT_EQ(rw.metrics.shed(), rr.metrics.shed());
  EXPECT_DOUBLE_EQ(rw.slo_violation_ratio, rr.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(rw.mean_accuracy, rr.mean_accuracy);
  EXPECT_DOUBLE_EQ(rw.mean_latency_s, rr.mean_latency_s);
  EXPECT_DOUBLE_EQ(rw.p99_latency_s, rr.p99_latency_s);
  EXPECT_DOUBLE_EQ(rw.mean_servers_used, rr.mean_servers_used);
  EXPECT_EQ(rw.allocations, rr.allocations);
}

TEST(Reweight, ConstantWeightsAreBitIdenticalCoordinated) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  const auto rr = exp::run_experiment(graph, curve, coord_config(2, 0));
  auto rcfg = coord_config(2, 0);
  rcfg.sim_reweight = true;
  const auto rw = exp::run_experiment(graph, curve, rcfg);

  EXPECT_EQ(rw.arrivals, rr.arrivals);
  EXPECT_EQ(rw.drops, rr.drops);
  EXPECT_EQ(rw.metrics.completions(), rr.metrics.completions());
  EXPECT_DOUBLE_EQ(rw.slo_violation_ratio, rr.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(rw.mean_accuracy, rr.mean_accuracy);
  EXPECT_DOUBLE_EQ(rw.mean_latency_s, rr.mean_latency_s);
  EXPECT_DOUBLE_EQ(rw.p99_latency_s, rr.p99_latency_s);
  EXPECT_DOUBLE_EQ(rw.mean_servers_used, rr.mean_servers_used);
  EXPECT_EQ(rw.allocations, rr.allocations);
}

TEST(Reweight, CoordinatedReweightPlansTheWeightedSlices) {
  // 9 workers over 2 shards: shares {5, 4}. Re-weighting deals by share even
  // without sim_weighted_split, so the coordinator must plan each shard for
  // its share-proportional slice too, not one 1/K floor-share plan.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto rcfg = coord_config(2, 0);
  rcfg.system_cfg.allocator.cluster_size = 9;
  rcfg.sim_reweight = true;
  const auto rw = exp::run_experiment(graph, curve, rcfg);
  auto wcfg = rcfg;
  wcfg.sim_weighted_split = true;
  const auto w = exp::run_experiment(graph, curve, wcfg);

  EXPECT_EQ(rw.arrivals, w.arrivals);
  EXPECT_EQ(rw.drops, w.drops);
  EXPECT_EQ(rw.metrics.completions(), w.metrics.completions());
  EXPECT_DOUBLE_EQ(rw.slo_violation_ratio, w.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(rw.mean_accuracy, w.mean_accuracy);
  EXPECT_DOUBLE_EQ(rw.mean_latency_s, w.mean_latency_s);
  EXPECT_DOUBLE_EQ(rw.p99_latency_s, w.p99_latency_s);
  EXPECT_DOUBLE_EQ(rw.mean_servers_used, w.mean_servers_used);
  EXPECT_EQ(rw.allocations, w.allocations);
  EXPECT_EQ(rw.obs.counter_value("exp.shard0.arrivals"),
            w.obs.counter_value("exp.shard0.arrivals"));
}

TEST(Reweight, CrashShiftsArrivalSplitToSurvivors) {
  // Kill a worker in shard 0 (global id 1, shares {4, 4}) with no recovery:
  // from the next window barrier on, shard 0's weight drops to 3 vs 4, so
  // the surviving shard must end up with strictly more arrivals while the
  // total and the accounting invariant stay exact.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = diff_curve();

  auto cfg = diff_config(2);
  cfg.sim_reweight = true;
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
  // same event sequence. Requires LOKI_MILP_NO_TIME_LIMIT=1 (ctest sets it)
  // so the MILP search is host-speed independent.
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
// Per-mode bit-identity goldens: one pinned run for each way the driver can
// be configured (sequential with every optional plane armed, plain sharded,
// coordinated, coordinated with skewed weighted shares). Differential tests
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

TEST(ModeGoldens, PlainShardedTwoShards) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  expect_golden(exp::run_experiment(graph, diff_curve(), diff_config(2)),
                RunGolden{3180, 38, 3142, 0, 27,
                          {{{3180, 3142, 38, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
                          {1590, 1590},
                          0.011949685534591196, 0.99975047740292777,
                          0.092251549524716508, 0.22941097646271069,
                          4.9846153846153847});
}

TEST(ModeGoldens, CoordinatedTwoShards) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  expect_golden(exp::run_experiment(graph, diff_curve(), coord_config(2, 0)),
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
  auto cfg = coord_config(3, 0);
  cfg.system_cfg.allocator.cluster_size = 10;
  cfg.sim_weighted_split = true;
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

TEST(ModeGoldens, PlainTwoShardsWithEveryPlane) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = diff_config(2);
  arm_every_plane(cfg);
  expect_golden(exp::run_experiment(graph, diff_curve(), cfg),
                RunGolden{3180, 60, 3120, 3, 29,
                          {{{653, 650, 3, 1}, {1201, 1190, 11, 1},
                            {1326, 1280, 46, 1}}},
                          {1590, 1590},
                          0.020125786163522012, 0.99974647435897446,
                          0.090088322508249302, 0.22252470340516892,
                          4.9846153846153847});
}

TEST(ModeGoldens, CoordinatedTwoShardsReweightedWithEveryPlane) {
  // The coordinator must plan in fault mode (one plan per shard, sized for
  // the detected survivors) although only shard 1 is armed, and re-weight
  // the deal toward shard 0 while worker 5 is down.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = coord_config(2, 0);
  cfg.sim_reweight = true;
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
