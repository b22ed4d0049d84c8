// Per-request latency attribution suite (src/obs QueryTracer + the serving
// stage hooks):
//
//  1. Tracer unit behaviour: deterministic slot sampling, period rounding,
//     record accumulation and flush, stale-handle guards.
//  2. The passivity invariant: tracing on vs. off leaves every simulation
//     metric bit-identical, differential-tested at one shard and at two,
//     and on the 96-worker overloaded epoch that bm_obs times.
//  3. End-to-end attribution: stage histograms populate, trace counters
//     reconcile with admissions, and the cluster-wide stage counters both
//     stay monotonic across plan re-installs and match their registry twins.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "exp/experiment.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/control_plane.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "tests/test_support.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

namespace loki {
namespace {

/// HandlePool handle layout: (slot + 1) << 32 | generation.
std::uint64_t make_handle(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
}

// ---------------------------------------------------------------------------
// Tracer unit behaviour
// ---------------------------------------------------------------------------

TEST(QueryTracer, DetachedTracerSamplesNothing) {
  obs::QueryTracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.sampled(make_handle(0, 1)));
  // Hooks on a detached tracer must be harmless no-ops.
  t.on_admit(make_handle(0, 1), 0.0);
  t.on_complete(make_handle(0, 1), 1.0, false);
}

TEST(QueryTracer, SamplePeriodRoundsDownToPowerOfTwo) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 64;
  EXPECT_EQ(obs::QueryTracer(&reg, "a", opt).sample_period(), 64u);
  opt.sample_period = 60;
  EXPECT_EQ(obs::QueryTracer(&reg, "b", opt).sample_period(), 32u);
  opt.sample_period = 1;
  EXPECT_EQ(obs::QueryTracer(&reg, "c", opt).sample_period(), 1u);
  opt.sample_period = 0;
  EXPECT_EQ(obs::QueryTracer(&reg, "d", opt).sample_period(), 1u);
}

TEST(QueryTracer, SamplingIsBySlotNotGeneration) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 4;
  obs::QueryTracer t(&reg, "t", opt);
  for (std::uint32_t slot = 0; slot < 16; ++slot) {
    for (std::uint32_t gen : {1u, 2u, 77u}) {
      EXPECT_EQ(t.sampled(make_handle(slot, gen)), slot % 4 == 0)
          << "slot " << slot << " gen " << gen;
    }
  }
}

TEST(QueryTracer, DisabledTracerSamplesNothing) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.enabled = false;
  obs::QueryTracer t(&reg, "t", opt);
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.sampled(make_handle(0, 1)));
  // And it registers no series.
  EXPECT_EQ(reg.snapshot().counter_value("t.trace.sampled"), 0u);
}

TEST(QueryTracer, RecordAccumulatesAndFlushesToHistograms) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 1;
  obs::QueryTracer t(&reg, "t", opt);

  const std::uint64_t q = make_handle(0, 1);
  t.on_admit(q, 1.0);
  t.add_comm(q, 0.001);
  t.add_wait(q, 0.010, 0.002, 0.003);
  t.add_wait(q, 0.010, 0.000, 0.000);  // second worker visit accumulates
  t.add_execute(q, 0.050);
  t.on_complete(q, 1.1, false);

  const auto snap = reg.snapshot();
  const auto expect_hist = [&](const std::string& name, std::uint64_t sum_ns) {
    const obs::HistogramStats* s = snap.find_histogram(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->count, 1u) << name;
    EXPECT_EQ(s->sum, sum_ns) << name;
  };
  expect_hist("t.lat.queue", 20000000u);
  expect_hist("t.lat.batch", 2000000u);
  expect_hist("t.lat.execute", 50000000u);
  expect_hist("t.lat.swap_stall", 3000000u);
  expect_hist("t.lat.comm", 1000000u);
  expect_hist("t.lat.e2e", 100000000u);
  EXPECT_EQ(snap.counter_value("t.trace.sampled"), 1u);
  EXPECT_EQ(snap.counter_value("t.trace.completed"), 1u);
  EXPECT_EQ(snap.counter_value("t.trace.dropped"), 0u);
}

TEST(QueryTracer, DroppedQueriesCountSeparately) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 1;
  obs::QueryTracer t(&reg, "t", opt);
  const std::uint64_t q = make_handle(0, 1);
  t.on_admit(q, 0.0);
  t.on_complete(q, 0.2, /*dropped=*/true);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("t.trace.dropped"), 1u);
  EXPECT_EQ(snap.counter_value("t.trace.completed"), 0u);
  // Dropped queries still flush their partial attribution.
  const obs::HistogramStats* e2e = snap.find_histogram("t.lat.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 1u);
}

TEST(QueryTracer, StaleHandlesAreIgnored) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 1;
  obs::QueryTracer t(&reg, "t", opt);

  const std::uint64_t gen1 = make_handle(0, 1);
  const std::uint64_t gen2 = make_handle(0, 2);  // same slot, next generation
  t.on_admit(gen1, 0.0);
  t.add_execute(gen2, 5.0);   // stale: never admitted — must not pollute gen1
  t.on_complete(gen2, 9.0, false);  // stale completion: no flush
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.find_histogram("t.lat.e2e")->count, 0u);

  t.on_complete(gen1, 0.5, false);
  snap = reg.snapshot();
  const obs::HistogramStats* exec = snap.find_histogram("t.lat.execute");
  ASSERT_NE(exec, nullptr);
  ASSERT_EQ(exec->count, 1u);
  EXPECT_EQ(exec->sum, 0u);  // gen2's add_execute never landed
}

TEST(QueryTracer, SlotRecyclesCleanlyAfterFlush) {
  obs::Registry reg;
  obs::TraceOptions opt;
  opt.sample_period = 1;
  obs::QueryTracer t(&reg, "t", opt);
  const std::uint64_t gen1 = make_handle(3, 1);
  t.on_admit(gen1, 0.0);
  t.add_execute(gen1, 0.010);
  t.on_complete(gen1, 0.1, false);
  // The next generation of the same slot starts from a clean record.
  const std::uint64_t gen2 = make_handle(3, 2);
  t.on_admit(gen2, 1.0);
  t.on_complete(gen2, 1.05, false);
  const auto snap = reg.snapshot();
  const obs::HistogramStats* exec = snap.find_histogram("t.lat.execute");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count, 2u);
  EXPECT_EQ(exec->sum, 10000000u);  // only gen1's execute time
}

// ---------------------------------------------------------------------------
// Passivity: tracing on/off is bit-identical (the invariant that lets
// observability default ON)
// ---------------------------------------------------------------------------

trace::DemandCurve obs_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kAzureDiurnal;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 120.0;
  cfg.seed = test::test_seed("obs_trace_curve");
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig obs_config(std::size_t shards) {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";  // fast allocator keeps the differential runs cheap
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = test::test_seed("obs_trace_arrivals");
  cfg.sim_shards = shards;
  cfg.sim_coordinated = shards > 1;
  return cfg;
}

void expect_bit_identical(const exp::ExperimentResult& on,
                          const exp::ExperimentResult& off) {
  EXPECT_EQ(on.arrivals, off.arrivals);
  EXPECT_EQ(on.drops, off.drops);
  EXPECT_EQ(on.metrics.completions(), off.metrics.completions());
  EXPECT_EQ(on.metrics.shed(), off.metrics.shed());
  EXPECT_EQ(on.metrics.late(), off.metrics.late());
  EXPECT_EQ(on.metrics.violations(), off.metrics.violations());
  EXPECT_EQ(on.allocations, off.allocations);
  EXPECT_DOUBLE_EQ(on.slo_violation_ratio, off.slo_violation_ratio);
  EXPECT_DOUBLE_EQ(on.mean_accuracy, off.mean_accuracy);
  EXPECT_DOUBLE_EQ(on.mean_latency_s, off.mean_latency_s);
  EXPECT_DOUBLE_EQ(on.p99_latency_s, off.p99_latency_s);
  EXPECT_DOUBLE_EQ(on.mean_servers_used, off.mean_servers_used);
}

TEST(TracePassivity, SequentialMetricsAreBitIdenticalTracingOnOrOff) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();

  auto on_cfg = obs_config(1);  // tracing defaults ON
  auto off_cfg = obs_config(1);
  off_cfg.system_cfg.trace.enabled = false;

  const auto on = exp::run_experiment(graph, curve, on_cfg);
  const auto off = exp::run_experiment(graph, curve, off_cfg);
  expect_bit_identical(on, off);

  // And the tracer really ran in the "on" arm and really idled in "off".
  EXPECT_GT(on.obs.counter_value("serving.trace.sampled"), 0u);
  EXPECT_EQ(off.obs.counter_value("serving.trace.sampled"), 0u);
}

TEST(TracePassivity, CoordinatedMetricsAreBitIdenticalTracingOnOrOff) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();

  auto on_cfg = obs_config(2);
  auto off_cfg = on_cfg;
  off_cfg.system_cfg.trace.enabled = false;

  const auto on = exp::run_experiment(graph, curve, on_cfg);
  const auto off = exp::run_experiment(graph, curve, off_cfg);
  expect_bit_identical(on, off);
  EXPECT_GT(on.obs.counter_value("serving.trace.sampled"), 0u);
}

TEST(TracePassivity, NinetySixWorkerMilpEpochIsBitIdenticalTracingOnOrOff) {
  // The shape bm_obs times the tracer on: 96 loki-milp workers under a
  // constant 6000 qps for 20 s. It overloads the cluster, so drops, plan
  // changes and the tracer's slot recycling all run.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::DemandCurve curve;
  curve.interval_s = 1.0;
  curve.qps.assign(20, 6000.0);

  exp::ExperimentConfig on_cfg;
  on_cfg.system = "loki-milp";
  on_cfg.system_cfg.allocator.cluster_size = 96;
  on_cfg.system_cfg.allocator.slo_s = 0.250;
  on_cfg.arrivals.seed = 11;
  auto off_cfg = on_cfg;
  off_cfg.system_cfg.trace.enabled = false;

  const auto on = exp::run_experiment(graph, curve, on_cfg);
  const auto off = exp::run_experiment(graph, curve, off_cfg);
  expect_bit_identical(on, off);
  EXPECT_GT(on.obs.counter_value("serving.trace.sampled"), 0u);
  EXPECT_EQ(off.obs.counter_value("serving.trace.sampled"), 0u);
}

TEST(TracePassivity, SamplePeriodDoesNotPerturbMetrics) {
  // Sampling 1-in-1 vs 1-in-64 must also be bit-identical: the tracer's
  // write volume changes, the simulation must not notice.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();

  auto dense = obs_config(1);
  dense.system_cfg.trace.sample_period = 1;
  const auto a = exp::run_experiment(graph, curve, dense);
  const auto b = exp::run_experiment(graph, curve, obs_config(1));
  expect_bit_identical(a, b);
  // Denser sampling traces at least as many queries.
  EXPECT_GE(a.obs.counter_value("serving.trace.sampled"),
            b.obs.counter_value("serving.trace.sampled"));
}

// ---------------------------------------------------------------------------
// End-to-end attribution through the experiment driver
// ---------------------------------------------------------------------------

TEST(TraceAttribution, StageHistogramsPopulateAndReconcile) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();

  auto cfg = obs_config(1);
  // Trace everything: exact reconciliation.
  cfg.system_cfg.trace.sample_period = 1;
  const auto r = exp::run_experiment(graph, curve, cfg);

  const std::uint64_t admitted = r.obs.counter_value("serving.admitted");
  const std::uint64_t sampled = r.obs.counter_value("serving.trace.sampled");
  const std::uint64_t completed =
      r.obs.counter_value("serving.trace.completed");
  const std::uint64_t dropped = r.obs.counter_value("serving.trace.dropped");

  // Period 1: every admitted query is sampled, and after the drain window
  // every sampled query was finalized exactly once.
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(sampled, admitted);
  EXPECT_EQ(completed + dropped, sampled);
  // Admissions are arrivals minus queries shed before a record existed.
  EXPECT_EQ(admitted, r.arrivals - r.metrics.shed());

  // Every stage histogram flushed once per finalized query.
  for (const std::string stage :
       {"queue", "batch", "execute", "swap_stall", "comm", "e2e"}) {
    const obs::HistogramStats* s =
        r.obs.find_histogram("serving.lat." + stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_EQ(s->count, sampled) << stage;
  }

  // Attribution sanity: real time landed in the stages. Note stage sums can
  // exceed wall e2e — a fanned-out query accumulates its parallel parts'
  // stage time, while e2e is the critical path (see the Record doc in
  // obs/trace.hpp) — so only positivity and rough scale are asserted.
  const obs::HistogramStats* e2e = r.obs.find_histogram("serving.lat.e2e");
  const obs::HistogramStats* execute =
      r.obs.find_histogram("serving.lat.execute");
  ASSERT_NE(e2e, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_GT(e2e->mean(), 0.0);
  EXPECT_GT(execute->mean(), 0.0);
  // Execute time is bounded by a small multiple of e2e (fan-out width).
  EXPECT_LT(execute->mean(), 16.0 * e2e->mean());
  // p99 >= p50 on the e2e histogram (quantile estimator is monotone).
  EXPECT_GE(e2e->quantile(0.99), e2e->quantile(0.5));

  // Cluster-wide stage counters made it into the registry.
  EXPECT_GT(r.obs.counter_value("serving.stage.enqueued"), 0u);
  EXPECT_GT(r.obs.counter_value("serving.stage.batches"), 0u);
  EXPECT_GT(r.obs.counter_value("serving.stage.execute_ns"), 0u);
  EXPECT_GE(r.obs.counter_value("serving.stage.batch_items"),
            r.obs.counter_value("serving.stage.batches"));
}

TEST(TraceAttribution, ShardedRunsMergeIntoClusterWideSeries) {
  // Two shard systems share one registry and prefix: their histograms and
  // stage counters must merge, and the per-shard demand counters must sum
  // to the arrival total.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();

  auto cfg = obs_config(2);
  cfg.system_cfg.trace.sample_period = 1;
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("exp.shard0.arrivals") +
                r.obs.counter_value("exp.shard1.arrivals"),
            r.arrivals);
  EXPECT_EQ(r.obs.counter_value("serving.admitted"),
            r.arrivals - r.metrics.shed());
  const obs::HistogramStats* e2e = r.obs.find_histogram("serving.lat.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, r.obs.counter_value("serving.trace.sampled"));
}

TEST(TraceAttribution, CsvExportLandsOnDisk) {
  test::TempDir tmp("loki_obs_trace");
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = obs_curve();
  auto cfg = obs_config(1);
  cfg.obs_csv_path = tmp.file("obs.csv");
  const auto r = exp::run_experiment(graph, curve, cfg);
  const std::string csv = test::read_file(cfg.obs_csv_path);
  EXPECT_NE(csv.find("kind,name,value,count,mean,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("serving.lat.e2e"), std::string::npos);
  EXPECT_NE(csv.find("serving.stage.enqueued"), std::string::npos);
  EXPECT_EQ(csv, r.obs.to_csv());
}

// ---------------------------------------------------------------------------
// Stage-counter semantics on a directly-driven system
// ---------------------------------------------------------------------------

/// Drives one ServingSystem under constant demand with a per-test registry,
/// mirroring the system_test Runner but exposing the obs wiring.
struct ObsRunner {
  pipeline::PipelineGraph graph;
  serving::ProfileTable profiles;
  serving::SystemConfig cfg;
  obs::Registry registry;

  ObsRunner() : graph(pipeline::traffic_analysis_two_task_pipeline()) {
    profiles = serving::build_profile_table(graph, profile::ModelProfiler());
    cfg.allocator.cluster_size = 12;
    cfg.allocator.slo_s = 0.250;
    cfg.registry = &registry;
    cfg.trace.sample_period = 1;
  }

  /// Runs under constant `qps` for `duration` seconds; `at_mid` (optional)
  /// fires at duration/2 with the live system.
  serving::Metrics run(
      double qps, double duration,
      std::function<void(serving::ServingSystem&)> at_mid = nullptr) {
    sim::Simulation sim;
    serving::ServingSystem system(&sim, &graph, profiles, cfg);
    serving::ControlPlane control(
        {&system}, [&](const serving::AllocatorConfig& slice) {
          return exp::make_strategy("greedy", slice, &graph, profiles);
        });
    control.start();
    trace::DemandCurve curve;
    curve.interval_s = 1.0;
    curve.qps.assign(static_cast<std::size_t>(duration), qps);
    trace::ArrivalConfig acfg;
    acfg.seed = test::test_seed("obs_runner_arrivals");
    trace::ArrivalStream stream(curve, acfg);
    std::function<void()> pump = [&]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
    if (at_mid) {
      sim.schedule_at(duration / 2.0, [&]() { at_mid(system); });
    }
    sim.run_until(duration + 5.0);
    system.finish(duration + 5.0);
    final_counters = system.stage_counters();
    return system.metrics();
  }

  cluster::StageCounters final_counters;
};

TEST(StageCounters, MonotonicAcrossPlanReinstalls) {
  // 40 s with a 10 s RM period: several plan re-installs happen between the
  // mid-run snapshot and the end. Every field must be non-decreasing —
  // re-installs never reset the aggregate (the semantics pinned in
  // serving/system.hpp).
  ObsRunner r;
  cluster::StageCounters mid;
  const auto m = r.run(250.0, 40.0, [&](serving::ServingSystem& sys) {
    mid = sys.stage_counters();
  });
  EXPECT_GT(m.completions(), 0u);
  EXPECT_GT(mid.enqueued, 0u);

  const auto& fin = r.final_counters;
  EXPECT_GE(fin.enqueued, mid.enqueued);
  EXPECT_GE(fin.queue_wait_s, mid.queue_wait_s);
  EXPECT_GE(fin.batches, mid.batches);
  EXPECT_GE(fin.batch_items, mid.batch_items);
  EXPECT_GE(fin.execute_s, mid.execute_s);
  EXPECT_GE(fin.swaps, mid.swaps);
  EXPECT_GE(fin.swap_stall_s, mid.swap_stall_s);
  // And the run did real work after the midpoint.
  EXPECT_GT(fin.enqueued, mid.enqueued);
}

TEST(StageCounters, RegistryTwinsMatchAggregateAfterFinish) {
  // The delta publication at heartbeats + finish must reproduce the
  // aggregate counters exactly (integer fields) / to ns-rounding accuracy
  // (time fields: one llround per publication).
  ObsRunner r;
  r.run(250.0, 30.0);
  const auto& fin = r.final_counters;
  const auto snap = r.registry.snapshot();

  EXPECT_EQ(snap.counter_value("serving.stage.enqueued"), fin.enqueued);
  EXPECT_EQ(snap.counter_value("serving.stage.batches"), fin.batches);
  EXPECT_EQ(snap.counter_value("serving.stage.batch_items"),
            fin.batch_items);
  EXPECT_EQ(snap.counter_value("serving.stage.swaps"), fin.swaps);
  const double pub_queue_s =
      static_cast<double>(snap.counter_value("serving.stage.queue_wait_ns")) /
      1e9;
  const double pub_exec_s =
      static_cast<double>(snap.counter_value("serving.stage.execute_ns")) /
      1e9;
  const double pub_swap_s =
      static_cast<double>(snap.counter_value("serving.stage.swap_stall_ns")) /
      1e9;
  EXPECT_NEAR(pub_queue_s, fin.queue_wait_s, 1e-5);
  EXPECT_NEAR(pub_exec_s, fin.execute_s, 1e-5);
  EXPECT_NEAR(pub_swap_s, fin.swap_stall_s, 1e-5);
}

}  // namespace
}  // namespace loki
