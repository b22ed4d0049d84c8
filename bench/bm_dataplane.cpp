// Data-plane throughput suite (BM_DataPlane*): how much simulated traffic
// the discrete-event core and the serving runtime can push per wall-clock
// second on one host. Companion to the solver-side tab_runtime_overhead:
// scripts/bench.sh --suite dataplane runs this binary and gates the JSON
// report against bench/BENCH_dataplane_baseline.json, mirroring the solver
// pivot gate.
//
// Two altitudes:
//   BM_DataPlaneForwardFanout  - the serving hot path: constant heavy
//     demand through the two-task pipeline (query-state table, routing
//     draws, worker batching, fan-out forwarding).
//   BM_DataPlaneE2EEpoch       - a full miniature experiment (trace ->
//     plan -> simulate -> metrics), the same shape as the e2e smoke test.
// A third family, BM_Serving*, covers the serving hot path in isolation
// (routing draws, forward hops, stage counters) and at scale (96-worker
// e2e epoch); scripts/bench.sh --suite serving gates it separately.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "cluster/worker.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/load_balancer.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"

namespace {

using namespace loki;

// --------------------------------------------------------------------------
// Serving hot path: heavy constant demand through the two-task pipeline.
// --------------------------------------------------------------------------
void BM_DataPlaneForwardFanout(benchmark::State& state) {
  const double qps = static_cast<double>(state.range(0));
  const double duration_s = 8.0;
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  std::uint64_t arrivals = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    serving::SystemConfig cfg;
    cfg.allocator.cluster_size = 20;
    cfg.allocator.slo_s = 0.250;
    serving::MilpAllocator strategy(cfg.allocator, &graph, profiles);
    serving::ServingSystem system(&sim, &graph, profiles, &strategy, cfg);
    system.start();
    trace::DemandCurve curve;
    curve.interval_s = 1.0;
    curve.qps.assign(static_cast<std::size_t>(duration_s), qps);
    trace::ArrivalConfig acfg;
    acfg.seed = 42;
    trace::ArrivalStream stream(curve, acfg);
    std::function<void()> pump = [&]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
    sim.run_until(duration_s + 2.0);
    system.finish(duration_s + 2.0);
    arrivals += system.metrics().arrivals();
    benchmark::DoNotOptimize(system.metrics().completions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_s"] = benchmark::Counter(
      static_cast<double>(arrivals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DataPlaneForwardFanout)
    ->Arg(2000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Full miniature experiment epoch (same shape as the e2e smoke test).
// --------------------------------------------------------------------------
void BM_DataPlaneE2EEpoch(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = 60.0;
  tcfg.peak_qps = 400.0;
  tcfg.seed = 7;
  const auto curve = trace::generate_trace(tcfg);
  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.cluster_size = 12;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = 11;
  std::uint64_t arrivals = 0;
  for (auto _ : state) {
    const auto result = exp::run_experiment(graph, curve, cfg);
    arrivals += result.arrivals;
    benchmark::DoNotOptimize(result.slo_violation_ratio);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_s"] = benchmark::Counter(
      static_cast<double>(arrivals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DataPlaneE2EEpoch)->UseRealTime()->Unit(benchmark::kMillisecond);

// ==========================================================================
// Serving hot-path suite (BM_Serving*): micro- and macro-benchmarks of the
// per-query serving path. scripts/bench.sh --suite serving runs this prefix
// and gates it against bench/BENCH_serving_baseline.json.
// ==========================================================================

// Builds an exhaustive frontend routing table with `n` groups of equal
// probability (sums to ~1, exercising the fp-tail fallback too).
serving::RoutingPlan make_draw_plan(int n) {
  serving::RoutingPlan plan;
  for (int g = 0; g < n; ++g) {
    plan.frontend.push_back({g, 1.0 / static_cast<double>(n)});
  }
  plan.finalize(/*num_tasks=*/1);
  return plan;
}

std::vector<double> make_draws(std::size_t count) {
  std::mt19937_64 rng(0xD11A5u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> draws(count);
  for (auto& d : draws) d = uni(rng);
  return draws;
}

// --------------------------------------------------------------------------
// Routing draw: the linear cumulative scan pick_route() vs the flattened
// DrawTable binary search. Same tables, same draws, bit-identical picks
// (differential-tested in load_balancer_test); this pair measures the
// speed difference in isolation.
// --------------------------------------------------------------------------
void BM_ServingRoutingDrawLinear(benchmark::State& state) {
  const auto plan = make_draw_plan(static_cast<int>(state.range(0)));
  const auto draws = make_draws(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const int g = serving::pick_route(plan.frontend, draws[i]);
    benchmark::DoNotOptimize(g);
    i = (i + 1) & (draws.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["draws_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServingRoutingDrawLinear)->Arg(4)->Arg(16)->Arg(64);

void BM_ServingRoutingDrawTable(benchmark::State& state) {
  const auto plan = make_draw_plan(static_cast<int>(state.range(0)));
  const serving::RoutingPlan::DrawTable table = plan.frontend_table();
  const auto draws = make_draws(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const int g = table.pick(draws[i]);
    benchmark::DoNotOptimize(g);
    i = (i + 1) & (draws.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["draws_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServingRoutingDrawTable)->Arg(4)->Arg(16)->Arg(64);

// --------------------------------------------------------------------------
// Forward hop: constant heavy demand through the two-task pipeline on a
// 40-worker cluster; items are *forwards* (detection -> classification
// hops), each paying a routing-table lookup, a child draw, a least-loaded
// worker scan, and an enqueue.
// --------------------------------------------------------------------------
void BM_ServingForwardHop(benchmark::State& state) {
  const double duration_s = 8.0;
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  std::uint64_t forwards = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    serving::SystemConfig cfg;
    cfg.allocator.cluster_size = 40;
    cfg.allocator.slo_s = 0.250;
    serving::MilpAllocator strategy(cfg.allocator, &graph, profiles);
    serving::ServingSystem system(&sim, &graph, profiles, &strategy, cfg);
    system.start();
    trace::DemandCurve curve;
    curve.interval_s = 1.0;
    curve.qps.assign(static_cast<std::size_t>(duration_s), 4000.0);
    trace::ArrivalConfig acfg;
    acfg.seed = 42;
    trace::ArrivalStream stream(curve, acfg);
    std::function<void()> pump = [&]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
    sim.run_until(duration_s + 2.0);
    system.finish(duration_s + 2.0);
    forwards += system.metrics().forwards();
    benchmark::DoNotOptimize(system.metrics().completions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(forwards));
  state.counters["forwards_per_s"] = benchmark::Counter(
      static_cast<double>(forwards), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServingForwardHop)->UseRealTime()->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// E2E epoch at scale: 96 workers, 20 s of constant 6000 qps, driven through
// the ServingSystem directly so the per-stage counters (queue wait, batch
// formation, execution, model swaps) can be exported into the bench JSON
// alongside the throughput number.
// --------------------------------------------------------------------------
void BM_ServingE2EEpoch(benchmark::State& state) {
  const double duration_s = 20.0;
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  std::uint64_t arrivals = 0;
  cluster::StageCounters stages;
  for (auto _ : state) {
    sim::Simulation sim;
    serving::SystemConfig cfg;
    cfg.allocator.cluster_size = 96;
    cfg.allocator.slo_s = 0.250;
    serving::MilpAllocator strategy(cfg.allocator, &graph, profiles);
    serving::ServingSystem system(&sim, &graph, profiles, &strategy, cfg);
    system.start();
    trace::DemandCurve curve;
    curve.interval_s = 1.0;
    curve.qps.assign(static_cast<std::size_t>(duration_s), 6000.0);
    trace::ArrivalConfig acfg;
    acfg.seed = 11;
    trace::ArrivalStream stream(curve, acfg);
    std::function<void()> pump = [&]() {
      system.submit();
      const double next = stream.next();
      if (next >= 0.0) sim.schedule_at(next, pump);
    };
    const double first = stream.next();
    if (first >= 0.0) sim.schedule_at(first, pump);
    sim.run_until(duration_s + 2.0);
    system.finish(duration_s + 2.0);
    arrivals += system.metrics().arrivals();
    stages += system.stage_counters();
    benchmark::DoNotOptimize(system.metrics().completions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_s"] = benchmark::Counter(
      static_cast<double>(arrivals), benchmark::Counter::kIsRate);
  // Per-stage counters, averaged per iteration so the values are comparable
  // across runs regardless of how many iterations the harness chose.
  const double it = static_cast<double>(std::max<std::int64_t>(
      state.iterations(), 1));
  state.counters["stage_enqueued"] = static_cast<double>(stages.enqueued) / it;
  state.counters["stage_queue_wait_s"] = stages.queue_wait_s / it;
  state.counters["stage_batches"] = static_cast<double>(stages.batches) / it;
  state.counters["stage_batch_items"] =
      static_cast<double>(stages.batch_items) / it;
  state.counters["stage_execute_s"] = stages.execute_s / it;
  state.counters["stage_swaps"] = static_cast<double>(stages.swaps) / it;
  state.counters["stage_swap_stall_s"] = stages.swap_stall_s / it;
}
BENCHMARK(BM_ServingE2EEpoch)->UseRealTime()->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Stage-counter readout cost: the per-item maintenance is a handful of
// inlined adds on paths that already touch the same cache lines, so the
// measurable overhead is the snapshot aggregation across all workers —
// what a metrics exporter would pay per scrape on a 96-worker system.
// --------------------------------------------------------------------------
void BM_ServingStageCounterOverhead(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.allocator.cluster_size = 96;
  cfg.allocator.slo_s = 0.250;
  serving::MilpAllocator strategy(cfg.allocator, &graph, profiles);
  serving::ServingSystem system(&sim, &graph, profiles, &strategy, cfg);
  system.start();
  sim.run_until(1.0);  // let the initial allocation land on the workers
  for (auto _ : state) {
    const cluster::StageCounters sc = system.stage_counters();
    benchmark::DoNotOptimize(sc.enqueued);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["snapshots_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServingStageCounterOverhead);

}  // namespace

BENCHMARK_MAIN();
