// Serving hot-path microbenchmarks (BM_Serving*): the per-query steps that
// benchmark/ does not time on their own. benchmark/ times the data plane
// end to end (sim_qps, dataplane.ns_per_{arrival,item}) and reports the
// stage counters (cluster.*). This binary is an ungated profiling tool.
//
//   BM_ServingRoutingDraw{Linear,Table} - one routing draw: the linear
//     cumulative scan pick_route() vs the flattened DrawTable's counting
//     scan.
//   BM_ServingStageCounterOverhead - one aggregation of the per-worker
//     stage counters across a 96-worker system.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "cluster/worker.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/control_plane.hpp"
#include "serving/load_balancer.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace loki;

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
// DrawTable's branchless counting scan. Same tables, same draws,
// bit-identical picks (differential-tested in load_balancer_test); this
// pair measures the speed difference in isolation.
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
  serving::ServingSystem system(&sim, &graph, profiles, cfg);
  serving::ControlPlane control(
      {&system}, [&](const serving::AllocatorConfig& slice) {
        return std::make_unique<serving::MilpAllocator>(slice, &graph,
                                                        profiles);
      });
  control.start();
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
