// Observability self-measurement (BM_Obs*): what the always-on metrics and
// the sampled tracer cost on the host. An ungated profiling tool: ctest pins
// the tracer's work (TracerWork.*) and its passivity (TracePassivity.*), and
// benchmark/ times the registry snapshot (obs.snapshot_us).
//
//   BM_ObsCounterAdd / BM_ObsHistogramAdd - hot-path primitive cost: one
//     relaxed padded-atomic add / one count+sum+bucket histogram add.
//   BM_ObsTracerOverhead - the tracer's wall-clock cost: each iteration runs
//     one tracing-off and one tracing-on run_experiment back to back, so
//     host drift hits both arms. Reports overhead_frac (on/off wall-time
//     ratio - 1). It is the only wall-clock timing of the tracer; its
//     run-to-run spread on a shared host is about as wide as the cost it
//     measures (README "Observability").
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/clock.hpp"
#include "exp/experiment.hpp"
#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "trace/generator.hpp"

namespace {

using namespace loki;

// --------------------------------------------------------------------------
// Primitive cost: the adds instrumented code pays on the hot path.
// --------------------------------------------------------------------------
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
  state.counters["adds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG: vary bucket
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["adds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObsHistogramAdd);

// --------------------------------------------------------------------------
// The tracer's cost, paired on the 96-worker loki-milp epoch that
// TracePassivity.NinetySixWorkerMilpEpochIsBitIdenticalTracingOnOrOff runs:
// constant 6000 qps for 20 s, arrival seed 11.
// --------------------------------------------------------------------------
double run_wall_s(const pipeline::PipelineGraph& graph,
                  const trace::DemandCurve& curve,
                  const exp::ExperimentConfig& cfg) {
  const std::uint64_t t0 = steady_now_ns();
  const exp::ExperimentResult r = exp::run_experiment(graph, curve, cfg);
  benchmark::DoNotOptimize(r.arrivals);
  return steady_elapsed_s(t0, steady_now_ns());
}

void BM_ObsTracerOverhead(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  trace::DemandCurve curve;
  curve.interval_s = 1.0;
  curve.qps.assign(20, 6000.0);
  exp::ExperimentConfig on;
  on.system = "loki-milp";
  on.system_cfg.allocator.cluster_size = 96;
  on.system_cfg.allocator.slo_s = 0.250;
  on.arrivals.seed = 11;
  exp::ExperimentConfig off = on;
  off.system_cfg.trace.enabled = false;

  double off_wall = 0.0;
  double on_wall = 0.0;
  bool on_first = false;
  for (auto _ : state) {
    // Alternate which arm runs first: the second run of a pair sees
    // whatever load ramp the host is on, so a fixed order biases the ratio.
    if (on_first) {
      on_wall += run_wall_s(graph, curve, on);
      off_wall += run_wall_s(graph, curve, off);
    } else {
      off_wall += run_wall_s(graph, curve, off);
      on_wall += run_wall_s(graph, curve, on);
    }
    on_first = !on_first;
  }
  state.counters["overhead_frac"] =
      off_wall > 0.0 ? on_wall / off_wall - 1.0 : 0.0;
}
// The per-benchmark MinTime overrides --benchmark_min_time, so even a short
// smoke run averages overhead_frac over about twenty pairs.
BENCHMARK(BM_ObsTracerOverhead)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(3.0);

}  // namespace

BENCHMARK_MAIN();
