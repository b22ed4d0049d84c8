// Fault-subsystem benchmark suite (BM_Fault*): what a failure costs, and
// that an armed-but-idle fault plane costs nothing.
//
//   BM_FaultRecoveryCycle - one full crash -> detect -> re-plan -> recover
//     cycle on the two-task traffic pipeline (greedy allocator, 8 workers,
//     60 s constant demand, worker 0 down over [20, 40) s). Exports the
//     simulation-time outcome counters the fault gate reads: detect_latency_s
//     and recovery_s (means of the serving.fault.{detect,recovery}_ns
//     histograms) plus shed_by_failure. These are *simulated* quantities —
//     deterministic under the pinned seed and comparable across hosts, so
//     scripts/check_bench_regression.py --suite fault bounds them against
//     the committed baseline, unlike wall times.
//   BM_FaultGate - the paired passivity measurement: each iteration runs
//     one default epoch and one armed-but-inert epoch (detector enabled,
//     one crash scheduled far past the end) back-to-back. Exports
//     bit_identical (1 when every simulation metric matched across the
//     arms — the injection-off passivity invariant) and overhead_frac (the
//     armed arm's wall-time ratio - 1). The gate fails when bit_identical
//     is not 1.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/clock.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "trace/generator.hpp"

namespace {

using namespace loki;

trace::DemandCurve fault_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kConstant;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 40.0;
  cfg.noise_frac = 0.0;
  cfg.seed = 9001;
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig fault_config() {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = 9002;
  return cfg;
}

void BM_FaultRecoveryCycle(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fault_curve();
  auto cfg = fault_config();
  cfg.fault_plan = fault::crash_plan(0, 20.0, 40.0);

  std::uint64_t arrivals = 0;
  exp::ExperimentResult last;
  for (auto _ : state) {
    last = exp::run_experiment(graph, curve, cfg);
    arrivals += last.arrivals;
    benchmark::DoNotOptimize(last.drops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_s"] = benchmark::Counter(
      static_cast<double>(arrivals), benchmark::Counter::kIsRate);
  // Deterministic simulation outputs: identical across iterations, so the
  // last run speaks for all of them.
  const obs::HistogramStats* detect =
      last.obs.find_histogram("serving.fault.detect_ns");
  const obs::HistogramStats* recovery =
      last.obs.find_histogram("serving.fault.recovery_ns");
  state.counters["detect_latency_s"] =
      detect != nullptr && detect->count > 0 ? detect->mean() / 1e9 : 0.0;
  state.counters["recovery_s"] =
      recovery != nullptr && recovery->count > 0 ? recovery->mean() / 1e9
                                                 : 0.0;
  state.counters["shed_by_failure"] =
      static_cast<double>(last.metrics.shed_by_failure());
  state.counters["replans"] =
      static_cast<double>(last.obs.counter_value("serving.fault.replans"));
}
BENCHMARK(BM_FaultRecoveryCycle)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

bool same_outcome(const exp::ExperimentResult& a,
                  const exp::ExperimentResult& b) {
  return a.arrivals == b.arrivals && a.drops == b.drops &&
         a.metrics.completions() == b.metrics.completions() &&
         a.metrics.shed() == b.metrics.shed() &&
         a.metrics.violations() == b.metrics.violations() &&
         a.slo_violation_ratio == b.slo_violation_ratio &&  // exact
         a.mean_latency_s == b.mean_latency_s &&
         a.mean_accuracy == b.mean_accuracy;
}

void BM_FaultGate(benchmark::State& state) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = fault_curve();
  const auto off_cfg = fault_config();
  auto armed_cfg = fault_config();
  armed_cfg.fault_plan = fault::crash_plan(0, 1e6, 0.0);  // never fires
  armed_cfg.system_cfg.detector.enabled = true;

  double off_wall = 0.0;
  double armed_wall = 0.0;
  bool identical = true;
  std::uint64_t arrivals = 0;
  bool armed_first = false;
  for (auto _ : state) {
    // Alternate the order so host load ramps hit both arms symmetrically.
    exp::ExperimentResult off, armed;
    if (armed_first) {
      const std::uint64_t t0 = steady_now_ns();
      armed = exp::run_experiment(graph, curve, armed_cfg);
      const std::uint64_t t1 = steady_now_ns();
      off = exp::run_experiment(graph, curve, off_cfg);
      const std::uint64_t t2 = steady_now_ns();
      armed_wall += steady_elapsed_s(t0, t1);
      off_wall += steady_elapsed_s(t1, t2);
    } else {
      const std::uint64_t t0 = steady_now_ns();
      off = exp::run_experiment(graph, curve, off_cfg);
      const std::uint64_t t1 = steady_now_ns();
      armed = exp::run_experiment(graph, curve, armed_cfg);
      const std::uint64_t t2 = steady_now_ns();
      off_wall += steady_elapsed_s(t0, t1);
      armed_wall += steady_elapsed_s(t1, t2);
    }
    armed_first = !armed_first;
    identical = identical && same_outcome(off, armed);
    arrivals += off.arrivals + armed.arrivals;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["overhead_frac"] =
      off_wall > 0.0 ? armed_wall / off_wall - 1.0 : 0.0;
  state.counters["bit_identical"] = identical ? 1.0 : 0.0;
}
// Per-benchmark MinTime so even the CI --quick run pairs several epochs:
// bit_identical is exact either way, but overhead_frac needs averaging.
BENCHMARK(BM_FaultGate)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace

BENCHMARK_MAIN();
