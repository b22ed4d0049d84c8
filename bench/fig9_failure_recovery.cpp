// Fig. 9 (robustness suite): failure-recovery timeline — crash -> detect ->
// re-plan -> recover — for loki-milp vs greedy / InferLine / Proteus on the
// traffic-analysis pipeline.
//
// A constant in-capacity demand runs while a block of workers crashes a
// third of the way in and returns at two thirds. The phi-style heartbeat
// detector spots the outage, the event-driven re-plan reallocates over the
// survivors, and the load balancer quarantines the suspects; the interesting
// comparison is how much SLO damage each strategy accumulates between the
// crash instant and the post-re-plan steady state.
//
// Output: one timeseries CSV per system (the usual demand / accuracy /
// utilization / violation panels, where the violation panel shows the
// crash-window spike and recovery) plus fig9_failure_recovery.csv with the
// summary per system: detection latency, re-plan count, drops split by
// cause, and the end-to-end SLO violation ratio.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "common/team.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "trace/generator.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double duration_s = flags.get_double("duration", 600.0);
  const int cluster = static_cast<int>(flags.get_int("cluster", 20));
  const int crashed = static_cast<int>(flags.get_int("crashed", 4));
  const double slo_ms = flags.get_double("slo-ms", 250.0);
  const double peak_factor = flags.get_double("peak-factor", 0.60);

  bench::banner("Fig. 9 — failure recovery (crash -> detect -> re-plan)");

  const auto graph = pipeline::traffic_analysis_pipeline();
  profile::ModelProfiler profiler;
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);

  serving::AllocatorConfig acfg;
  acfg.cluster_size = cluster;
  acfg.slo_s = slo_ms / 1e3;

  serving::MilpAllocator probe(acfg, &graph, profiles);
  const double cap = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);
  const double qps = peak_factor * cap;

  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kConstant;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = qps;
  tcfg.noise_frac = 0.0;
  tcfg.seed = 9;
  const auto curve = trace::generate_trace(tcfg);

  // Crash `crashed` workers together a third of the way in; bring them back
  // at two thirds. Worker ids picked from the front of the cluster: every
  // strategy places instances there, so the outage always hits live state.
  const double t_crash = duration_s / 3.0;
  const double t_recover = 2.0 * duration_s / 3.0;
  fault::FaultPlan plan;
  for (int w = 0; w < crashed; ++w) {
    fault::append(plan, fault::crash_plan(w, t_crash, t_recover));
  }
  std::printf("constant %.0f QPS (%.0f%% of capacity %.0f); %d/%d workers "
              "down over [%.0f, %.0f) s\n",
              qps, 100.0 * peak_factor, cap, crashed, cluster, t_crash,
              t_recover);

  const char* kinds[] = {"loki-milp", "greedy", "inferline", "proteus"};
  std::vector<exp::ExperimentResult> results(4);
  Team team(4);
  team.run(4, [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = kinds[i];
    cfg.system_cfg.allocator = acfg;
    cfg.fault_plan = plan;
    results[i] = exp::run_experiment(graph, curve, cfg);
  });

  CsvTable csv({"system", "detect_latency_s", "recovery_s", "replans",
                "slo_violation_ratio", "completions", "drops",
                "shed_by_failure", "shed_by_degraded", "mean_accuracy"});
  std::printf("\n%-10s %9s %10s %8s %11s %9s %7s %9s\n", "system",
              "detect_s", "recovery_s", "replans", "violations", "compl",
              "drops", "shed_fail");
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = results[i];
    const obs::HistogramStats* detect =
        r.obs.find_histogram("serving.fault.detect_ns");
    const obs::HistogramStats* recovery =
        r.obs.find_histogram("serving.fault.recovery_ns");
    const double detect_s =
        detect != nullptr && detect->count > 0 ? detect->mean() / 1e9 : 0.0;
    const double recovery_s =
        recovery != nullptr && recovery->count > 0 ? recovery->mean() / 1e9
                                                   : 0.0;
    const auto replans =
        static_cast<std::int64_t>(r.obs.counter_value("serving.fault.replans"));
    std::printf("%-10s %9.2f %10.2f %8lld %11.4f %9llu %7llu %9llu\n",
                kinds[i], detect_s, recovery_s,
                static_cast<long long>(replans), r.slo_violation_ratio,
                static_cast<unsigned long long>(r.metrics.completions()),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.metrics.shed_by_failure()));
    csv.add_row({std::string(kinds[i]), detect_s, recovery_s, replans,
                 r.slo_violation_ratio,
                 static_cast<std::int64_t>(r.metrics.completions()),
                 static_cast<std::int64_t>(r.drops),
                 static_cast<std::int64_t>(r.metrics.shed_by_failure()),
                 static_cast<std::int64_t>(r.metrics.shed_by_degraded()),
                 r.mean_accuracy});
    bench::write_timeseries_csv(bench::output_dir() + "/fig9_" +
                                    std::string(kinds[i]) + ".csv",
                                r.metrics);
  }
  csv.write(bench::output_dir() + "/fig9_failure_recovery.csv");
  std::printf("\n  wrote %s/fig9_failure_recovery.csv\n",
              bench::output_dir().c_str());
  std::printf("  detection is bounded by the phi timeout; the violation\n"
              "  panels of the per-system CSVs show the crash-window spike\n"
              "  and the post-re-plan recovery.\n");
  return 0;
}
