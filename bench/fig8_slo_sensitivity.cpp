// Fig. 8 reproduction: effect of the latency SLO (200–400 ms) on Loki for
// the traffic-analysis pipeline — average system accuracy, maximum accuracy
// drop at peak, and average SLO violation ratio. The paper observes sharp
// improvements up to ~300 ms and diminishing returns beyond; below 200 ms
// the pipeline cannot be served at all.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "common/team.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "trace/generator.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double duration_s = flags.get_double("duration", 600.0);
  const int cluster = static_cast<int>(flags.get_int("cluster", 20));

  bench::banner("Fig. 8 — SLO sensitivity (traffic pipeline, 200-400 ms)");

  const auto graph = pipeline::traffic_analysis_pipeline();
  profile::ModelProfiler profiler;
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);

  // One shared trace, scaled against the 250 ms capacity so tighter SLOs
  // feel real pressure (as in the paper's setup).
  serving::AllocatorConfig ref_cfg;
  ref_cfg.cluster_size = cluster;
  ref_cfg.slo_s = 0.250;
  serving::MilpAllocator probe(ref_cfg, &graph, profiles);
  const double cap = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);

  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kAzureDiurnal;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = 0.75 * cap;
  tcfg.seed = 31;
  const auto curve = trace::generate_trace(tcfg);

  const std::vector<double> slos_ms{200, 250, 300, 350, 400};
  std::vector<exp::ExperimentResult> results(slos_ms.size());
  Team team(slos_ms.size());
  team.run(slos_ms.size(), [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = "loki-milp";
    cfg.system_cfg.allocator = ref_cfg;
    cfg.system_cfg.allocator.slo_s = slos_ms[i] / 1e3;
    results[i] = exp::run_experiment(graph, curve, cfg);
  });

  CsvTable csv({"slo_ms", "avg_accuracy_pct", "max_accuracy_drop_pct",
                "avg_slo_violation_ratio"});
  std::printf("\n%8s %14s %18s %16s\n", "SLO(ms)", "avg acc (%)",
              "max acc drop (%)", "violation ratio");
  for (std::size_t i = 0; i < slos_ms.size(); ++i) {
    const auto& r = results[i];
    double min_acc = 1.0;
    for (const auto& p : r.metrics.accuracy_series().points()) {
      min_acc = std::min(min_acc, p.v);
    }
    const double avg_pct = 100.0 * r.mean_accuracy;
    const double drop_pct = 100.0 * (1.0 - min_acc);
    std::printf("%8.0f %14.2f %18.2f %16.4f\n", slos_ms[i], avg_pct,
                drop_pct, r.slo_violation_ratio);
    csv.add_row({slos_ms[i], avg_pct, drop_pct, r.slo_violation_ratio});
  }
  csv.write(bench::output_dir() + "/fig8_slo_sensitivity.csv");
  std::printf("\n  wrote %s/fig8_slo_sensitivity.csv\n",
              bench::output_dir().c_str());
  std::printf("  shape check (paper): accuracy rises / violations fall "
              "sharply 200->300 ms, then diminishing returns\n");
  return 0;
}
