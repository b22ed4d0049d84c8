// Fig. 6 reproduction: end-to-end comparison of Loki vs InferLine vs
// Proteus on the social-media pipeline, driven by a Twitter-shaped bursty
// trace (§6.1). Same panels and summary numbers as Fig. 5; the paper
// reports a 2.7x effective-capacity gain, ~10% accuracy sacrifice at peak,
// ~10x fewer SLO violations than Proteus, and a 2.67x off-peak server
// reduction.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "baselines/inferline.hpp"
#include "common/team.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "trace/generator.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double duration_s = flags.get_double("duration", 900.0);
  const int cluster = static_cast<int>(flags.get_int("cluster", 20));
  const double slo_ms = flags.get_double("slo-ms", 250.0);
  const double peak_factor = flags.get_double("peak-factor", 0.80);

  bench::banner("Fig. 6 — end-to-end comparison, social-media pipeline");

  const auto graph = pipeline::social_media_pipeline();
  profile::ModelProfiler profiler;
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);

  serving::AllocatorConfig acfg;
  acfg.cluster_size = cluster;
  acfg.slo_s = slo_ms / 1e3;

  serving::MilpAllocator probe(acfg, &graph, profiles);
  const double cap_loki = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);
  baselines::InferLineStrategy il_probe(acfg, &graph, profiles);
  const double cap_il = exp::find_capacity(il_probe, 10.0, 30000.0, mult, 10.0);
  const double peak = peak_factor * cap_loki;
  std::printf("capacity: loki=%.0f QPS, inferline=%.0f QPS -> trace peak %.0f\n",
              cap_loki, cap_il, peak);

  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kTwitterBursty;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = peak;
  tcfg.burst_rate_per_hour = 12.0;
  tcfg.burst_magnitude = 0.35;
  tcfg.seed = 512;
  const auto curve = trace::generate_trace(tcfg);

  const char* kinds[] = {"loki-milp", "inferline", "proteus"};
  std::vector<exp::ExperimentResult> results(3);
  Team team(3);
  team.run(3, [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = kinds[i];
    cfg.system_cfg.allocator = acfg;
    cfg.system_cfg.metrics_window_s = duration_s / 120.0;
    results[i] = exp::run_experiment(graph, curve, cfg);
  });

  std::printf("\n%-10s %10s %10s %10s %10s %10s\n", "system", "violations",
              "accuracy", "servers", "p99(ms)", "queries");
  for (const auto& r : results) {
    std::printf("%-10s %10.4f %10.4f %10.2f %10.1f %10llu\n",
                r.system_name.c_str(), r.slo_violation_ratio, r.mean_accuracy,
                r.mean_servers_used, r.p99_latency_s * 1e3,
                static_cast<unsigned long long>(r.arrivals));
    bench::write_timeseries_csv(
        bench::output_dir() + "/fig6_social_" + r.system_name + ".csv",
        r.metrics);
    bench::write_stage_breakdown_csv(
        bench::output_dir() + "/fig6_stages_" + r.system_name + ".csv",
        r.obs);
  }

  const auto& loki_r = results[0];
  const auto& pr_r = results[2];
  std::printf("\neffective capacity gain vs InferLine : %.2fx  [paper 2.7x]\n",
              cap_il > 0 ? cap_loki / cap_il : 0.0);
  double min_acc = 1.0;
  for (const auto& p : loki_r.metrics.accuracy_series().points()) {
    min_acc = std::min(min_acc, p.v);
  }
  std::printf("accuracy sacrificed at peak          : %.1f%%  [paper ~10%%]\n",
              100.0 * (1.0 - min_acc));
  std::printf("SLO-violation reduction vs Proteus   : %.1fx  [paper ~10x]\n",
              loki_r.slo_violation_ratio > 0
                  ? pr_r.slo_violation_ratio / loki_r.slo_violation_ratio
                  : 0.0);
  return 0;
}
