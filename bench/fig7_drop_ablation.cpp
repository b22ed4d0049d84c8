// Fig. 7 reproduction: ablation of the Load Balancer's early-dropping
// mechanisms (§5.2 / §6.3) — no early dropping, last-task dropping,
// per-task dropping, and early dropping with opportunistic rerouting.
//
// The paper runs the traffic pipeline under pressure and reports the SLO
// violation ratio per policy, with opportunistic rerouting lowest. We use a
// bursty trace near the accuracy-scaling capacity so transient overloads
// exercise the policies.
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
  const double peak_factor = flags.get_double("peak-factor", 0.92);

  bench::banner("Fig. 7 — early-dropping ablation (traffic pipeline)");

  const auto graph = pipeline::traffic_analysis_pipeline();
  profile::ModelProfiler profiler;
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);

  serving::AllocatorConfig acfg;
  acfg.cluster_size = cluster;
  serving::MilpAllocator probe(acfg, &graph, profiles);
  const double cap = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);

  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kTwitterBursty;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = peak_factor * cap;
  tcfg.burst_rate_per_hour = 40.0;
  tcfg.burst_magnitude = 0.45;
  tcfg.seed = 77;
  const auto curve = trace::generate_trace(tcfg);

  const serving::DropPolicy policies[] = {
      serving::DropPolicy::kNone, serving::DropPolicy::kLastTask,
      serving::DropPolicy::kPerTask,
      serving::DropPolicy::kOpportunisticReroute};
  std::vector<exp::ExperimentResult> results(4);
  Team team(4);
  team.run(4, [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = "loki-milp";
    cfg.system_cfg.allocator = acfg;
    cfg.system_cfg.drop_policy = policies[i];
    results[i] = exp::run_experiment(graph, curve, cfg);
  });

  CsvTable csv({"policy", "slo_violation_ratio", "late", "dropped",
                "accuracy"});
  std::printf("\n%-28s %12s %8s %8s %9s\n", "policy", "violations", "late",
              "dropped", "accuracy");
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = results[i];
    const std::string name = serving::to_string(policies[i]);
    std::printf("%-28s %12.4f %8llu %8llu %9.4f\n", name.c_str(),
                r.slo_violation_ratio,
                static_cast<unsigned long long>(r.metrics.late()),
                static_cast<unsigned long long>(r.drops),
                r.mean_accuracy);
    csv.add_row({name, r.slo_violation_ratio,
                 static_cast<std::int64_t>(r.metrics.late()),
                 static_cast<std::int64_t>(r.drops), r.mean_accuracy});
  }
  csv.write(bench::output_dir() + "/fig7_drop_ablation.csv");
  std::printf("\n  wrote %s/fig7_drop_ablation.csv\n",
              bench::output_dir().c_str());
  std::printf("  expected ordering (paper): none >= last-task >= per-task >="
              " opportunistic rerouting\n");
  return 0;
}
