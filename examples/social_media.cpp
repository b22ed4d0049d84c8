// Social-media scenario (Fig. 2b): uploaded images are classified (ResNet)
// and captioned (CLIP-ViT). Twitter-like traffic is bursty — retweet storms
// spike demand for a minute or two — which is exactly where accuracy
// scaling shines: Loki absorbs the burst by briefly serving cheaper
// variants instead of dropping requests.
//
// This example compares Loki against the hardware-scaling-only baseline on
// the same bursty trace and reports how each handled the bursts.
//
// Run: ./build/examples/social_media [--duration 600] [--bursts 20]
#include <cstdio>

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
  const double bursts_per_hour = flags.get_double("bursts", 20.0);

  const auto graph = pipeline::social_media_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  const auto mult = pipeline::default_mult_factors(graph);

  serving::AllocatorConfig acfg;
  acfg.cluster_size = 20;
  serving::MilpAllocator probe(acfg, &graph, profiles);
  const double capacity = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);

  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kTwitterBursty;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = 0.75 * capacity;  // bursts push past this
  tcfg.burst_rate_per_hour = bursts_per_hour;
  tcfg.burst_magnitude = 0.6;
  const auto curve = trace::generate_trace(tcfg);
  std::printf("trace: peak %.0f QPS + retweet bursts (cluster capacity %.0f)\n",
              curve.peak(), capacity);

  exp::ExperimentResult loki_r, il_r;
  Team team(2);
  team.run(2, [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = i == 0 ? "loki-milp" : "inferline";
    cfg.system_cfg.allocator = acfg;
    (i == 0 ? loki_r : il_r) = exp::run_experiment(graph, curve, cfg);
  });

  std::printf("\n%-12s %12s %12s %12s\n", "system", "violations",
              "accuracy", "servers");
  for (const auto* r : {&loki_r, &il_r}) {
    std::printf("%-12s %12.4f %12.4f %12.2f\n", r->system_name.c_str(),
                r->slo_violation_ratio, r->mean_accuracy,
                r->mean_servers_used);
  }
  std::printf("\nDuring bursts Loki trades a little caption quality for "
              "latency; the\nhardware-only baseline has nothing to trade "
              "and violates SLOs instead.\n");
  return 0;
}
