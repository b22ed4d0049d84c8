// Fig. 10 (robustness suite): graceful degradation under a flash crowd —
// SLO tiers + priority-aware shedding vs the untiered system, with a worker
// crash in the middle of the burst.
//
// A constant in-capacity demand steps to ~2x capacity halfway through the
// run (an instant flash crowd held for the rest of the window); a block of
// workers crashes mid-burst and returns near its end. Each system runs
// twice: untiered (every query is equal, shedding is blind) and tiered with
// a {0.2, 0.4, 0.4} strict/standard/best-effort mix plus the control-plane
// fallback chain. The interesting comparison is where the unavoidable
// overload damage lands: the tiered runs concentrate it on the best-effort
// tiers while the strict tier rides out both the flash crowd and the crash.
//
// Output: one timeseries CSV per (system, arm) plus
// fig10_overload_degradation.csv with the per-tier summary. Hard invariants
// (checked, not just printed): exact per-tier accounting, zero strict-tier
// *policy* shed in every tiered run (the only strict-tier losses are
// crash-stranded queries whose deadline had already passed), and
// strict-tier SLO attainment >= 99% in the tiered greedy run (the bound
// TieredOverload.FlashCrowdKeepsStrictTierWhole pins on an 8-worker
// cluster).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/team.hpp"
#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/metrics.hpp"
#include "trace/generator.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double duration_s = flags.get_double("duration", 600.0);
  const int cluster = static_cast<int>(flags.get_int("cluster", 20));
  const int crashed = static_cast<int>(flags.get_int("crashed", 2));
  const double slo_ms = flags.get_double("slo-ms", 250.0);
  // base-factor is relative to the *probe* capacity (default mult factors);
  // the live system learns the real mult factors and saturates well below
  // the probe, so 0.25 puts the doubled burst right at the live latency
  // knee — the regime where priority-aware shedding decides who feels the
  // crowd (deep sustained saturation, where no admission policy can save
  // the strict tier, is covered by the integration tests instead).
  const double base_factor = flags.get_double("base-factor", 0.25);
  const double burst_factor = flags.get_double("burst-factor", 2.0);

  bench::banner("Fig. 10 — graceful degradation (flash crowd + crash)");

  const auto graph = pipeline::traffic_analysis_pipeline();
  profile::ModelProfiler profiler;
  const auto profiles = serving::build_profile_table(graph, profiler);
  const auto mult = pipeline::default_mult_factors(graph);

  serving::AllocatorConfig acfg;
  acfg.cluster_size = cluster;
  acfg.slo_s = slo_ms / 1e3;

  serving::MilpAllocator probe(acfg, &graph, profiles);
  const double cap = exp::find_capacity(probe, 10.0, 30000.0, mult, 10.0);

  // In-capacity plateau, instant step to burst_factor x the base demand at
  // the midpoint, held for the second half. The burst peak lands near the
  // live system's capacity knee — the regime where the latency transient
  // and the crash would break SLOs for everyone, and priority-aware
  // shedding decides who actually feels it. (Deep sustained saturation is
  // a different regime — no admission policy can save the strict tier when
  // the serve budget drops below its share; overload_degradation_test
  // covers that separately.)
  trace::TraceConfig tcfg;
  tcfg.shape = trace::TraceShape::kStep;
  tcfg.duration_s = duration_s;
  tcfg.peak_qps = burst_factor * base_factor * cap;
  tcfg.base_fraction = 1.0 / burst_factor;
  tcfg.noise_frac = 0.0;
  tcfg.seed = 10;
  const auto curve = trace::generate_trace(tcfg);

  // Crash a block of workers in the middle of the burst; recover near the
  // end so the post-recovery steady state is visible.
  const double t_crash = 0.625 * duration_s;
  const double t_recover = 0.875 * duration_s;
  fault::FaultPlan plan;
  for (int w = 0; w < crashed; ++w) {
    fault::append(plan, fault::crash_plan(w, t_crash, t_recover));
  }
  std::printf("base %.0f QPS -> burst %.0f QPS (probe capacity %.0f); %d/%d "
              "workers down over [%.0f, %.0f) s\n",
              base_factor * cap, burst_factor * base_factor * cap, cap,
              crashed, cluster, t_crash, t_recover);

  struct Arm {
    const char* system;
    bool tiered;
  };
  const Arm arms[] = {{"greedy", false}, {"greedy", true},
                      {"loki-milp", false}, {"loki-milp", true}};
  const std::size_t n = sizeof(arms) / sizeof(arms[0]);
  std::vector<exp::ExperimentResult> results(n);
  Team team(n);
  team.run(n, [&](std::size_t i) {
    exp::ExperimentConfig cfg;
    cfg.system = arms[i].system;
    cfg.system_cfg.allocator = acfg;
    cfg.fault_plan = plan;
    // Both arms plan on a 5 s period (bounds the replan lag after the
    // step) and exclude the cold-start transient from metrics — the first
    // few plans run on default mult factors, and their routing remainder
    // sheds tier-blind until the observed factors converge — so the
    // comparison isolates what the tiers buy.
    cfg.system_cfg.rm_period_s = 5.0;
    cfg.system_cfg.metrics_warmup_s = 30.0;
    if (arms[i].tiered) {
      cfg.tiers.enabled = true;
      cfg.tier_mix = {0.2, 0.4, 0.4};
      cfg.fallback.enabled = true;
      // Same standard/best-effort watermark tuning as
      // TieredOverload.FlashCrowdKeepsStrictTierWhole: tight watermarks
      // hold queue depth down so the strict tier (which jumps the
      // remaining backlog at batch formation) keeps its p99 under SLO.
      // The strict tier itself is effectively admission-exempt
      // here — with a long multi-worker outage the backlog can cross a
      // depth-64 watermark, and the figure's invariant is that only crash
      // losses ever touch tier 0.
      cfg.tiers.depth_watermark = {1024.0, 2.0, 0.5};
      // Routing-remainder draws (plan transiently under-covering demand
      // while observed mult factors converge) force-route strict-tier
      // arrivals instead of shedding them tier-blind.
      cfg.tiers.remainder_priority = true;
    }
    results[i] = exp::run_experiment(graph, curve, cfg);
  });

  CsvTable csv({"system", "tiered", "slo_violation_ratio", "completions",
                "drops", "shed", "tier0_attainment", "tier1_attainment",
                "tier2_attainment", "shed_tier0", "shed_tier1", "shed_tier2",
                "plan_fallbacks", "mean_accuracy"});
  std::printf("\n%-10s %-6s %10s %9s %7s %8s %8s %8s %8s\n", "system",
              "tiers", "violations", "compl", "drops", "attain0", "attain1",
              "attain2", "shed0");
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = results[i];
    const auto& m = r.metrics;

    // Exact accounting, per tier and in aggregate, tiered or not.
    LOKI_CHECK_MSG(m.completions() + r.drops == r.arrivals,
                   arms[i].system << " lost queries");
    std::uint64_t tier_arrivals = 0;
    for (int k = 0; k < serving::kNumTiers; ++k) {
      const auto& tc = m.tier(k);
      LOKI_CHECK_MSG(tc.arrivals == tc.completions + tc.drops,
                     arms[i].system << " tier " << k << " unreconciled");
      tier_arrivals += tc.arrivals;
    }
    LOKI_CHECK(tier_arrivals == r.arrivals);
    if (arms[i].tiered) {
      // Priority-aware shedding never touches the strict tier: every
      // strict-tier loss is a crash-stranded query whose deadline had
      // already passed (physically unsavable), never admission/overload
      // policy.
      LOKI_CHECK_MSG(m.tier(0).shed == m.tier(0).shed_failure,
                     arms[i].system << " policy-shed strict-tier queries");
    }

    const auto fallbacks =
        r.obs.counter_value("serving.degrade.plan_fallbacks");
    std::printf("%-10s %-6s %10.4f %9llu %7llu %8.4f %8.4f %8.4f %8llu\n",
                arms[i].system, arms[i].tiered ? "on" : "off",
                r.slo_violation_ratio,
                static_cast<unsigned long long>(m.completions()),
                static_cast<unsigned long long>(r.drops),
                m.tier_attainment(0), m.tier_attainment(1),
                m.tier_attainment(2),
                static_cast<unsigned long long>(m.tier(0).shed));
    csv.add_row({std::string(arms[i].system),
                 static_cast<std::int64_t>(arms[i].tiered ? 1 : 0),
                 r.slo_violation_ratio,
                 static_cast<std::int64_t>(m.completions()),
                 static_cast<std::int64_t>(r.drops),
                 static_cast<std::int64_t>(m.shed()),
                 m.tier_attainment(0), m.tier_attainment(1),
                 m.tier_attainment(2),
                 static_cast<std::int64_t>(m.tier(0).shed),
                 static_cast<std::int64_t>(m.tier(1).shed),
                 static_cast<std::int64_t>(m.tier(2).shed),
                 static_cast<std::int64_t>(fallbacks), r.mean_accuracy});
    bench::write_timeseries_csv(
        bench::output_dir() + "/fig10_" + std::string(arms[i].system) +
            (arms[i].tiered ? "_tiered" : "_untiered") + ".csv",
        r.metrics);
  }

  // The headline number: the tiered greedy run (the configuration the
  // overload bench gate pins) keeps the strict tier at >= 99% attainment
  // through a 2x flash crowd plus a mid-burst crash.
  LOKI_CHECK_MSG(results[1].metrics.tier_attainment(0) >= 0.99,
                 "strict-tier attainment fell below 99%: "
                     << results[1].metrics.tier_attainment(0));

  csv.write(bench::output_dir() + "/fig10_overload_degradation.csv");
  std::printf("\n  wrote %s/fig10_overload_degradation.csv\n",
              bench::output_dir().c_str());
  std::printf("  the tiered arms concentrate the overload damage on the\n"
              "  best-effort tiers; the strict tier rides out the flash\n"
              "  crowd and the crash at >= 99%% attainment.\n");
  return 0;
}
