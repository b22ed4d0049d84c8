// Graceful-degradation integration suite (ROADMAP item 4):
//
//  1. Degradation-off passivity differentials: arming the tier machinery
//     with inert watermarks over all-tier-0 traffic, plus the fallback
//     chain over a primary whose plans all validate, must leave every
//     simulation metric bit-identical to the default run at one shard and
//     at two, and must only ever *add* zero-valued serving.degrade.* series
//     to the obs snapshot.
//  2. Tiered overload under a pinned seed: per-tier accounting reconciles
//     exactly (arrivals == completions + drops per tier), tier splits sum
//     to the totals, and shedding falls strictly lowest-tier-first — the
//     strict tier never sheds while best-effort traffic absorbs the
//     overload.
//  3. Tier stamping is shard-count-invariant: the same seed produces the
//     same per-tier arrival counts at one shard and at two (tiers are drawn
//     in global arrival order, before the deal).
//  4. A primary whose every plan fails validation falls to the near-warm
//     rung, which lands each plan, at one shard and at two.
//  5. Tiers composed with a worker crash: stranded queries go through the
//     deterministic-backoff retry path and the run stays exactly
//     accounted.
//  6. Replay-driven arrivals: the experiment serves exactly the replay's
//     (timestamp, tier) sequence.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "exp/experiment.hpp"
#include "fault/plan.hpp"
#include "pipeline/pipelines.hpp"
#include "serving/metrics.hpp"
#include "serving/strategy_registry.hpp"
#include "tests/test_support.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"

namespace loki {
namespace {

// Fixed literal seeds for the scenarios whose outcomes are pinned below;
// every other case derives its seeds from test_seed().
constexpr std::uint64_t kPinnedQuietCurveSeed = 9101;
constexpr std::uint64_t kPinnedFlashCurveSeed = 9102;
constexpr std::uint64_t kPinnedArrivalSeed = 9103;

trace::DemandCurve od_curve(std::uint64_t seed) {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kConstant;
  cfg.duration_s = 60.0;
  // Same headroom rationale as the failure-recovery suite: the quiet greedy
  // run is near-clean, so degradation effects are unambiguous.
  cfg.peak_qps = 40.0;
  cfg.noise_frac = 0.0;
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

trace::DemandCurve od_curve() {
  return od_curve(test::test_seed("overload_degradation_curve"));
}

/// Sustained past-saturation overload: greedy on cluster 8 absorbs up to
/// ~650 QPS by degrading accuracy; at 750 QPS it must emit an overload plan
/// (served fraction ~0.4) and frontend shedding engages for the whole run.
trace::DemandCurve overload_curve() {
  trace::TraceConfig cfg;
  cfg.shape = trace::TraceShape::kConstant;
  cfg.duration_s = 60.0;
  cfg.peak_qps = 750.0;
  cfg.noise_frac = 0.0;
  cfg.seed = test::test_seed("overload_degradation_flood");
  return trace::generate_trace(cfg);
}

exp::ExperimentConfig od_config(std::uint64_t arrival_seed) {
  exp::ExperimentConfig cfg;
  cfg.system = "greedy";  // fast allocator keeps the suite cheap
  cfg.system_cfg.allocator.cluster_size = 8;
  cfg.system_cfg.allocator.slo_s = 0.250;
  cfg.arrivals.seed = arrival_seed;
  return cfg;
}

exp::ExperimentConfig od_config() {
  return od_config(test::test_seed("overload_degradation_arrivals"));
}

void expect_metrics_bit_identical(const exp::ExperimentResult& a,
                                  const exp::ExperimentResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.metrics.completions(), b.metrics.completions());
  EXPECT_EQ(a.metrics.shed(), b.metrics.shed());
  EXPECT_EQ(a.metrics.late(), b.metrics.late());
  EXPECT_EQ(a.metrics.violations(), b.metrics.violations());
  EXPECT_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.mean_servers_used, b.mean_servers_used);
}

/// Armed-but-inert degradation config: tiers enabled with watermarks no
/// queue can reach, over all-tier-0 traffic (empty tier_mix draws no RNG);
/// fallback chain enabled over a primary whose plans always validate, so the
/// primary plan always passes through. Nothing ever fires, so the run must
/// be bit-identical to the default.
exp::ExperimentConfig armed_inert(exp::ExperimentConfig cfg) {
  cfg.tiers.enabled = true;
  cfg.tiers.depth_watermark = {1e18, 1e18, 1e18};
  cfg.fallback.enabled = true;
  return cfg;
}

/// Every series present in `off` must appear in `armed` with the identical
/// value; series only in `armed` must be zero-valued degradation ones
/// (serving.degrade.*).
void expect_snapshot_superset(const obs::Snapshot& off,
                              const obs::Snapshot& armed) {
  for (const auto& [name, value] : off.counters) {
    EXPECT_EQ(armed.counter_value(name), value) << "counter " << name;
  }
  for (const auto& h : off.histograms) {
    const auto* ah = armed.find_histogram(h.name);
    ASSERT_NE(ah, nullptr) << "histogram " << h.name;
    EXPECT_EQ(ah->count, h.count) << "histogram " << h.name;
    EXPECT_EQ(ah->sum, h.sum) << "histogram " << h.name;
  }
  for (const auto& [name, value] : armed.counters) {
    if (off.counter_value(name) == value) continue;
    EXPECT_NE(name.find(".degrade."), std::string::npos)
        << "unexpected new counter " << name;
    EXPECT_EQ(value, 0u) << "inert degrade counter " << name << " moved";
  }
}

TEST(DegradePassivity, ArmedInertSequentialIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = od_curve();
  const auto off = exp::run_experiment(graph, curve, od_config());
  const auto armed = exp::run_experiment(graph, curve, armed_inert(od_config()));
  expect_metrics_bit_identical(off, armed);
  EXPECT_EQ(off.allocations, armed.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
  // The machinery was armed (series exist) but nothing fired.
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.admission_shed"), 0u);
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.plan_fallbacks"), 0u);
}

TEST(DegradePassivity, ArmedInertSequentialOnPinnedSeedsIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = od_curve(kPinnedQuietCurveSeed);
  const auto cfg = od_config(kPinnedArrivalSeed);
  const auto off = exp::run_experiment(graph, curve, cfg);
  const auto armed = exp::run_experiment(graph, curve, armed_inert(cfg));
  expect_metrics_bit_identical(off, armed);
  EXPECT_EQ(off.allocations, armed.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.admission_shed"), 0u);
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.plan_fallbacks"), 0u);
}

TEST(DegradePassivity, ArmedInertCoordinatedIsBitIdentical) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = od_curve();
  auto cfg = od_config();
  cfg.sim_shards = 2;
  cfg.sim_coordinated = true;
  const auto off = exp::run_experiment(graph, curve, cfg);
  const auto armed = exp::run_experiment(graph, curve, armed_inert(cfg));
  expect_metrics_bit_identical(off, armed);
  EXPECT_EQ(off.allocations, armed.allocations);
  expect_snapshot_superset(off.obs, armed.obs);
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.plan_fallbacks"), 0u);
  EXPECT_EQ(armed.obs.counter_value("serving.degrade.plan_retained"), 0u);
}

TEST(DegradePassivity, DefaultSnapshotHasNoDegradeSeries) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto off = exp::run_experiment(graph, od_curve(), od_config());
  for (const auto& [name, value] : off.obs.counters) {
    EXPECT_EQ(name.find(".degrade."), std::string::npos)
        << "default run registered degrade series " << name;
  }
}

// ---------------------------------------------------------------------------
// Tiered overload: priority-aware shedding + exact per-tier accounting
// ---------------------------------------------------------------------------

exp::ExperimentConfig tiered_overload_config() {
  auto cfg = od_config();
  cfg.tiers.enabled = true;
  cfg.tier_mix = {0.2, 0.4, 0.4};
  return cfg;
}

TEST(TieredOverload, PerTierAccountingReconcilesAndShedsLowestFirst) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto r =
      exp::run_experiment(graph, overload_curve(), tiered_overload_config());

  // The flood really overloads the plan: frontend overload shedding engaged.
  EXPECT_GT(r.obs.counter_value("serving.degrade.overload_shed"), 0u);

  // Exact accounting: per tier and in aggregate.
  std::uint64_t arrivals = 0, completions = 0, drops = 0, shed = 0;
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const auto& tc = r.metrics.tier(k);
    EXPECT_EQ(tc.arrivals, tc.completions + tc.drops) << "tier " << k;
    EXPECT_LE(tc.shed, tc.drops) << "tier " << k;
    EXPECT_EQ(tc.completions, tc.on_time + tc.late) << "tier " << k;
    arrivals += tc.arrivals;
    completions += tc.completions;
    drops += tc.drops;
    shed += tc.shed;
  }
  EXPECT_EQ(arrivals, r.arrivals);
  EXPECT_EQ(completions, r.metrics.completions());
  EXPECT_EQ(drops, r.drops);
  EXPECT_EQ(shed, r.metrics.shed());
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);

  // Every tier saw traffic under the {0.2, 0.4, 0.4} mix.
  for (int k = 0; k < serving::kNumTiers; ++k) {
    EXPECT_GT(r.metrics.tier(k).arrivals, 0u) << "tier " << k;
  }

  // Priority order: shed *rates* rise strictly with tier (at ~5x capacity
  // even the strict tier sheds — the serve budget is smaller than its share
  // — but always at a lower rate than the tiers below it), and SLO
  // attainment follows the same order.
  const auto& t0 = r.metrics.tier(0);
  const auto& t1 = r.metrics.tier(1);
  const auto& t2 = r.metrics.tier(2);
  const auto shed_rate = [](const serving::TierCounts& tc) {
    return tc.arrivals == 0
               ? 0.0
               : static_cast<double>(tc.shed) / static_cast<double>(tc.arrivals);
  };
  EXPECT_LE(shed_rate(t0), shed_rate(t1));
  EXPECT_LE(shed_rate(t1), shed_rate(t2));
  EXPECT_GE(r.metrics.tier_attainment(0), r.metrics.tier_attainment(1) - 1e-12);
  EXPECT_GE(r.metrics.tier_attainment(1), r.metrics.tier_attainment(2) - 1e-12);
}

TEST(TieredOverload, FlashCrowdKeepsStrictTierWhole) {
  // The pinned robustness scenario (fig10 plots its shape): in-capacity
  // base demand steps to ~2x at t = 60 s and holds, and a worker dies in the
  // middle of the burst. With tight best-effort watermarks, tier-priority
  // batch formation, and a 5 s planning period, the strict tier rides out
  // both the flash crowd and the crash: zero strict-tier sheds and >= 99%
  // SLO attainment, while the admission watermarks put the transient damage
  // on the best-effort tier.
  trace::TraceConfig tc;
  tc.shape = trace::TraceShape::kStep;
  tc.duration_s = 120.0;
  tc.peak_qps = 90.0;
  tc.base_fraction = 40.0 / 90.0;
  tc.noise_frac = 0.0;
  tc.seed = kPinnedFlashCurveSeed;
  const auto curve = trace::generate_trace(tc);
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();

  auto cfg = tiered_overload_config();
  cfg.arrivals.seed = kPinnedArrivalSeed;
  cfg.system_cfg.rm_period_s = 5.0;
  cfg.system_cfg.metrics_warmup_s = 10.0;
  cfg.tiers.depth_watermark = {64.0, 2.0, 0.5};
  cfg.fault_plan = fault::crash_plan(1, 75.0, 100.0);
  const auto r = exp::run_experiment(graph, curve, cfg);

  // Exact accounting through the burst and the crash.
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  std::uint64_t tier_arrivals = 0;
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const auto& tk = r.metrics.tier(k);
    EXPECT_EQ(tk.arrivals, tk.completions + tk.drops) << "tier " << k;
    tier_arrivals += tk.arrivals;
  }
  EXPECT_EQ(tier_arrivals, r.arrivals);

  // Shedding engaged (the burst overflows the best-effort watermark)...
  EXPECT_GT(r.obs.counter_value("serving.degrade.admission_shed"), 0u);
  EXPECT_GT(r.metrics.tier(2).shed, 100u);
  // ...but falls exclusively on tiers 1-2: the strict tier never sheds and
  // holds >= 99% SLO attainment through the crowd and the crash.
  EXPECT_EQ(r.metrics.tier(0).shed, 0u);
  EXPECT_GE(r.metrics.tier_attainment(0), 0.99);
  EXPECT_LE(r.metrics.tier(1).shed, r.metrics.tier(2).shed);
}

TEST(TieredOverload, TieredRunIsDeterministic) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = overload_curve();
  const auto a = exp::run_experiment(graph, curve, tiered_overload_config());
  const auto b = exp::run_experiment(graph, curve, tiered_overload_config());
  expect_metrics_bit_identical(a, b);
  for (int k = 0; k < serving::kNumTiers; ++k) {
    EXPECT_EQ(a.metrics.tier(k).arrivals, b.metrics.tier(k).arrivals);
    EXPECT_EQ(a.metrics.tier(k).shed, b.metrics.tier(k).shed);
    EXPECT_EQ(a.metrics.tier(k).completions, b.metrics.tier(k).completions);
  }
}

TEST(TieredOverload, TierStampingIsModeInvariant) {
  // Tiers are drawn in global arrival order before the deal to shards, so
  // one shard and two see the identical per-tier arrival counts.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = overload_curve();
  const auto seq =
      exp::run_experiment(graph, curve, tiered_overload_config());
  auto scfg = tiered_overload_config();
  scfg.sim_shards = 2;
  scfg.sim_coordinated = true;
  const auto sharded = exp::run_experiment(graph, curve, scfg);

  for (int k = 0; k < serving::kNumTiers; ++k) {
    EXPECT_EQ(seq.metrics.tier(k).arrivals, sharded.metrics.tier(k).arrivals)
        << "tier " << k;
  }
  // The sharded run keeps the aggregate reconciliation invariant too.
  EXPECT_EQ(sharded.metrics.completions() + sharded.drops, sharded.arrivals);
}

// ---------------------------------------------------------------------------
// Control-plane fallback chain: a primary whose plans fail validation
// ---------------------------------------------------------------------------

constexpr const char* kRejectedStrategy = "test-rejected";

/// A strategy whose every plan is infeasible, so the fallback chain's
/// validation gate rejects it at rung 0.
class RejectedStrategy : public serving::AllocationStrategy {
 public:
  serving::PlanResult plan(const serving::PlanRequest& req) override {
    serving::PlanResult r;
    r.plan.feasible = false;
    r.epoch = req.epoch;
    return r;
  }
  std::string name() const override { return kRejectedStrategy; }
};

/// od_config() planning with RejectedStrategy inside the fallback chain.
exp::ExperimentConfig rejected_primary_config() {
  serving::StrategyRegistry::global().add(
      kRejectedStrategy,
      [](const serving::AllocatorConfig&, const pipeline::PipelineGraph*,
         const serving::ProfileTable&) {
        return std::make_unique<RejectedStrategy>();
      });
  auto cfg = od_config();
  cfg.system = kRejectedStrategy;
  cfg.fallback.enabled = true;
  return cfg;
}

/// The chain's rung 1 planning on its own: od_config() with the near-warm
/// MILP as the strategy and no chain.
exp::ExperimentConfig near_warm_config() {
  auto cfg = od_config();
  cfg.system = "loki-milp";
  cfg.system_cfg.allocator.near_warm_start = true;
  return cfg;
}

TEST(FallbackChain, RejectedPrimaryLandsNearWarmRung) {
  // Every primary plan fails validation and the near-warm MILP rung lands
  // it: one fallback per planning event, the previous plan never retained,
  // and the run bit-identical to the near-warm MILP planning alone. Under
  // this overload greedy plans differently, so a plan that greedy landed
  // would break the identity. The run serves with exact accounting.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = overload_curve();
  const auto r = exp::run_experiment(graph, curve, rejected_primary_config());
  const auto near = exp::run_experiment(graph, curve, near_warm_config());

  EXPECT_GT(r.allocations, 0);
  EXPECT_EQ(r.obs.counter_value("serving.degrade.plan_fallbacks"),
            static_cast<std::uint64_t>(r.allocations));
  EXPECT_EQ(r.obs.counter_value("serving.degrade.plan_retained"), 0u);
  EXPECT_EQ(r.allocations, near.allocations);
  expect_metrics_bit_identical(r, near);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  EXPECT_GT(r.metrics.completions(), 0u);
}

TEST(FallbackChain, CoordinatedRejectedPrimaryLandsNearWarmRung) {
  // The control plane owns the chains and counts one fallback per slice
  // plan.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = overload_curve();
  auto cfg = rejected_primary_config();
  cfg.sim_shards = 2;
  cfg.sim_coordinated = true;
  const auto r = exp::run_experiment(graph, curve, cfg);
  auto near_cfg = near_warm_config();
  near_cfg.sim_shards = 2;
  near_cfg.sim_coordinated = true;
  const auto near = exp::run_experiment(graph, curve, near_cfg);

  EXPECT_GT(r.obs.counter_value("serving.degrade.plan_fallbacks"), 0u);
  EXPECT_EQ(r.obs.counter_value("serving.degrade.plan_fallbacks"),
            static_cast<std::uint64_t>(r.allocations));
  EXPECT_EQ(r.obs.counter_value("serving.degrade.plan_retained"), 0u);
  EXPECT_EQ(r.allocations, near.allocations);
  expect_metrics_bit_identical(r, near);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  EXPECT_GT(r.metrics.completions(), 0u);
}

// ---------------------------------------------------------------------------
// Tiers composed with the fault plane: backoff retries stay accounted
// ---------------------------------------------------------------------------

TEST(TieredFaults, CrashWithTiersKeepsExactPerTierAccounting) {
  // Worker crash without recovery while tiers are on: stranded queries go
  // through the deterministic-backoff retry path (serving.degrade.retries /
  // retry_given_up) and every query still terminates exactly once.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  const auto curve = od_curve();
  auto cfg = tiered_overload_config();
  cfg.fault_plan = fault::crash_plan(1, 30.0, 0.0);  // never recovers
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.obs.counter_value("serving.fault.crashes"), 1u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);
  for (int k = 0; k < serving::kNumTiers; ++k) {
    const auto& tc = r.metrics.tier(k);
    EXPECT_EQ(tc.arrivals, tc.completions + tc.drops) << "tier " << k;
  }
  // The crash stranded real work; with tiers on, every stranded item either
  // re-dispatches with backoff or gives up explicitly.
  const std::uint64_t retried = r.obs.counter_value("serving.degrade.retries");
  const std::uint64_t gave_up =
      r.obs.counter_value("serving.degrade.retry_given_up");
  EXPECT_GE(retried + gave_up, 1u);
  EXPECT_EQ(r.obs.counter_value("serving.fault.stranded_retried"), retried);
  EXPECT_GE(r.metrics.shed_by_failure(), 1u);

  // Deterministic end to end (backoff delays are fixed, not drawn).
  const auto r2 = exp::run_experiment(graph, curve, cfg);
  expect_metrics_bit_identical(r, r2);
  EXPECT_EQ(r2.obs.counter_value("serving.degrade.retries"), retried);
}

// ---------------------------------------------------------------------------
// Replay-driven arrivals
// ---------------------------------------------------------------------------

TEST(ReplayArrivals, ExperimentServesExactlyTheReplaySequence) {
  // 240 arrivals at 20 QPS with tiers cycling 0,1,2: the run must see
  // exactly those arrivals with exactly those tier stamps — no sampling.
  trace::QueryReplay replay;
  for (int i = 0; i < 240; ++i) {
    replay.rows.push_back({static_cast<double>(i) * 0.05, 0, i % 3});
  }
  const auto curve = trace::replay_demand_curve(replay, 1.0);
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto cfg = od_config();
  cfg.replay = replay;
  const auto r = exp::run_experiment(graph, curve, cfg);

  EXPECT_EQ(r.arrivals, 240u);
  EXPECT_EQ(r.metrics.tier(0).arrivals, 80u);
  EXPECT_EQ(r.metrics.tier(1).arrivals, 80u);
  EXPECT_EQ(r.metrics.tier(2).arrivals, 80u);
  EXPECT_EQ(r.metrics.completions() + r.drops, r.arrivals);

  // Replay runs are exactly reproducible (no arrival RNG at all).
  const auto r2 = exp::run_experiment(graph, curve, cfg);
  expect_metrics_bit_identical(r, r2);
}

}  // namespace
}  // namespace loki
