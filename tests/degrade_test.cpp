// Graceful-degradation unit tests (ROADMAP item 4): the per-tier serve /
// shed probability fills (including the exact single-tier identities the
// passivity differentials rely on), the plan-validation gate, the
// deadline-enforced fallback chain over stub strategies (rung walk and its
// AllocationStrategy decorator face), the TierPlane driven directly, and the
// per-tier Metrics accounting with its merge.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "pipeline/pipelines.hpp"
#include "serving/degrade.hpp"
#include "serving/metrics.hpp"
#include "serving/types.hpp"

namespace loki::serving {
namespace {

// ---------------------------------------------------------------------------
// tier_serve_probs / tier_shed_probs
// ---------------------------------------------------------------------------

TEST(TierServeProbs, SingleTierReproducesServeFracExactly) {
  // The passivity keystone: with all traffic in tier 0, the tier-0 serve
  // probability must equal the plan's served fraction bit-for-bit, so the
  // armed single-tier path makes the exact comparison the untiered path
  // makes (take/share with share == 1, not 1 - (1 - f)).
  const double fracs[] = {0.0, 0.1237654321, 0.5, 0.999999999, 1.0};
  for (double f : fracs) {
    const auto probs = tier_serve_probs(f, {1.0, 0.0, 0.0});
    EXPECT_EQ(probs[0], f);
  }
}

TEST(TierServeProbs, GrantsBudgetHighestTierFirst) {
  // Serve budget 0.5 over shares {0.2, 0.4, 0.4}: tier 0 fully served,
  // tier 1 gets the remaining 0.3 of its 0.4 share, tier 2 nothing.
  const auto probs = tier_serve_probs(0.5, {0.2, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.3 / 0.4);
  EXPECT_DOUBLE_EQ(probs[2], 0.0);
}

TEST(TierServeProbs, ZeroShareTierServesOnlyWhileBudgetRemains) {
  // No observed tier-1 traffic: a stray tier-1 query is served while budget
  // remains after the higher tier, shed once the budget is exhausted.
  const auto some = tier_serve_probs(0.5, {0.2, 0.0, 0.8});
  EXPECT_DOUBLE_EQ(some[1], 1.0);
  const auto none = tier_serve_probs(0.2, {0.2, 0.0, 0.8});
  EXPECT_DOUBLE_EQ(none[1], 0.0);
}

TEST(TierServeProbs, ClampsServeFraction) {
  EXPECT_DOUBLE_EQ(tier_serve_probs(-0.5, {1.0, 0.0, 0.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(tier_serve_probs(1.5, {0.5, 0.5, 0.0})[1], 1.0);
}

TEST(TierShedProbs, SingleTierReproducesShedFracExactly) {
  const double fracs[] = {0.0, 0.087654321, 0.42, 1.0};
  for (double f : fracs) {
    const auto probs = tier_shed_probs(f, {1.0, 0.0, 0.0});
    EXPECT_EQ(probs[0], f);
  }
}

TEST(TierShedProbs, TakesBudgetLowestTierFirst) {
  // Shed budget 0.3 over shares {0.2, 0.4, 0.4}: all of it lands on tier 2
  // (0.3 of its 0.4 share); tiers 0 and 1 shed nothing.
  const auto probs = tier_shed_probs(0.3, {0.2, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(probs[2], 0.3 / 0.4);
  EXPECT_DOUBLE_EQ(probs[1], 0.0);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
}

TEST(TierShedProbs, ShedReachesStrictTierOnlyAfterLowerTiersExhausted) {
  // Budget 0.7 over {0.2, 0.4, 0.4}: tier 2 fully shed, tier 1 takes the
  // next 0.3, tier 0 untouched.
  const auto probs = tier_shed_probs(0.7, {0.2, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(probs[2], 1.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.3 / 0.4);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
}

// ---------------------------------------------------------------------------
// validate_plan
// ---------------------------------------------------------------------------

AllocationPlan sound_plan() {
  AllocationPlan plan;
  plan.feasible = true;
  plan.served_fraction = 1.0;
  plan.expected_accuracy = 0.9;
  plan.instances.push_back({0, 0, 4, 2});
  plan.instances.push_back({1, 0, 4, 2});
  plan.latency_budget_s[{0, 0}] = 0.1;
  plan.latency_budget_s[{1, 0}] = 0.1;
  return plan;
}

TEST(ValidatePlan, AcceptsSoundPlan) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  EXPECT_EQ(validate_plan(sound_plan(), graph, 8), nullptr);
}

TEST(ValidatePlan, RejectsBrokenPlans) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();

  auto infeasible = sound_plan();
  infeasible.feasible = false;
  EXPECT_NE(validate_plan(infeasible, graph, 8), nullptr);

  auto bad_served = sound_plan();
  bad_served.served_fraction = 1.5;
  EXPECT_NE(validate_plan(bad_served, graph, 8), nullptr);

  auto nan_served = sound_plan();
  nan_served.served_fraction = std::nan("");
  EXPECT_NE(validate_plan(nan_served, graph, 8), nullptr);

  auto bad_acc = sound_plan();
  bad_acc.expected_accuracy = 2.0;
  EXPECT_NE(validate_plan(bad_acc, graph, 8), nullptr);

  auto bad_task = sound_plan();
  bad_task.instances.push_back({7, 0, 4, 1});
  EXPECT_NE(validate_plan(bad_task, graph, 8), nullptr);

  auto neg_replicas = sound_plan();
  neg_replicas.instances[0].replicas = -1;
  EXPECT_NE(validate_plan(neg_replicas, graph, 8), nullptr);

  auto over_capacity = sound_plan();
  over_capacity.instances[0].replicas = 100;
  EXPECT_NE(validate_plan(over_capacity, graph, 8), nullptr);

  auto unhosted = sound_plan();
  unhosted.instances.pop_back();  // task 1 has no replicas
  EXPECT_NE(validate_plan(unhosted, graph, 8), nullptr);

  auto bad_budget = sound_plan();
  bad_budget.latency_budget_s[{0, 0}] = 0.0;
  EXPECT_NE(validate_plan(bad_budget, graph, 8), nullptr);
}

TEST(ValidatePlan, ZeroServedPlanMayPlaceNothing) {
  // A served_fraction ~ 0 overload plan legitimately hosts nothing.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  AllocationPlan plan;
  plan.feasible = true;
  plan.served_fraction = 0.0;
  EXPECT_EQ(validate_plan(plan, graph, 8), nullptr);
}

// ---------------------------------------------------------------------------
// PlanFallbackChain
// ---------------------------------------------------------------------------

/// Strategy stub returning a fixed plan with a fixed reported solve time.
class StubStrategy : public AllocationStrategy {
 public:
  StubStrategy(std::string name, AllocationPlan plan, double solve_s)
      : name_(std::move(name)), plan_(std::move(plan)), solve_s_(solve_s) {}

  PlanResult plan(const PlanRequest& request) override {
    ++calls_;
    PlanResult r;
    r.plan = plan_;
    r.plan.solve_time_s = solve_s_;
    r.epoch = request.epoch;
    return r;
  }
  std::string name() const override { return name_; }
  int calls() const { return calls_; }

 private:
  std::string name_;
  AllocationPlan plan_;
  double solve_s_;
  int calls_ = 0;
};

std::unique_ptr<StubStrategy> stub(const char* name, AllocationPlan plan,
                                   double solve_s) {
  return std::make_unique<StubStrategy>(name, std::move(plan), solve_s);
}

TEST(PlanFallbackChain, PrimaryWithinDeadlineWins) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto greedy_owned = stub("greedy", sound_plan(), 0.0);
  StubStrategy& greedy = *greedy_owned;
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", sound_plan(), 0.01), nullptr,
                          std::move(greedy_owned), /*deadline_s=*/1.0, &graph,
                          8, registry, "t");

  const auto out = chain.walk(PlanRequest{});
  EXPECT_EQ(out.rung, 0);
  EXPECT_EQ(out.fallbacks, 0);
  EXPECT_EQ(out.rejects, 0);
  EXPECT_FALSE(out.retained_previous);
  EXPECT_EQ(greedy.calls(), 0);
}

TEST(PlanFallbackChain, DeadlineMissWalksEveryRungToGreedy) {
  // Primary and near-warm both blow the epsilon deadline; greedy is exempt
  // from the deadline by design (the chain must never livelock), so it
  // terminates the chain at rung 2 with two fallbacks and no rejects.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto primary_owned = stub("primary", sound_plan(), 0.5);
  auto near_warm_owned = stub("near", sound_plan(), 0.5);
  auto greedy_owned = stub("greedy", sound_plan(), 0.5);
  StubStrategy& primary = *primary_owned;
  StubStrategy& near_warm = *near_warm_owned;
  StubStrategy& greedy = *greedy_owned;
  obs::Registry registry;
  PlanFallbackChain chain(std::move(primary_owned), std::move(near_warm_owned),
                          std::move(greedy_owned), /*deadline_s=*/1e-12,
                          &graph, 8, registry, "t");

  const auto out = chain.walk(PlanRequest{});
  EXPECT_EQ(out.rung, 2);
  EXPECT_EQ(out.fallbacks, 2);
  EXPECT_EQ(out.rejects, 0);
  EXPECT_EQ(primary.calls(), 1);
  EXPECT_EQ(near_warm.calls(), 1);
  EXPECT_EQ(greedy.calls(), 1);
}

TEST(PlanFallbackChain, ValidationRejectFallsThrough) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto broken = sound_plan();
  broken.served_fraction = 2.0;  // fails the gate
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", broken, 0.0), nullptr,
                          stub("greedy", sound_plan(), 0.0), 0.0, &graph, 8,
                          registry, "t");

  const auto out = chain.walk(PlanRequest{});
  EXPECT_EQ(out.rung, 2);
  EXPECT_EQ(out.fallbacks, 1);
  EXPECT_EQ(out.rejects, 1);
  EXPECT_DOUBLE_EQ(out.result.plan.served_fraction, 1.0);
}

TEST(PlanFallbackChain, AllRungsFailRetainsPreviousPlan) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto broken = sound_plan();
  broken.feasible = false;
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", broken, 0.0), nullptr,
                          stub("greedy", broken, 0.0), 0.0, &graph, 8,
                          registry, "t");

  auto previous = sound_plan();
  previous.expected_accuracy = 0.77;
  previous.solve_time_s = 3.0;
  PlanRequest req;
  req.epoch = 9;
  req.previous_plan = &previous;

  const auto out = chain.walk(req);
  EXPECT_EQ(out.rung, 3);
  EXPECT_TRUE(out.retained_previous);
  EXPECT_EQ(out.fallbacks, 2);
  EXPECT_EQ(out.rejects, 2);
  EXPECT_EQ(out.result.epoch, 9);
  EXPECT_TRUE(out.result.plan.feasible);
  EXPECT_DOUBLE_EQ(out.result.plan.expected_accuracy, 0.77);
  // The retained plan is a reuse, not a solve.
  EXPECT_DOUBLE_EQ(out.result.plan.solve_time_s, 0.0);
}

TEST(PlanFallbackChain, NoPreviousPlanYieldsInfeasiblePlaceholder) {
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto broken = sound_plan();
  broken.feasible = false;
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", broken, 0.0), nullptr, nullptr, 0.0,
                          &graph, 8, registry, "t");

  const auto out = chain.walk(PlanRequest{});
  EXPECT_EQ(out.rung, 3);
  EXPECT_TRUE(out.retained_previous);
  EXPECT_FALSE(out.result.plan.feasible);
}

TEST(PlanFallbackChain, CapacityGateTracksAvailableWorkers) {
  // A degraded epoch (available_workers < cluster) must reject plans sized
  // for the full cluster: the gate runs against the effective capacity.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto full = sound_plan();  // 4 replicas
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", full, 0.0), nullptr, nullptr, 0.0,
                          &graph, 8, registry, "t");

  PlanRequest req;
  req.available_workers = 3;
  const auto out = chain.walk(req);
  EXPECT_EQ(out.rung, 3);
  EXPECT_EQ(out.rejects, 1);
}

TEST(PlanFallbackChain, DecoratorForwardsNameAndCountsUnderPrefix) {
  // As an AllocationStrategy the chain reports the primary's name, returns
  // the winning rung's plan, and counts each outcome in the registry under
  // the prefix it was given — and nowhere else.
  const auto graph = pipeline::traffic_analysis_two_task_pipeline();
  auto broken = sound_plan();
  broken.served_fraction = 2.0;
  auto greedy_plan = sound_plan();
  greedy_plan.expected_accuracy = 0.5;
  obs::Registry registry;
  PlanFallbackChain chain(stub("primary", broken, 0.0),
                          stub("near", sound_plan(), 0.5),
                          stub("greedy", greedy_plan, 0.0),
                          /*deadline_s=*/0.1, &graph, 8, registry, "p.q");
  EXPECT_EQ(chain.name(), "primary");
  AllocationStrategy& strategy = chain;

  // Primary rejected, near-warm over the deadline: greedy's plan wins.
  const PlanResult first = strategy.plan(PlanRequest{});
  EXPECT_DOUBLE_EQ(first.plan.expected_accuracy, 0.5);
  // At 3 workers the primary and greedy fail the capacity gate and
  // near-warm misses the deadline again: the previous plan is retained.
  PlanRequest degraded;
  degraded.available_workers = 3;
  degraded.previous_plan = &first.plan;
  const PlanResult second = strategy.plan(degraded);
  EXPECT_DOUBLE_EQ(second.plan.expected_accuracy, 0.5);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("p.q.plan_fallbacks"), 2u + 3u);
  EXPECT_EQ(snap.counter_value("p.q.plan_rejects"), 1u + 2u);
  EXPECT_EQ(snap.counter_value("p.q.plan_retained"), 1u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_TRUE(name.rfind("p.q.plan_", 0) == 0 ||
                name.rfind("obs.self.", 0) == 0)
        << "unexpected series " << name;
  }
}

// ---------------------------------------------------------------------------
// TierPlane
// ---------------------------------------------------------------------------

TEST(TierPlane, UnarmedFillsEqualBothFractionsAndNeverSheds) {
  // Tiers off: every tier draws against the raw fractions, bit-for-bit —
  // including values tier_serve_probs would clamp — admission never sheds,
  // and nothing is registered, whatever the rest of the policy says.
  obs::Registry registry;
  TierPolicy policy;
  policy.depth_watermark = {0.0, 0.0, 0.0};
  policy.remainder_priority = true;
  TierPlane plane(policy, registry, "serving");
  EXPECT_FALSE(plane.armed());
  const double cases[][2] = {
      {1.0, 0.0}, {0.1237654321, 0.087654321}, {0.0, 0.9}, {1.5, -0.25}};
  for (const auto& c : cases) {
    plane.record_arrival(2);
    plane.refresh(c[0], c[1]);
    for (int k = 0; k < kNumTiers; ++k) {
      EXPECT_EQ(plane.serve_fill(k), c[0]) << "tier " << k;
      EXPECT_EQ(plane.shed_fill(k), c[1]) << "tier " << k;
    }
    plane.fill(c[1], c[0]);
    for (int k = 0; k < kNumTiers; ++k) {
      EXPECT_EQ(plane.serve_fill(k), c[1]) << "tier " << k;
      EXPECT_EQ(plane.shed_fill(k), c[0]) << "tier " << k;
    }
  }
  for (int k = 0; k < kNumTiers; ++k) {
    for (int i = 0; i < 100000; ++i) plane.on_admit(k);
    EXPECT_TRUE(plane.admit(k, 0));
    EXPECT_TRUE(plane.admit(k, 1000));
    EXPECT_FALSE(plane.rescues_remainder(k));
  }
  for (const auto& [name, value] : registry.snapshot().counters) {
    EXPECT_EQ(name.find(".degrade."), std::string::npos) << name;
  }
}

TEST(TierPlane, FirstWindowSeedsSharesExactly) {
  obs::Registry registry;
  TierPolicy policy;
  policy.enabled = true;
  TierPlane plane(policy, registry, "serving");
  // An empty window leaves the {1, 0, 0} prior in place.
  plane.refresh(0.5, 0.0);
  EXPECT_EQ(plane.shares(), (std::array<double, kNumTiers>{1.0, 0.0, 0.0}));
  // The first non-empty window is taken verbatim, with no blend.
  plane.record_arrival(0);
  plane.record_arrival(1);
  plane.record_arrival(1);
  plane.record_arrival(2);
  plane.refresh(0.5, 0.3);
  EXPECT_EQ(plane.shares(),
            (std::array<double, kNumTiers>{0.25, 0.5, 0.25}));
  EXPECT_EQ(plane.serve_fill(0), tier_serve_probs(0.5, plane.shares())[0]);
  EXPECT_EQ(plane.serve_fill(1), tier_serve_probs(0.5, plane.shares())[1]);
  EXPECT_EQ(plane.shed_fill(2), tier_shed_probs(0.3, plane.shares())[2]);
  // A later, different window blends with the EWMA weight.
  for (int i = 0; i < 4; ++i) plane.record_arrival(2);
  plane.refresh(0.5, 0.0);
  const double a = TierPlane::kShareEwmaAlpha;
  EXPECT_EQ(plane.shares()[2], a * 1.0 + (1.0 - a) * 0.25);
  EXPECT_EQ(plane.shares()[0], a * 0.0 + (1.0 - a) * 0.25);
}

TEST(TierPlane, BitEqualWindowSkipsTheBlend) {
  // Single-tier traffic keeps the shares at exactly {1, 0, 0}: every window
  // bit-matches the estimate, so no blend ever runs, and the tier-0 fills
  // reproduce the untiered fractions exactly.
  obs::Registry registry;
  TierPolicy policy;
  policy.enabled = true;
  TierPlane plane(policy, registry, "serving");
  for (int window = 0; window < 50; ++window) {
    for (int i = 0; i < 7; ++i) plane.record_arrival(0);
    plane.refresh(0.1237654321, 0.087654321);
  }
  EXPECT_EQ(plane.shares(), (std::array<double, kNumTiers>{1.0, 0.0, 0.0}));
  EXPECT_EQ(plane.serve_fill(0), 0.1237654321);
  EXPECT_EQ(plane.shed_fill(0), 0.087654321);
}

TEST(TierPlane, ArmedWatermarkShedsAtPlannedDepthAndCounts) {
  obs::Registry registry;
  TierPolicy policy;
  policy.enabled = true;
  policy.depth_watermark = {4.0, 2.0, 0.5};
  policy.remainder_priority = true;
  TierPlane plane(policy, registry, "serving");
  // Tier 1 at 3 planned servers: cap 6 in flight.
  for (int i = 0; i < 5; ++i) plane.on_admit(1);
  EXPECT_TRUE(plane.admit(1, 3));
  plane.on_admit(1);
  EXPECT_FALSE(plane.admit(1, 3));
  plane.on_finalize(1);
  EXPECT_TRUE(plane.admit(1, 3));
  // Zero planned servers still admit against a one-server cap.
  EXPECT_TRUE(plane.admit(2, 0));
  plane.on_admit(2);
  EXPECT_FALSE(plane.admit(2, 0));
  EXPECT_TRUE(plane.rescues_remainder(0));
  EXPECT_FALSE(plane.rescues_remainder(1));
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("serving.degrade.admission_shed"), 2u);
  std::size_t degrade_series = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("serving.degrade.", 0) == 0) ++degrade_series;
  }
  EXPECT_EQ(degrade_series, 5u);
}

// ---------------------------------------------------------------------------
// Per-tier Metrics
// ---------------------------------------------------------------------------

TEST(TierMetrics, PerTierAccountingReconciles) {
  Metrics m(10.0);
  // Tier 0: two on-time. Tier 1: one late. Tier 2: one shed, one dropped.
  m.record_arrival(0.1, 0);
  m.record_arrival(0.2, 0);
  m.record_arrival(0.3, 1);
  m.record_arrival(0.4, 2);
  m.record_arrival(0.5, 2);
  m.record_outcome(1.0, QueryOutcome::kOnTime, 0.9, 0.05, LossCause::kCapacity,
                   0);
  m.record_outcome(1.1, QueryOutcome::kOnTime, 0.9, 0.05, LossCause::kCapacity,
                   0);
  m.record_outcome(1.2, QueryOutcome::kLate, 0.9, 0.40, LossCause::kCapacity,
                   1);
  m.record_outcome(1.3, QueryOutcome::kShed, 0.0, 0.0,
                   LossCause::kDegradedOverload, 2);
  m.record_outcome(1.4, QueryOutcome::kDropped, 0.0, 0.0,
                   LossCause::kCapacity, 2);

  for (int t = 0; t < kNumTiers; ++t) {
    const auto& tc = m.tier(t);
    EXPECT_EQ(tc.arrivals, tc.completions + tc.drops) << "tier " << t;
  }
  EXPECT_EQ(m.tier(0).on_time, 2u);
  EXPECT_EQ(m.tier(1).late, 1u);
  EXPECT_EQ(m.tier(2).shed, 1u);
  EXPECT_EQ(m.tier(2).drops, 2u);
  // Tier splits sum to the untiered totals.
  std::uint64_t arrivals = 0, drops = 0;
  for (const auto& tc : m.tiers()) {
    arrivals += tc.arrivals;
    drops += tc.drops;
  }
  EXPECT_EQ(arrivals, m.arrivals());
  EXPECT_EQ(drops, m.drops());

  EXPECT_DOUBLE_EQ(m.tier_attainment(0), 1.0);
  EXPECT_DOUBLE_EQ(m.tier_attainment(1), 0.0);  // late is not attained
  EXPECT_DOUBLE_EQ(m.tier_attainment(2), 0.0);
}

TEST(TierMetrics, AttainmentOfEmptyTierIsOne) {
  Metrics m(10.0);
  EXPECT_DOUBLE_EQ(m.tier_attainment(0), 1.0);
  EXPECT_DOUBLE_EQ(m.tier_attainment(2), 1.0);
}

TEST(TierMetrics, MergeAddsTierCountsComponentwise) {
  Metrics a(10.0), b(10.0);
  a.record_arrival(0.1, 1);
  a.record_outcome(0.5, QueryOutcome::kOnTime, 0.9, 0.05, LossCause::kCapacity,
                   1);
  b.record_arrival(0.2, 1);
  b.record_outcome(0.6, QueryOutcome::kShed, 0.0, 0.0, LossCause::kCapacity,
                   1);
  b.record_arrival(0.3, 2);
  b.record_outcome(0.7, QueryOutcome::kLate, 0.8, 0.3, LossCause::kCapacity,
                   2);
  a.flush(1.0);
  b.flush(1.0);
  a.merge(b);
  EXPECT_EQ(a.tier(1).arrivals, 2u);
  EXPECT_EQ(a.tier(1).on_time, 1u);
  EXPECT_EQ(a.tier(1).shed, 1u);
  EXPECT_EQ(a.tier(1).drops, 1u);
  EXPECT_EQ(a.tier(2).late, 1u);
  EXPECT_EQ(a.tier(2).completions, 1u);
}

TEST(TierMetrics, OutOfRangeTiersClampIntoValidRange) {
  Metrics m(10.0);
  m.record_arrival(0.1, -3);
  m.record_arrival(0.2, 99);
  EXPECT_EQ(m.tier(0).arrivals, 1u);
  EXPECT_EQ(m.tier(2).arrivals, 1u);
}

}  // namespace
}  // namespace loki::serving
