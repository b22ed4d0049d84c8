// Stateful planning API tests: the PlanRequest -> PlanResult contract, the
// string-keyed StrategyRegistry (keys are the single source of truth for
// strategy names), and the opt-in near-identical warm tier, whose plans
// must stay within the optimality gap of cold ones on a demand ramp. A
// golden 50-epoch trajectory on the 96-worker traffic pipeline pins every
// plan digest and solver work counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/plan_io.hpp"
#include "serving/strategy_registry.hpp"

namespace loki {
namespace {

struct Fixture {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_two_task_pipeline();
  serving::ProfileTable profiles;
  pipeline::MultFactorTable mult;
  serving::AllocatorConfig cfg;

  Fixture() {
    profiles = serving::build_profile_table(graph, profile::ModelProfiler());
    mult = pipeline::default_mult_factors(graph);
    cfg.cluster_size = 20;
  }
};

/// Serialized plan with wall-clock fields zeroed: bitwise plan comparison
/// must not depend on how long the solve took.
std::string comparable_text(const serving::AllocationPlan& plan) {
  serving::AllocationPlan p = plan;
  p.solve_time_s = 0.0;
  p.solver = serving::SolverStats{};
  return serving::plan_to_text(p);
}

// ---------------------------------------------------------------------------
// StrategyRegistry
// ---------------------------------------------------------------------------

TEST(StrategyRegistry, BuiltinsRegisteredUniqueAndConstructible) {
  exp::register_builtin_strategies();
  auto& registry = serving::StrategyRegistry::global();
  Fixture f;
  for (const char* name : {"loki-milp", "greedy", "inferline", "proteus"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    auto s = registry.create(name, f.cfg, &f.graph, f.profiles);
    ASSERT_NE(s, nullptr);
    // The registry key IS the strategy name — no second naming scheme.
    EXPECT_EQ(s->name(), name);
  }
  // names() reports every key exactly once (std::map keys are unique and
  // sorted; this guards the invariant against a future re-implementation).
  const auto names = registry.names();
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(StrategyRegistry, RejectsDuplicateRegistration) {
  exp::register_builtin_strategies();
  auto& registry = serving::StrategyRegistry::global();
  const bool added = registry.add(
      "loki-milp",
      [](const serving::AllocatorConfig&, const pipeline::PipelineGraph*,
         const serving::ProfileTable&)
          -> std::unique_ptr<serving::AllocationStrategy> { return nullptr; });
  EXPECT_FALSE(added);
  // Re-registering the builtins is an idempotent no-op.
  exp::register_builtin_strategies();
  Fixture f;
  auto s = registry.create("loki-milp", f.cfg, &f.graph, f.profiles);
  EXPECT_EQ(s->name(), "loki-milp");
}

TEST(StrategyRegistry, NamesRoundTripThroughExperimentConfig) {
  exp::register_builtin_strategies();
  Fixture f;
  for (const char* name : {"loki-milp", "greedy", "inferline", "proteus"}) {
    exp::ExperimentConfig cfg;
    cfg.system = name;  // the config stores the registry key verbatim
    auto s = exp::make_strategy(cfg.system, f.cfg, &f.graph, f.profiles);
    EXPECT_EQ(s->name(), cfg.system);
  }
}

TEST(StrategyRegistry, UnknownNameAborts) {
  exp::register_builtin_strategies();
  Fixture f;
  EXPECT_THROW(serving::StrategyRegistry::global().create(
                   "no-such-strategy", f.cfg, &f.graph, f.profiles),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// PlanRequest / PlanResult contract
// ---------------------------------------------------------------------------

TEST(PlanResult, ReportsPerStepBreakdown) {
  Fixture f;
  serving::MilpAllocator alloc(f.cfg, &f.graph, f.profiles);
  serving::PlanRequest req;
  req.demand_qps = 300.0;
  req.mult = f.mult;
  req.epoch = 7;
  const auto result = alloc.plan(req);
  EXPECT_EQ(result.epoch, 7);
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps.front().step, "hardware");
  // Exactly one step is selected, and it is the last one attempted.
  int selected = 0;
  for (const auto& s : result.steps) selected += s.selected ? 1 : 0;
  EXPECT_EQ(selected, 1);
  EXPECT_TRUE(result.steps.back().selected);
  // Aggregate counters equal the sum over steps and ride on the plan too.
  serving::SolverStats sum;
  for (const auto& s : result.steps) sum += s.solver;
  EXPECT_EQ(sum.milp_solves, result.solver.milp_solves);
  EXPECT_EQ(sum.lp_iterations, result.solver.lp_iterations);
  EXPECT_EQ(result.plan.solver.lp_iterations, result.solver.lp_iterations);
  EXPECT_GT(result.solver.milp_solves, 0);
}

TEST(PlanResult, PreviousPlanViewDrivesContinuity) {
  // The continuity bonus now comes from the request's previous-plan view,
  // not hidden allocator state: planning twice with the same request (no
  // previous plan) must give bit-identical results.
  Fixture f;
  serving::MilpAllocator a(f.cfg, &f.graph, f.profiles);
  serving::MilpAllocator b(f.cfg, &f.graph, f.profiles);
  serving::PlanRequest req;
  req.demand_qps = 900.0;
  req.mult = f.mult;
  const auto pa = a.plan(req).plan;
  const auto pb = b.plan(req).plan;
  EXPECT_EQ(comparable_text(pa), comparable_text(pb));
}

// ---------------------------------------------------------------------------
// Near-identical warm tier (opt-in)
// ---------------------------------------------------------------------------

TEST(NearWarmTier, DemandRampEngagesAndStaysWithinGap) {
  Fixture f;
  serving::AllocatorConfig near_cfg = f.cfg;
  near_cfg.near_warm_start = true;

  // The default config is the cold reference: it keeps no solver state
  // between plan() calls.
  serving::MilpAllocator near_alloc(near_cfg, &f.graph, f.profiles);
  serving::MilpAllocator cold_alloc(f.cfg, &f.graph, f.profiles);

  serving::SolverStats near_stats;
  serving::AllocationPlan near_prev, cold_prev;
  // Slow linear ramp inside the accuracy-scaling regime: every epoch the
  // demand (and hence the capacity-row coefficients) drifts while the
  // model's shape stays, which is exactly the near tier's territory.
  for (int e = 0; e < 20; ++e) {
    const double demand = 1200.0 + 10.0 * e;
    auto run = [&](serving::MilpAllocator& alloc,
                   serving::AllocationPlan& prev) {
      serving::PlanRequest req;
      req.demand_qps = demand;
      req.mult = f.mult;
      req.epoch = e;
      req.previous_plan = e > 0 ? &prev : nullptr;
      auto result = alloc.plan(req);
      prev = std::move(result.plan);
      return result;
    };
    auto near_res = run(near_alloc, near_prev);
    run(cold_alloc, cold_prev);
    near_stats += near_res.solver;

    // The near tier solves the *current* model exactly; only tie-breaking
    // within the MILP optimality gap may differ from a cold solve.
    ASSERT_EQ(static_cast<int>(near_prev.mode),
              static_cast<int>(cold_prev.mode));
    EXPECT_NEAR(near_prev.expected_accuracy, cold_prev.expected_accuracy,
                2.0 * serving::kPlanGapTol + 1e-9)
        << "epoch " << e << " demand " << demand;
    EXPECT_NEAR(near_prev.served_fraction, cold_prev.served_fraction, 1e-9);
  }
  // The tier actually engaged.
  EXPECT_GT(near_stats.near_warm_hits, 0);
}

// ---------------------------------------------------------------------------
// Golden planner trajectory
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a over a plan's text: a compact, exact fingerprint of every field.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One control epoch of the golden trajectory: the demand fed to plan() and
/// everything it must reproduce.
struct GoldenEpoch {
  double demand_qps;
  std::uint64_t plan_digest;  // fnv1a(comparable_text(plan))
  int lp_iterations;
  int nodes_explored;
  int milp_solves;
  int warm_start_hits;
  int epoch_warm_hits;
  int epoch_cache_skips;
};

// Demand: the replan-storm shape (Twitter-bursty, peak 5000 qps, 120
// bursts/hour, seed 5), sampled every 6 s over 300 s and rounded to 250 qps,
// so that flat stretches repeat a demand. A repeat re-solves in full: the
// planner keeps no solver state between calls (in a run, the Resource
// Manager keeps its plan inside the hysteresis band instead).
constexpr GoldenEpoch kGoldenTrajectory[] = {
    {1500, 0x5616a4b7983b72a5ull, 0, 3, 3, 0, 0, 0},
    {1500, 0x5616a4b7983b72a5ull, 0, 3, 3, 0, 0, 0},
    {1500, 0x5616a4b7983b72a5ull, 0, 3, 3, 0, 0, 0},
    {1500, 0x5616a4b7983b72a5ull, 0, 3, 3, 0, 0, 0},
    {1500, 0x5616a4b7983b72a5ull, 0, 3, 3, 0, 0, 0},
    {3250, 0x6884bbb4db330e96ull, 3671, 413, 9, 404, 0, 0},
    {6500, 0x78f62885327f4f60ull, 788, 135, 9, 126, 0, 0},
    {4750, 0x3916b3323c475bbaull, 2882, 604, 9, 595, 0, 0},
    {3250, 0x668928f02a37e1eaull, 3987, 482, 9, 473, 0, 0},
    {4250, 0x8d8a09012c40999dull, 2545, 519, 9, 510, 0, 0},
    {5000, 0x2a4fe79e9fdc877bull, 2244, 485, 9, 476, 0, 0},
    {5500, 0x3cfbb6275795bfd1ull, 1813, 485, 9, 476, 0, 0},
    {6500, 0xbcd26741d96418c9ull, 628, 138, 9, 129, 0, 0},
    {7250, 0x28d9587e95ffc6abull, 2819, 1287, 21, 1272, 0, 0},
    {8500, 0xf2d90a9658af2c2eull, 2892, 1285, 21, 1270, 0, 0},
    {9000, 0xbf8585ee65a95e7bull, 3130, 1301, 21, 1286, 0, 0},
    {9000, 0x55eed905db750c07ull, 3075, 1301, 21, 1286, 0, 0},
    {8750, 0xf768d7408ab0099eull, 2989, 1311, 21, 1296, 0, 0},
    {9500, 0xc9486e1da8ee8e0cull, 2946, 1449, 21, 1434, 0, 0},
    {9250, 0x654b7f17602fad31ull, 2960, 1323, 21, 1308, 0, 0},
    {10000, 0x2ec1ff0a0e8520a3ull, 2917, 1283, 21, 1268, 0, 0},
    {9500, 0xc9486e1da8ee8e0cull, 2924, 1449, 21, 1434, 0, 0},
    {8000, 0x828fa89b7863ccf7ull, 2953, 1285, 21, 1270, 0, 0},
    {7750, 0x83037c920a2b1370ull, 3003, 1333, 21, 1318, 0, 0},
    {6000, 0xd1e009e4864ff35cull, 1045, 247, 9, 238, 0, 0},
    {4750, 0x3916b3323c475bbaull, 2721, 561, 9, 552, 0, 0},
    {4500, 0x9477f4a0c0d247cdull, 2830, 533, 9, 524, 0, 0},
    {3750, 0x4c95ee3340d88bcaull, 3785, 577, 9, 568, 0, 0},
    {2750, 0xfe1e52b8316a3df5ull, 3510, 428, 9, 419, 0, 0},
    {2250, 0xccd86d35ca5b8d6full, 1277, 167, 9, 158, 0, 0},
    {2000, 0x1212bb1414108fe6ull, 2454, 287, 9, 278, 0, 0},
    {2000, 0x1212bb1414108fe6ull, 2454, 287, 9, 278, 0, 0},
    {2000, 0x1212bb1414108fe6ull, 2454, 287, 9, 278, 0, 0},
    {2000, 0x1212bb1414108fe6ull, 2454, 287, 9, 278, 0, 0},
    {2500, 0x0b083ae350c6f737ull, 2050, 324, 9, 315, 0, 0},
    {3000, 0x56c1937520f8ddafull, 2103, 262, 9, 253, 0, 0},
    {3500, 0x1c75bc306cb515a1ull, 4560, 723, 9, 714, 0, 0},
    {4250, 0x0f7e3573bc289137ull, 2627, 440, 9, 431, 0, 0},
    {4750, 0x3916b3323c475bbaull, 3171, 604, 9, 595, 0, 0},
    {6000, 0xd1e009e4864ff35cull, 1090, 247, 9, 238, 0, 0},
    {6000, 0xd1e009e4864ff35cull, 1030, 247, 9, 238, 0, 0},
    {6250, 0x363171f451d58349ull, 1026, 247, 9, 238, 0, 0},
    {5750, 0xd641de665b0f0882ull, 1656, 476, 9, 467, 0, 0},
    {5750, 0xd641de665b0f0882ull, 1755, 434, 9, 425, 0, 0},
    {5500, 0x3cfbb6275795bfd1ull, 1883, 485, 9, 476, 0, 0},
    {5000, 0x2a4fe79e9fdc877bull, 2539, 485, 9, 476, 0, 0},
    {4000, 0x51d037a03192a0baull, 3632, 502, 9, 493, 0, 0},
    {3500, 0x114c752f750ee3cbull, 4501, 723, 9, 714, 0, 0},
    {3000, 0x24456944cb437933ull, 1762, 228, 9, 219, 0, 0},
    {2250, 0xccd86d35ca5b8d6full, 1277, 167, 9, 158, 0, 0},
};

}  // namespace

TEST(PlannerTrajectory, GoldenPlansAndSolverWork) {
  // The MILP planner is deterministic down to the last pivot: every plan
  // and every work counter of this 50-epoch run on 96 workers of the
  // traffic pipeline is pinned. A change to the simplex or branch-and-bound
  // kernels that claims to be a pure speedup must leave this table
  // untouched.
  const pipeline::PipelineGraph graph = pipeline::traffic_analysis_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  const pipeline::MultFactorTable mult = pipeline::default_mult_factors(graph);
  serving::AllocatorConfig cfg;
  cfg.cluster_size = 96;
  cfg.slo_s = 0.250;
  serving::MilpAllocator alloc(cfg, &graph, profiles);

  int modes[3] = {0, 0, 0};
  serving::AllocationPlan prev;
  int epoch = 0;
  for (const GoldenEpoch& g : kGoldenTrajectory) {
    serving::PlanRequest req;
    req.demand_qps = g.demand_qps;
    req.mult = mult;
    req.epoch = epoch;
    req.previous_plan = epoch > 0 ? &prev : nullptr;
    serving::PlanResult r = alloc.plan(req);
    ++modes[static_cast<int>(r.plan.mode)];
    EXPECT_EQ(fnv1a(comparable_text(r.plan)), g.plan_digest)
        << "epoch " << epoch;
    EXPECT_EQ(r.solver.lp_iterations, g.lp_iterations) << "epoch " << epoch;
    EXPECT_EQ(r.solver.nodes_explored, g.nodes_explored) << "epoch " << epoch;
    EXPECT_EQ(r.solver.milp_solves, g.milp_solves) << "epoch " << epoch;
    EXPECT_EQ(r.solver.warm_start_hits, g.warm_start_hits) << "epoch " << epoch;
    EXPECT_EQ(r.solver.epoch_warm_hits, g.epoch_warm_hits) << "epoch " << epoch;
    EXPECT_EQ(r.solver.epoch_cache_skips, g.epoch_cache_skips)
        << "epoch " << epoch;
    prev = std::move(r.plan);
    ++epoch;
  }
  // The trajectory crosses all three scaling steps of §4.1.
  EXPECT_GT(modes[static_cast<int>(serving::ScalingMode::kHardware)], 0);
  EXPECT_GT(modes[static_cast<int>(serving::ScalingMode::kAccuracy)], 0);
  EXPECT_GT(modes[static_cast<int>(serving::ScalingMode::kOverload)], 0);
}

// ---------------------------------------------------------------------------
// Cold allocation work
// ---------------------------------------------------------------------------

namespace {

/// One cold three-step allocation and the work it must reproduce.
struct ColdSolve {
  double demand_qps;
  serving::ScalingMode mode;
  int lp_iterations;
  int nodes_explored;
  int milp_solves;
  int warm_start_hits;
  int cold_solves;
};

// The four-task traffic pipeline on 20 workers, one demand per scaling
// regime of §4.1.
constexpr ColdSolve kColdSolves[] = {
    {100, serving::ScalingMode::kHardware, 0, 3, 3, 0, 3},
    {900, serving::ScalingMode::kAccuracy, 2729, 493, 9, 484, 9},
    {5000, serving::ScalingMode::kOverload, 3579, 1449, 21, 1434, 15},
};

}  // namespace

TEST(ColdAllocationWork, FirstEpochSolvesArePinnedPerRegime) {
  // The cost of a first-epoch plan: every step pays a full solve, the
  // number the paper's ~500 ms budget (§6.5) is about. PlannerTrajectory
  // covers re-plans against a previous plan on 96 workers; this pins the
  // first-epoch plan per regime, so a regression in one regime cannot hide
  // behind a gain in another.
  const pipeline::PipelineGraph graph = pipeline::traffic_analysis_pipeline();
  const serving::ProfileTable profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  serving::AllocatorConfig cfg;
  cfg.cluster_size = 20;
  const pipeline::MultFactorTable mult = pipeline::default_mult_factors(graph);
  serving::MilpAllocator alloc(cfg, &graph, profiles);
  for (const ColdSolve& c : kColdSolves) {
    SCOPED_TRACE("demand " + std::to_string(c.demand_qps));
    const serving::PlanRequest req{c.demand_qps, mult};
    // Nothing carries over between first-epoch requests, so a repeat on
    // the same allocator does the same work.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const serving::PlanResult r = alloc.plan(req);
      EXPECT_EQ(static_cast<int>(r.plan.mode), static_cast<int>(c.mode));
      EXPECT_EQ(r.solver.lp_iterations, c.lp_iterations);
      EXPECT_EQ(r.solver.nodes_explored, c.nodes_explored);
      EXPECT_EQ(r.solver.milp_solves, c.milp_solves);
      EXPECT_EQ(r.solver.warm_start_hits, c.warm_start_hits);
      EXPECT_EQ(r.solver.cold_solves, c.cold_solves);
    }
  }
}

// ---------------------------------------------------------------------------
// PlanRequest::task_arrivals_qps shape contract
// ---------------------------------------------------------------------------

TEST(PlanRequestShape, AcceptsEmptyOrPerTaskArrivalVectors) {
  // The contract: task_arrivals_qps is either empty (nothing observed yet)
  // or has exactly num_tasks entries — a zero-width observation window
  // produces a vector of zeros, never a shorter vector (regression: the
  // runtime used to hand strategies an *empty* vector mid-run, changing the
  // vector's size between epochs under strategies that index it by task).
  Fixture f;
  exp::register_builtin_strategies();
  for (const char* name : {"greedy", "proteus", "inferline", "loki-milp"}) {
    auto strategy = serving::StrategyRegistry::global().create(
        name, f.cfg, &f.graph, f.profiles);
    serving::PlanRequest req;
    req.demand_qps = 50.0;
    req.mult = f.mult;

    req.task_arrivals_qps = {};  // first epoch: nothing observed
    EXPECT_NO_THROW(strategy->plan(req)) << name;

    req.task_arrivals_qps.assign(
        static_cast<std::size_t>(f.graph.num_tasks()), 0.0);
    EXPECT_NO_THROW(strategy->plan(req)) << name;  // zero-window zeros
  }
}

TEST(PlanRequestShape, RejectsWrongSizedArrivalVector) {
  Fixture f;
  exp::register_builtin_strategies();
  for (const char* name : {"greedy", "proteus", "inferline", "loki-milp"}) {
    auto strategy = serving::StrategyRegistry::global().create(
        name, f.cfg, &f.graph, f.profiles);
    serving::PlanRequest req;
    req.demand_qps = 50.0;
    req.mult = f.mult;
    // One short of num_tasks: a strategy indexing by task would read out of
    // bounds, so the contract is enforced loudly at the API boundary.
    req.task_arrivals_qps.assign(
        static_cast<std::size_t>(f.graph.num_tasks()) - 1, 1.0);
    EXPECT_THROW(strategy->plan(req), CheckFailure) << name;
  }
}

}  // namespace
}  // namespace loki
