// §6.5 reproduction: runtime overhead of the two control-plane components.
// The paper measures ~500 ms per Resource Manager MILP solve (Gurobi) and
// ~0.15 ms per Load Balancer run (MostAccurateFirst).
//
// google-benchmark binary: reports per-invocation times for the full
// three-step MILP allocation, a single-step accuracy MILP, the greedy
// allocator, the MostAccurateFirst routing pass, and a raw simplex solve.
#include <benchmark/benchmark.h>

#include <utility>

#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/load_balancer.hpp"
#include "solver/simplex.hpp"

namespace {

using namespace loki;

struct Setup {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_pipeline();
  serving::ProfileTable profiles;
  pipeline::MultFactorTable mult;
  serving::AllocatorConfig cfg;

  Setup() {
    profiles = serving::build_profile_table(graph, profile::ModelProfiler());
    mult = pipeline::default_mult_factors(graph);
    cfg.cluster_size = 20;
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

// Full Resource Manager allocation (three steps over the budget grid) at a
// demand in the accuracy-scaling regime — the paper's ~500 ms number. The
// per-invocation solver counters (branch-and-bound nodes, simplex pivots,
// warm-start hits) ride along so pivot-count regressions are visible in the
// same report as wall time.
void BM_ResourceManagerMilp(benchmark::State& state) {
  auto& s = setup();
  // Cold re-plan: cross-epoch warm starts off, so every iteration pays the
  // full three-step solve (the paper's ~500 ms comparison point). The
  // steady-state path is measured by BM_ResourceManagerSteadyReplan.
  serving::AllocatorConfig cfg = s.cfg;
  cfg.warm_start_across_epochs = false;
  serving::MilpAllocator alloc(cfg, &s.graph, s.profiles);
  // No previous plan either: every iteration is the same first-epoch solve.
  const serving::PlanRequest req{static_cast<double>(state.range(0)), s.mult};
  serving::SolverStats last;
  for (auto _ : state) {
    auto plan = alloc.plan(req).plan;
    benchmark::DoNotOptimize(plan.servers_used);
    last = plan.solver;
  }
  state.counters["lp_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_iterations));
  state.counters["phase1_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_phase1_iterations));
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(last.nodes_explored));
  state.counters["warm_hits"] =
      benchmark::Counter(static_cast<double>(last.warm_start_hits));
  state.counters["cold_solves"] =
      benchmark::Counter(static_cast<double>(last.cold_solves));
  state.counters["devex_resets"] =
      benchmark::Counter(static_cast<double>(last.devex_resets));
  state.counters["presolve_rows_removed"] =
      benchmark::Counter(static_cast<double>(last.presolve_rows_removed));
  state.counters["presolve_cols_removed"] =
      benchmark::Counter(static_cast<double>(last.presolve_cols_removed));
  state.counters["near_warm_hits"] =
      benchmark::Counter(static_cast<double>(last.near_warm_hits));
}
BENCHMARK(BM_ResourceManagerMilp)
    ->Arg(100)    // hardware-scaling regime
    ->Arg(900)    // accuracy-scaling regime
    ->Arg(5000)   // overload regime
    ->Unit(benchmark::kMillisecond);

// Steady-state epoch re-plan: same demand every control epoch (within the
// hysteresis band nothing about the model changes), so after the first
// couple of plans the EpochContext warm-starts every step MILP from the
// previous epoch's basis. This is the latency the Resource Manager actually
// pays in the common no-news case.
void BM_ResourceManagerSteadyReplan(benchmark::State& state) {
  auto& s = setup();
  serving::MilpAllocator alloc(s.cfg, &s.graph, s.profiles);
  serving::PlanRequest req{static_cast<double>(state.range(0)), s.mult};
  // Prime: two epochs stabilize the previous-plan view (continuity bonus)
  // and retain the bases the timed epochs warm-start from. Every epoch
  // plans against the plan the one before it returned.
  serving::AllocationPlan prev = alloc.plan(req).plan;
  req.previous_plan = &prev;
  prev = alloc.plan(req).plan;
  serving::SolverStats last;
  for (auto _ : state) {
    auto plan = alloc.plan(req).plan;
    benchmark::DoNotOptimize(plan.servers_used);
    last = plan.solver;
    prev = std::move(plan);
  }
  state.counters["lp_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_iterations));
  state.counters["epoch_warm_hits"] =
      benchmark::Counter(static_cast<double>(last.epoch_warm_hits));
  state.counters["epoch_cache_skips"] =
      benchmark::Counter(static_cast<double>(last.epoch_cache_skips));
  state.counters["milp_solves"] =
      benchmark::Counter(static_cast<double>(last.milp_solves));
}
BENCHMARK(BM_ResourceManagerSteadyReplan)
    ->Arg(100)
    ->Arg(900)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyAllocator(benchmark::State& state) {
  auto& s = setup();
  serving::GreedyAllocator alloc(s.cfg, &s.graph, s.profiles);
  const serving::PlanRequest req{static_cast<double>(state.range(0)), s.mult};
  for (auto _ : state) {
    auto plan = alloc.plan(req).plan;
    benchmark::DoNotOptimize(plan.servers_used);
  }
}
BENCHMARK(BM_GreedyAllocator)->Arg(900)->Unit(benchmark::kMillisecond);

// Load Balancer routing pass — the paper's ~0.15 ms number.
void BM_MostAccurateFirst(benchmark::State& state) {
  auto& s = setup();
  serving::MilpAllocator alloc(s.cfg, &s.graph, s.profiles);
  const auto plan = alloc.plan({900.0, s.mult}).plan;
  serving::LoadBalancer lb(&s.graph, &s.profiles, serving::kUtilizationTarget);
  for (auto _ : state) {
    auto routing = lb.most_accurate_first(plan, 900.0, s.mult);
    benchmark::DoNotOptimize(routing.frontend.size());
  }
}
BENCHMARK(BM_MostAccurateFirst)->Unit(benchmark::kMicrosecond);

// Raw LP solve of a representative allocation relaxation (60 boxed
// variables, 40 dense-ish rows — the upper bounds cost no tableau rows in
// the bounded-variable solver).
void BM_RawSimplex(benchmark::State& state) {
  using namespace loki::solver;
  LpProblem p(Sense::kMaximize);
  Rng rng(3);
  const int n = 60;
  for (int j = 0; j < n; ++j) {
    p.add_variable("x" + std::to_string(j), 0.0, 20.0,
                   rng.uniform(0.0, 1.0));
  }
  for (int c = 0; c < 40; ++c) {
    Constraint con;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) con.terms.push_back({j, rng.uniform(0.1, 2.0)});
    }
    con.rel = Relation::kLe;
    con.rhs = rng.uniform(5.0, 50.0);
    p.add_constraint(std::move(con));
  }
  SimplexSolver solver;
  int pivots = 0;
  int flips = 0;
  for (auto _ : state) {
    auto sol = solver.solve(p);
    benchmark::DoNotOptimize(sol.objective);
    pivots = sol.iterations;
    flips = sol.bound_flips;
  }
  state.counters["pivots"] = benchmark::Counter(static_cast<double>(pivots));
  state.counters["bound_flips"] =
      benchmark::Counter(static_cast<double>(flips));
}
BENCHMARK(BM_RawSimplex)->Unit(benchmark::kMicrosecond);

// Demand-estimator + routing pick micro-ops on the query hot path.
void BM_RoutingPick(benchmark::State& state) {
  auto& s = setup();
  serving::MilpAllocator alloc(s.cfg, &s.graph, s.profiles);
  const auto plan = alloc.plan({900.0, s.mult}).plan;
  serving::LoadBalancer lb(&s.graph, &s.profiles, serving::kUtilizationTarget);
  const auto routing = lb.most_accurate_first(plan, 900.0, s.mult);
  Rng rng(7);
  for (auto _ : state) {
    const double r = rng.uniform();
    double cum = 0.0;
    int picked = -1;
    for (const auto& e : routing.frontend) {
      cum += e.probability;
      if (r < cum) {
        picked = e.group;
        break;
      }
    }
    benchmark::DoNotOptimize(picked);
  }
}
BENCHMARK(BM_RoutingPick);

}  // namespace
