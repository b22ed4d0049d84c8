// Solver-layer ablation microbenchmark (google-benchmark binary).
//
// Isolates the pieces the serving-system numbers in tab_runtime_overhead are
// built from: raw bounded-variable simplex solves across problem sizes, the
// warm-started bound-overlay re-solve path (the branch-and-bound node access
// pattern) against an equivalent cold solve, and full branch-and-bound runs
// on structured MILPs. Every benchmark exports its pivot/node counters, so
// a run reports work counts next to wall time.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "solver/milp.hpp"
#include "solver/presolve.hpp"
#include "solver/simplex.hpp"

namespace {

using namespace loki;
using namespace loki::solver;

// Random boxed LP shaped like an allocation relaxation: n variables in
// [0, 20], 2n/3 dense-ish <= rows.
LpProblem boxed_lp(int n, std::uint64_t seed) {
  Rng rng(seed);
  LpProblem p(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    p.add_variable("x" + std::to_string(j), 0.0, 20.0, rng.uniform(0.0, 1.0));
  }
  for (int c = 0; c < 2 * n / 3; ++c) {
    Constraint con;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) con.terms.push_back({j, rng.uniform(0.1, 2.0)});
    }
    con.rel = Relation::kLe;
    con.rhs = rng.uniform(5.0, 50.0);
    p.add_constraint(std::move(con));
  }
  return p;
}

void BM_RawSimplexSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const LpProblem p = boxed_lp(n, 3);
  SimplexSolver solver;
  int pivots = 0;
  for (auto _ : state) {
    auto sol = solver.solve(p);
    benchmark::DoNotOptimize(sol.objective);
    pivots = sol.iterations;
  }
  state.counters["pivots"] = benchmark::Counter(static_cast<double>(pivots));
}
BENCHMARK(BM_RawSimplexSize)->Arg(30)->Arg(60)->Arg(120)->Unit(
    benchmark::kMicrosecond);

// The Resource Manager's step model in miniature (MilpAllocator::
// solve_step): integer instance counts n(t, k) for `configs` configurations
// of each of four tasks, continuous path flows c(k) (configuration k on
// every task), a capacity row per (t, k), the cluster row and a host row
// per task. With three configurations it has the accuracy step's shape.
// With one, the hardware step's (each task keeps its most accurate
// variant), the flow row and the host rows are singletons: presolve fixes
// the flow, folds the host rows into bounds, and then the capacity rows,
// singletons too once the flow is fixed, into integer lower bounds.
LpProblem allocation_model(int configs, double demand) {
  Rng rng(29);
  LpProblem p(Sense::kMaximize);
  const int tasks = 4;
  Constraint cluster;
  std::vector<std::vector<int>> n_var(tasks);
  for (int t = 0; t < tasks; ++t) {
    for (int k = 0; k < configs; ++k) {
      const int v = p.add_variable(
          "n_" + std::to_string(t) + "_" + std::to_string(k), 0, kInf,
          -1e-6, VarType::kInteger);
      n_var[t].push_back(v);
      cluster.terms.push_back({v, 1.0});
    }
  }
  std::vector<int> c_var;
  Constraint flow;
  for (int k = 0; k < configs; ++k) {
    const int c = p.add_variable("c_" + std::to_string(k), 0, kInf,
                                 1.0 - 0.07 * k);
    c_var.push_back(c);
    flow.terms.push_back({c, 1.0});
  }
  flow.rel = Relation::kEq;
  flow.rhs = 1.0;
  p.add_constraint(std::move(flow));
  for (int t = 0; t < tasks; ++t) {
    for (int k = 0; k < configs; ++k) {
      const double q = rng.uniform(8.0, 30.0) * (1 + k);
      p.add_constraint({{{c_var[k], demand}, {n_var[t][k], -q}},
                        Relation::kLe,
                        0.0,
                        ""});
    }
  }
  cluster.rel = Relation::kLe;
  cluster.rhs = 22.0;
  p.add_constraint(std::move(cluster));
  for (int t = 0; t < tasks; ++t) {
    Constraint host;
    for (const int v : n_var[t]) host.terms.push_back({v, 1.0});
    host.rel = Relation::kGe;
    host.rhs = 1.0;
    p.add_constraint(std::move(host));
  }
  return p;
}

// Presolve on/off over the hardware-step model: rows/cols removed and the
// pivot/node effect of searching in the reduced space.
void BM_BnbPresolveAblation(benchmark::State& state) {
  const LpProblem p = allocation_model(/*configs=*/1, /*demand=*/40.0);
  MilpOptions opts;
  opts.presolve = state.range(0) != 0;
  BranchAndBound bnb(opts);
  MilpSolution last;
  for (auto _ : state) {
    last = bnb.solve(p);
    benchmark::DoNotOptimize(last.objective);
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(last.nodes_explored));
  state.counters["lp_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_iterations));
  state.counters["presolve_rows_removed"] =
      benchmark::Counter(static_cast<double>(last.presolve_rows_removed));
  state.counters["presolve_cols_removed"] =
      benchmark::Counter(static_cast<double>(last.presolve_cols_removed));
}
BENCHMARK(BM_BnbPresolveAblation)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);

// Branch-and-bound node access pattern: one shared context, bounds overlay
// swapped per solve, warm-started from the previous basis via dual simplex.
void BM_WarmBoundOverlayResolve(benchmark::State& state) {
  const int n = 60;
  const LpProblem p = boxed_lp(n, 7);
  SimplexContext ctx(p);
  std::vector<double> lo(n, 0.0), hi(n, 20.0);
  auto root = ctx.solve();
  benchmark::DoNotOptimize(root.objective);
  int pivots = 0;
  int warm = 0;
  int j = 0;
  for (auto _ : state) {
    // Tighten one variable's box the way a branching step does, alternating
    // the floor/ceil side, then restore it for the next iteration.
    const double cut = 10.0 + (j % 5);
    if (j % 2 == 0) {
      hi[j % n] = cut;
    } else {
      lo[j % n] = cut;
    }
    auto sol = ctx.solve_with_bounds(lo, hi);
    benchmark::DoNotOptimize(sol.objective);
    pivots += sol.iterations;
    warm += sol.warm_started ? 1 : 0;
    lo[j % n] = 0.0;
    hi[j % n] = 20.0;
    ++j;
  }
  state.counters["pivots_per_resolve"] = benchmark::Counter(
      j > 0 ? static_cast<double>(pivots) / j : 0.0);
  state.counters["warm_fraction"] =
      benchmark::Counter(j > 0 ? static_cast<double>(warm) / j : 0.0);
}
BENCHMARK(BM_WarmBoundOverlayResolve)->Unit(benchmark::kMicrosecond);

// Same bound overlays, but each solved cold from scratch — the seed
// solver's per-node cost model.
void BM_ColdBoundOverlayResolve(benchmark::State& state) {
  const int n = 60;
  LpProblem p = boxed_lp(n, 7);
  SimplexSolver solver;
  int pivots = 0;
  int j = 0;
  for (auto _ : state) {
    const double cut = 10.0 + (j % 5);
    const int v = j % n;
    if (j % 2 == 0) {
      p.set_bounds(v, 0.0, cut);
    } else {
      p.set_bounds(v, cut, 20.0);
    }
    auto sol = solver.solve(p);
    benchmark::DoNotOptimize(sol.objective);
    pivots += sol.iterations;
    p.set_bounds(v, 0.0, 20.0);
    ++j;
  }
  state.counters["pivots_per_resolve"] = benchmark::Counter(
      j > 0 ? static_cast<double>(pivots) / j : 0.0);
}
BENCHMARK(BM_ColdBoundOverlayResolve)->Unit(benchmark::kMicrosecond);

// Full branch-and-bound on a seeded knapsack: binaries only, deep search.
void BM_BnbKnapsack(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  Rng rng(17);
  LpProblem p(Sense::kMaximize);
  Constraint cap;
  for (int i = 0; i < items; ++i) {
    const int v = p.add_variable("x" + std::to_string(i), 0, 1,
                                 rng.uniform(1.0, 2.0), VarType::kBinary);
    cap.terms.push_back({v, rng.uniform(1.0, 2.0)});
  }
  cap.rel = Relation::kLe;
  cap.rhs = static_cast<double>(items) / 4.0;
  p.add_constraint(std::move(cap));
  BranchAndBound bnb;
  MilpSolution last;
  for (auto _ : state) {
    last = bnb.solve(p);
    benchmark::DoNotOptimize(last.objective);
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(last.nodes_explored));
  state.counters["lp_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_iterations));
  state.counters["warm_hits"] =
      benchmark::Counter(static_cast<double>(last.warm_start_hits));
  state.counters["cold_solves"] =
      benchmark::Counter(static_cast<double>(last.cold_solves));
}
BENCHMARK(BM_BnbKnapsack)->Arg(16)->Arg(24)->Unit(benchmark::kMicrosecond);

// Full branch-and-bound on the accuracy-step model.
void BM_BnbAllocationShaped(benchmark::State& state) {
  const LpProblem p = allocation_model(/*configs=*/3, /*demand=*/120.0);
  BranchAndBound bnb;
  MilpSolution last;
  for (auto _ : state) {
    last = bnb.solve(p);
    benchmark::DoNotOptimize(last.objective);
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(last.nodes_explored));
  state.counters["lp_pivots"] =
      benchmark::Counter(static_cast<double>(last.lp_iterations));
  state.counters["warm_hits"] =
      benchmark::Counter(static_cast<double>(last.warm_start_hits));
}
BENCHMARK(BM_BnbAllocationShaped)->Unit(benchmark::kMicrosecond);

}  // namespace
