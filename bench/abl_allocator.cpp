// Allocator ablation: MILP vs greedy allocation quality and
// latency across the demand range, the effect of the latency-budget grid
// resolution, and the near-identical warm tier on a demand ramp against
// the default (cold) planner, which is exported to BENCH_allocator.json
// (--json=PATH to override the location).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"

using namespace loki;

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  bench::banner("Ablation — MILP vs greedy allocation (traffic pipeline)");

  const auto graph = pipeline::traffic_analysis_pipeline();
  const auto profiles =
      serving::build_profile_table(graph, profile::ModelProfiler());
  const auto mult = pipeline::default_mult_factors(graph);
  serving::AllocatorConfig cfg;
  cfg.cluster_size = 20;

  serving::MilpAllocator milp(cfg, &graph, profiles);
  serving::GreedyAllocator greedy(cfg, &graph, profiles);

  CsvTable csv({"demand_qps", "milp_accuracy", "greedy_accuracy",
                "milp_servers", "greedy_servers", "milp_ms", "greedy_ms"});
  std::printf("\n%8s | %9s %9s | %7s %7s | %8s %8s\n", "demand", "milp.acc",
              "grd.acc", "milp.srv", "grd.srv", "milp ms", "grd ms");
  for (double d : {100.0, 300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto mp = milp.plan({d, mult}).plan;
    const auto t1 = std::chrono::steady_clock::now();
    const auto gp = greedy.plan({d, mult}).plan;
    const auto t2 = std::chrono::steady_clock::now();
    const double milp_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double greedy_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::printf("%8.0f | %9.4f %9.4f | %7d %7d | %8.1f %8.3f\n", d,
                mp.expected_accuracy, gp.expected_accuracy, mp.servers_used,
                gp.servers_used, milp_ms, greedy_ms);
    csv.add_row({d, mp.expected_accuracy, gp.expected_accuracy,
                 static_cast<std::int64_t>(mp.servers_used),
                 static_cast<std::int64_t>(gp.servers_used), milp_ms,
                 greedy_ms});
  }
  csv.write(bench::output_dir() + "/abl_allocator.csv");

  // Budget-grid resolution ablation: capacity found vs grid.
  bench::banner("Ablation — latency-budget grid resolution");
  CsvTable grid_csv({"budget_grid", "capacity_qps", "splits"});
  std::printf("\n%6s %14s %8s\n", "grid", "capacity(QPS)", "splits");
  for (int grid : {2, 3, 5, 7, 11}) {
    serving::AllocatorConfig gcfg = cfg;
    gcfg.budget_grid = grid;
    serving::MilpAllocator alloc(gcfg, &graph, profiles);
    const double cap = exp::find_capacity(alloc, 10.0, 30000.0, mult, 20.0);
    const auto splits = serving::budget_splits(gcfg, graph);
    std::printf("%6d %14.0f %8zu\n", grid, cap, splits.size());
    grid_csv.add_row({static_cast<std::int64_t>(grid), cap,
                      static_cast<std::int64_t>(splits.size())});
  }
  grid_csv.write(bench::output_dir() + "/abl_budget_grid.csv");

  // -------------------------------------------------------------------------
  // Near-identical warm tier ablation: on a slow linear demand ramp every
  // epoch's step models keep their shape while the capacity-row
  // coefficients carry the demand, which is exactly the territory of the
  // opt-in near tier — crash-start each step's root LP from the previous
  // epoch's basis and seed branch-and-bound with the previous incumbent.
  // Plans must stay within the MILP optimality gap of the default planner,
  // which solves every epoch cold; the win is pivots.
  // -------------------------------------------------------------------------
  bench::banner("Ablation — near-identical warm tier (60-epoch demand ramp)");
  serving::AllocatorConfig near_cfg = cfg;
  near_cfg.near_warm_start = true;
  serving::MilpAllocator near_alloc(near_cfg, &graph, profiles);
  serving::MilpAllocator ramp_cold_alloc(cfg, &graph, profiles);

  const int ramp_epochs = 60;
  serving::SolverStats near_stats, ramp_cold_stats;
  double near_wall_s = 0.0, ramp_cold_wall_s = 0.0;
  serving::AllocationPlan near_prev, ramp_cold_prev;
  bool within_gap = true;
  double worst_drift = 0.0;
  for (int e = 0; e < ramp_epochs; ++e) {
    const double demand = 600.0 + 10.0 * e;  // hardware -> accuracy regime
    // Both allocators see the SAME previous plan (the cold side's), so each
    // epoch they solve the exact same step models — continuity bonuses
    // included — and the drift check below compares two solutions of one
    // model rather than two diverging plan trajectories.
    auto run = [&](serving::MilpAllocator& alloc, serving::SolverStats& stats,
                   double& wall_s, serving::AllocationPlan& prev,
                   serving::SolverStats& epoch_stats) {
      serving::PlanRequest req;
      req.demand_qps = demand;
      req.mult = mult;
      req.epoch = e;
      req.previous_plan = e > 0 ? &ramp_cold_prev : nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      auto result = alloc.plan(req);
      wall_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      stats += result.solver;
      epoch_stats = result.solver;
      prev = std::move(result.plan);
    };
    serving::SolverStats near_epoch, cold_epoch;
    serving::AllocationPlan near_plan;
    run(near_alloc, near_stats, near_wall_s, near_plan, near_epoch);
    run(ramp_cold_alloc, ramp_cold_stats, ramp_cold_wall_s, ramp_cold_prev,
        cold_epoch);
    near_prev = std::move(near_plan);
    // Each side's incumbent is provably within its reported gap of the
    // same model's optimum, so their objectives differ by at most the sum
    // of the gaps; the accuracy component additionally absorbs the
    // continuity/server terms, bounded by the bonus over the cluster.
    const double tolerance =
        near_epoch.max_gap + cold_epoch.max_gap +
        2.0 * serving::kContinuityBonus *
            static_cast<double>(cfg.cluster_size) +
        2.0 * serving::kPlanGapTol + 1e-9;
    const double drift = std::abs(near_prev.expected_accuracy -
                                  ramp_cold_prev.expected_accuracy);
    worst_drift = std::max(worst_drift, drift);
    if (near_prev.mode != ramp_cold_prev.mode || drift > tolerance ||
        std::abs(near_prev.served_fraction -
                 ramp_cold_prev.served_fraction) > 1e-9) {
      within_gap = false;
      std::printf("  PLAN DRIFT BEYOND GAP at epoch %d (demand %.0f): "
                  "acc %.6f vs %.6f (tol %.2e), served %.4f vs %.4f\n",
                  e, demand, near_prev.expected_accuracy,
                  ramp_cold_prev.expected_accuracy, tolerance,
                  near_prev.served_fraction, ramp_cold_prev.served_fraction);
    }
  }
  const double near_hit_rate =
      near_stats.milp_solves > 0
          ? static_cast<double>(near_stats.near_warm_hits) /
                static_cast<double>(near_stats.milp_solves)
          : 0.0;
  const double ramp_pivot_ratio =
      near_stats.lp_iterations > 0
          ? static_cast<double>(ramp_cold_stats.lp_iterations) /
                static_cast<double>(near_stats.lp_iterations)
          : 0.0;
  std::printf("\n  ramp epochs: %d  plans within gap: %s "
              "(worst accuracy drift %.2e)\n",
              ramp_epochs, within_gap ? "yes" : "NO", worst_drift);
  std::printf("  near tier: %d pivots, %d near-warm hits (%.2f hit rate), "
              "%.2f ms/epoch\n",
              near_stats.lp_iterations, near_stats.near_warm_hits,
              near_hit_rate, 1e3 * near_wall_s / ramp_epochs);
  std::printf("  cold:      %d pivots, %.2f ms/epoch\n",
              ramp_cold_stats.lp_iterations,
              1e3 * ramp_cold_wall_s / ramp_epochs);
  std::printf("  ramp pivot ratio cold/near: %.2fx\n", ramp_pivot_ratio);

  const std::string json_path =
      flags.get_string("json", bench::output_dir() + "/BENCH_allocator.json");
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"ramp\": {\"epochs\": %d, \"plans_within_gap\": %s, "
                 "\"near_warm_hits\": %d, \"near_hit_rate\": %.4f, "
                 "\"near_pivots\": %d, \"cold_pivots\": %d, "
                 "\"pivot_ratio_cold_over_near\": %.4f, "
                 "\"near_ms_per_epoch\": %.4f, \"cold_ms_per_epoch\": %.4f}",
                 ramp_epochs, within_gap ? "true" : "false",
                 near_stats.near_warm_hits, near_hit_rate,
                 near_stats.lp_iterations, ramp_cold_stats.lp_iterations,
                 ramp_pivot_ratio, 1e3 * near_wall_s / ramp_epochs,
                 1e3 * ramp_cold_wall_s / ramp_epochs);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path.c_str());
  } else {
    std::printf("  could not write %s\n", json_path.c_str());
    return 1;
  }

  std::printf("\n  wrote %s/abl_allocator.csv, abl_budget_grid.csv\n",
              bench::output_dir().c_str());
  return within_gap ? 0 : 1;
}
