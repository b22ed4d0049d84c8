// Allocator ablation: MILP vs greedy allocation quality and
// latency across the demand range, the effect of the latency-budget grid
// resolution, and the cross-epoch warm-start ablation (steady-state
// re-planning with EpochContext vs cold re-solves), which is exported to
// BENCH_allocator.json (--json=PATH to override the location).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "exp/experiment.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/plan_io.hpp"

using namespace loki;

namespace {

/// Serialized plan with wall-clock fields zeroed, for bitwise comparison.
std::string comparable_plan_text(const serving::AllocationPlan& plan) {
  serving::AllocationPlan p = plan;
  p.solve_time_s = 0.0;
  p.solver = serving::SolverStats{};
  return serving::plan_to_text(p);
}

/// One allocator's tallies over the epoch loop.
struct EpochTally {
  serving::SolverStats stats;
  double steady_replan_s = 0.0;  // wall time spent on steady-state epochs
  int steady_epochs = 0;
  int steady_pivots = 0;
  double total_replan_s = 0.0;
};

}  // namespace

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
  // Cross-epoch warm-start ablation: the Resource Manager re-plans every
  // control epoch; in the steady state (demand unchanged within the
  // re-allocation hysteresis) the step models are bit-identical and the
  // EpochContext resumes from the previous epoch's basis. Drive 60 epochs of
  // a piecewise-steady demand trace through a warm allocator and a cold
  // reference (warm_start_across_epochs=false), assert the plans are
  // bit-identical, and report pivot counts + steady-state re-plan latency.
  // -------------------------------------------------------------------------
  bench::banner("Ablation — cross-epoch warm starts (steady-state re-plan)");

  std::vector<double> epochs;
  for (int i = 0; i < 20; ++i) epochs.push_back(600.0);   // hardware regime
  for (int i = 0; i < 20; ++i) epochs.push_back(900.0);   // accuracy regime
  for (int i = 0; i < 20; ++i) epochs.push_back(600.0);   // back down

  serving::MilpAllocator warm_alloc(cfg, &graph, profiles);
  serving::AllocatorConfig cold_cfg = cfg;
  cold_cfg.warm_start_across_epochs = false;
  serving::MilpAllocator cold_alloc(cold_cfg, &graph, profiles);

  EpochTally warm_t, cold_t;
  serving::AllocationPlan warm_prev, cold_prev;
  bool identical = true;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const bool steady = e > 0 && epochs[e] == epochs[e - 1];
    auto run = [&](serving::MilpAllocator& alloc, EpochTally& tally,
                   serving::AllocationPlan& prev) {
      serving::PlanRequest req;
      req.demand_qps = epochs[e];
      req.mult = mult;
      req.epoch = static_cast<int>(e);
      req.previous_plan = e > 0 ? &prev : nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      auto result = alloc.plan(req);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      tally.stats += result.solver;
      tally.total_replan_s += wall;
      if (steady) {
        ++tally.steady_epochs;
        tally.steady_replan_s += wall;
        tally.steady_pivots += result.solver.lp_iterations;
      }
      prev = std::move(result.plan);
    };
    run(warm_alloc, warm_t, warm_prev);
    run(cold_alloc, cold_t, cold_prev);
    if (comparable_plan_text(warm_prev) != comparable_plan_text(cold_prev)) {
      identical = false;
      std::printf("  PLAN MISMATCH at epoch %zu (demand %.0f)\n", e,
                  epochs[e]);
    }
  }

  const double warm_hit_rate =
      warm_t.stats.milp_solves > 0
          ? static_cast<double>(warm_t.stats.epoch_warm_hits) /
                static_cast<double>(warm_t.stats.milp_solves)
          : 0.0;
  const double pivot_ratio =
      warm_t.steady_pivots > 0
          ? static_cast<double>(cold_t.steady_pivots) /
                static_cast<double>(warm_t.steady_pivots)
          : 0.0;
  std::printf("\n  epochs: %zu (%d steady)  plans bit-identical: %s\n",
              epochs.size(), warm_t.steady_epochs, identical ? "yes" : "NO");
  std::printf("  warm: %d pivots steady (%d total), %d epoch-warm hits, "
              "%d cached skips, %.2f hit rate\n",
              warm_t.steady_pivots, warm_t.stats.lp_iterations,
              warm_t.stats.epoch_warm_hits, warm_t.stats.epoch_cache_skips,
              warm_hit_rate);
  std::printf("  cold: %d pivots steady (%d total)\n", cold_t.steady_pivots,
              cold_t.stats.lp_iterations);
  std::printf("  steady pivot ratio cold/warm: %.2fx\n", pivot_ratio);
  std::printf("  steady re-plan latency: warm %.2f ms, cold %.2f ms\n",
              warm_t.steady_epochs
                  ? 1e3 * warm_t.steady_replan_s / warm_t.steady_epochs
                  : 0.0,
              cold_t.steady_epochs
                  ? 1e3 * cold_t.steady_replan_s / cold_t.steady_epochs
                  : 0.0);

  // -------------------------------------------------------------------------
  // Near-identical warm tier ablation: a slow linear demand ramp breaks the
  // bit-identical gate at every epoch (the capacity-row coefficients carry
  // the demand), which is exactly the territory of the opt-in near tier —
  // crash-start each step's root LP from the previous epoch's basis and
  // seed branch-and-bound with the previous incumbent. Plans must stay
  // within the MILP optimality gap of a cold reference; the win is pivots.
  // -------------------------------------------------------------------------
  bench::banner("Ablation — near-identical warm tier (60-epoch demand ramp)");
  serving::AllocatorConfig near_cfg = cfg;
  near_cfg.near_warm_start = true;
  serving::MilpAllocator near_alloc(near_cfg, &graph, profiles);
  serving::MilpAllocator ramp_cold_alloc(cold_cfg, &graph, profiles);

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
    auto tally_json = [&](const EpochTally& t) {
      std::fprintf(f,
                   "{\"milp_solves\": %d, \"total_pivots\": %d, "
                   "\"steady_pivots\": %d, \"epoch_warm_hits\": %d, "
                   "\"epoch_cache_skips\": %d, \"steady_epochs\": %d, "
                   "\"steady_replan_ms_mean\": %.4f, "
                   "\"total_replan_ms\": %.4f}",
                   t.stats.milp_solves, t.stats.lp_iterations,
                   t.steady_pivots, t.stats.epoch_warm_hits,
                   t.stats.epoch_cache_skips, t.steady_epochs,
                   t.steady_epochs
                       ? 1e3 * t.steady_replan_s / t.steady_epochs
                       : 0.0,
                   1e3 * t.total_replan_s);
    };
    std::fprintf(f, "{\n  \"epochs\": %zu,\n  \"plans_bit_identical\": %s,\n"
                    "  \"warm_hit_rate\": %.4f,\n"
                    "  \"steady_pivot_ratio_cold_over_warm\": %.4f,\n"
                    "  \"warm\": ",
                 epochs.size(), identical ? "true" : "false", warm_hit_rate,
                 pivot_ratio);
    tally_json(warm_t);
    std::fprintf(f, ",\n  \"cold\": ");
    tally_json(cold_t);
    std::fprintf(f,
                 ",\n  \"ramp\": {\"epochs\": %d, \"plans_within_gap\": %s, "
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
  return identical && within_gap ? 0 : 1;
}
