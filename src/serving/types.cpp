#include "serving/types.hpp"

#include <algorithm>

#include "solver/milp.hpp"

namespace loki::serving {

SolverStats& SolverStats::operator+=(const SolverStats& o) {
  milp_solves += o.milp_solves;
  nodes_explored += o.nodes_explored;
  nodes_pruned += o.nodes_pruned;
  lp_iterations += o.lp_iterations;
  lp_phase1_iterations += o.lp_phase1_iterations;
  warm_start_hits += o.warm_start_hits;
  cold_solves += o.cold_solves;
  epoch_warm_hits += o.epoch_warm_hits;
  epoch_cache_skips += o.epoch_cache_skips;
  near_warm_hits += o.near_warm_hits;
  devex_resets += o.devex_resets;
  presolve_rows_removed += o.presolve_rows_removed;
  presolve_cols_removed += o.presolve_cols_removed;
  max_gap = std::max(max_gap, o.max_gap);
  return *this;
}

void SolverStats::add(const solver::MilpSolution& sol) {
  ++milp_solves;
  nodes_explored += sol.nodes_explored;
  nodes_pruned += sol.nodes_pruned;
  lp_iterations += sol.lp_iterations;
  lp_phase1_iterations += sol.lp_phase1_iterations;
  warm_start_hits += sol.warm_start_hits;
  cold_solves += sol.cold_solves;
  if (sol.root_warm_started) ++epoch_warm_hits;
  if (sol.root_near_warm) ++near_warm_hits;
  devex_resets += sol.devex_resets;
  presolve_rows_removed += sol.presolve_rows_removed;
  presolve_cols_removed += sol.presolve_cols_removed;
  max_gap = std::max(max_gap, sol.gap);
}

std::string to_string(ScalingMode m) {
  switch (m) {
    case ScalingMode::kHardware: return "hardware";
    case ScalingMode::kAccuracy: return "accuracy";
    case ScalingMode::kOverload: return "overload";
  }
  return "?";
}

ServiceVerdict AllocationStrategy::serves_demand(const PlanRequest& request) {
  const PlanResult r = plan(request);
  return {r.plan.served_fraction >= 1.0 - 1e-9, r.solver};
}

int AllocationPlan::total_replicas() const {
  int n = 0;
  for (const auto& ic : instances) n += ic.replicas;
  return n;
}

}  // namespace loki::serving
