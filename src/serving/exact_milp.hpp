// Exact linearization of the paper's §4.1 MILP (Eq. 2–12), with the batch
// size y(i,k) as a *decision variable* rather than fixed per budget split.
//
// This is the formulation the paper writes down, made linear the standard
// way:
//   z(i,k,b) ∈ {0,1}   — variant k of task i is configured with max batch b
//                        (Σ_b z ≤ 1; Eq. 4)
//   n(i,k,b) ∈ Z≥0     — instances of that configuration, n ≤ S·z
//   c(p) ≥ 0           — per-sink path flow (Eq. 2 demand terms)
//   I(p) ∈ {0,1}       — path-used indicator; c(p) ≤ I(p) and the big-M
//                        latency constraint Σ l(i,k) ≤ L' + M(1 − I(p))
//                        (Eq. 5–7), where l(i,k) = Σ_b z(i,k,b)·lat(i,k,b).
//
// It is exponentially heavier than the budget-split model the production
// allocator uses (extra binaries per batch choice and per path), so only
// tests/exact_milp_test.cpp solves it: on small instances the budget-split
// optimum should match the exact optimum closely, which is what that test
// verifies.
#pragma once

#include "pipeline/paths.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "serving/types.hpp"

namespace loki::serving {

struct ExactMilpResult {
  bool feasible = false;
  ScalingMode mode = ScalingMode::kHardware;
  double objective = 0.0;          // servers (hardware) or accuracy
  double expected_accuracy = 1.0;  // flow-weighted over sinks
  int servers_used = 0;
  solver::MilpStatus status = solver::MilpStatus::kNoSolution;
  /// Branch-and-bound counters for the single solve behind this result.
  SolverStats stats;
};

class ExactMilpFormulation {
 public:
  ExactMilpFormulation(AllocatorConfig cfg,
                       const pipeline::PipelineGraph* graph,
                       ProfileTable profiles);

  /// Step-1 model (Eq. 8–11): most accurate variants only, minimize Σn.
  ExactMilpResult solve_hardware(double demand_qps,
                                 const pipeline::MultFactorTable& mult) const;

  /// Step-2 model (Eq. 12): maximize system accuracy at full variant
  /// freedom, all demand served.
  ExactMilpResult solve_accuracy(double demand_qps,
                                 const pipeline::MultFactorTable& mult) const;

 private:
  ExactMilpResult solve(double demand_qps,
                        const pipeline::MultFactorTable& mult,
                        bool hardware_only) const;

  AllocatorConfig cfg_;
  const pipeline::PipelineGraph* graph_;
  ProfileTable profiles_;
};

}  // namespace loki::serving
