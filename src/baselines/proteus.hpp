// Proteus-style baseline (§6.1): accuracy scaling for single models,
// pipeline-agnostic. Each task of the pipeline is managed as an independent
// model:
//   * per-task demand comes from *observed* arrivals at that task (no
//     multiplicative-factor propagation — downstream demand is only seen
//     after it materializes, so bottlenecks form during ramps);
//   * the latency SLO is split evenly across tasks (no budget optimization);
//   * variant selection maximizes the task's own accuracy, not the
//     end-to-end path accuracy;
//   * the whole cluster stays active at all times (no hardware scaling).
#pragma once

#include "serving/allocation.hpp"
#include "serving/types.hpp"

namespace loki::baselines {

class ProteusStrategy : public serving::AllocationStrategy {
 public:
  /// `demand_ewma_alpha` is the per-`ewma_period_s` smoothing weight: the
  /// historical tuning assumed one observation per 1 s heartbeat, so a fold
  /// covering a `dt`-second window applies 1-(1-alpha)^(dt/ewma_period_s)
  /// and the time constant is independent of how often plans are requested.
  ProteusStrategy(serving::AllocatorConfig cfg,
                  const pipeline::PipelineGraph* graph,
                  serving::ProfileTable profiles,
                  double demand_ewma_alpha = 0.35,
                  double ewma_period_s = 1.0);

  /// Folds request.task_arrivals_qps into the per-task demand EWMA (weight
  /// scaled to the window since the last fold, via request.sim_time_s),
  /// then allocates against the observed (not propagated) demand.
  serving::PlanResult plan(const serving::PlanRequest& request) override;
  std::string name() const override { return "proteus"; }

  /// Observed per-task demand estimates (QPS), for tests.
  const std::vector<double>& task_demand() const { return task_demand_; }

 private:
  /// Folds one observation covering `periods` reference periods: effective
  /// weight 1-(1-alpha)^periods.
  void fold_observation(const std::vector<double>& qps, double periods);

  serving::AllocatorConfig cfg_;
  const pipeline::PipelineGraph* graph_;
  serving::ProfileTable profiles_;
  double alpha_;
  double ewma_period_s_;
  double last_fold_time_s_ = -1.0;
  std::vector<double> task_demand_;
  std::vector<bool> demand_seen_;
};

}  // namespace loki::baselines
