#include "serving/control_plane.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "serving/system.hpp"

namespace loki::serving {

ControlPlane::ControlPlane(std::vector<ServingSystem*> shards,
                           const PlannerFactory& make_planner)
    : shards_(std::move(shards)) {
  LOKI_CHECK(!shards_.empty());
  const SystemConfig& cfg = shards_.front()->cfg_;
  // A period that is not finite and positive would re-plan at the same
  // instant forever (or stall the barrier-driven re-plan clock).
  LOKI_CHECK_MSG(std::isfinite(cfg.rm_period_s) && cfg.rm_period_s > 0.0,
                 "SystemConfig::rm_period_s = " << cfg.rm_period_s
                                                << " must be finite and > 0");
  rm_period_s_ = cfg.rm_period_s;
  realloc_threshold_ = cfg.realloc_threshold;
  int cluster = 0;
  for (const ServingSystem* shard : shards_) {
    share_.push_back(shard->cfg_.allocator.cluster_size);
    cluster += share_.back();
    fault_mode_ = fault_mode_ || shard->fault() != nullptr;
  }
  std::vector<int> plan_shares;  // one plan each
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto it =
        fault_mode_
            ? plan_shares.end()
            : std::find(plan_shares.begin(), plan_shares.end(), share_[s]);
    shard_plan_.push_back(static_cast<std::size_t>(it - plan_shares.begin()));
    if (it == plan_shares.end()) {
      plan_shares.push_back(share_[s]);
      plan_fracs_.push_back(static_cast<double>(share_[s]) /
                            static_cast<double>(cluster));
      planners_.push_back(make_planner(shards_[s]->cfg_.allocator));
    }
  }
  plans_.resize(planners_.size());
  if (fault_mode_) {
    obs::Registry& registry = cfg.registry != nullptr
                                  ? *cfg.registry
                                  : obs::Registry::global();
    replans_ = registry.counter(std::string(kMetricPrefix) + ".fault.replans");
  }
}

void ControlPlane::start() {
  ServingSystem& first = *shards_.front();
  if (in_process()) {
    // The initial plan, then the period ahead of the shard's load-balancer
    // and heartbeat loops, then those loops and the fault plan.
    first.control_ = this;
    replan(first.sim_->now(), /*force=*/true);
    first.every(rm_period_s_, [this, &first]() {
      replan(first.sim_->now(), /*force=*/false);
    });
    first.start();
    return;
  }
  for (ServingSystem* shard : shards_) shard->start();
  replan(first.sim_->now(), /*force=*/true);
  next_replan_ = rm_period_s_;
}

void ControlPlane::after_heartbeat() {
  // §4.2: re-plan between periods on a significant demand change (a cold
  // start, or a burst right after a periodic run).
  ServingSystem& shard = *shards_.front();
  if (demand_shifted(shard.demand_estimate_now(), last_demand_)) {
    replan(shard.sim_->now(), /*force=*/false);
  }
}

void ControlPlane::on_dead_set_changed() {
  replans_.add(1);
  replan(shards_.front()->sim_->now(), /*force=*/true);
}

void ControlPlane::on_barrier(double now) {
  if (in_process()) return;
  bool fault_due = false;
  for (const ServingSystem* shard : shards_) {
    const FaultPlane* fault = shard->fault();
    fault_due = fault_due || (fault != nullptr && fault->replan_pending());
  }
  bool due = fault_due || now + 1e-9 >= next_replan_;
  if (!due && have_plan_) {
    double est = 0.0;
    for (ServingSystem* shard : shards_) est += shard->demand_estimate_now();
    due = demand_shifted(est, last_demand_);
  }
  if (!due) return;
  replan(now, /*force=*/fault_due);
  if (fault_due) replans_.add(1);
  while (next_replan_ <= now + 1e-9) next_replan_ += rm_period_s_;
}

void ControlPlane::replan(double now, bool force) {
  const std::size_t shards = shards_.size();
  double demand = 0.0;
  for (ServingSystem* shard : shards_) demand += shard->demand_estimate_now();
  if (have_plan_ && !force) {
    double min_served = 1.0;
    for (const AllocationPlan& p : plans_) {
      min_served = std::min(min_served, p.served_fraction);
    }
    if (keep_plan(demand, last_demand_, min_served, realloc_threshold_)) {
      // The one-shard Resource Manager refreshes routing as it keeps its
      // plan; sharded runs leave routing to each shard's own loop.
      if (in_process()) shards_.front()->run_load_balancer();
      return;
    }
  }
  const double inv_shards = 1.0 / static_cast<double>(shards);
  // Merge multiplicative-factor estimates: shards observe the same
  // underlying pipeline, so the mean is the natural pooled estimate.
  pipeline::MultFactorTable mult = shards_[0]->mult_estimates();
  for (std::size_t s = 1; s < shards; ++s) {
    const auto& m = shards_[s]->mult_estimates();
    for (std::size_t t = 0; t < mult.size(); ++t) {
      for (std::size_t k = 0; k < mult[t].size(); ++k) mult[t][k] += m[t][k];
    }
  }
  for (auto& row : mult) {
    for (auto& v : row) v *= inv_shards;
  }
  // Drain each shard's per-task arrival-rate window exactly once per epoch
  // (draining resets it), then build every slice's request from the same
  // observations.
  std::vector<std::vector<double>> shard_rates;
  shard_rates.reserve(shards);
  for (ServingSystem* shard : shards_) {
    shard_rates.push_back(shard->drain_task_arrivals_now());
  }
  // Demand fractions: in fault mode the arrival deal follows the survivors,
  // so the planned slices (one per shard) must too.
  std::vector<double> fracs = plan_fracs_;
  if (fault_mode_) {
    double total = 0.0;
    for (ServingSystem* shard : shards_) total += shard->surviving_workers();
    for (std::size_t s = 0; s < shards && total > 0.0; ++s) {
      fracs[s] = shards_[s]->surviving_workers() / total;
    }
  }
  for (std::size_t pi = 0; pi < planners_.size(); ++pi) {
    PlanRequest req;
    req.demand_qps = demand * fracs[pi];
    req.mult = mult;
    req.task_arrivals_qps.assign(shard_rates.front().size(), 0.0);
    for (const auto& rates : shard_rates) {
      for (std::size_t t = 0; t < rates.size(); ++t) {
        req.task_arrivals_qps[t] += rates[t] * fracs[pi];
      }
    }
    req.sim_time_s = now;
    req.epoch = allocations_;
    req.previous_plan = have_plan_ ? &plans_[pi] : nullptr;
    if (fault_mode_) {
      // Plan over the survivors the controller has *detected* (plan index
      // == shard index in fault mode); the allocator clamps internally so
      // it never plans below one worker per task.
      const FaultPlane* fault = shards_[pi]->fault();
      const int dead = fault != nullptr ? fault->detector().dead_count() : 0;
      req.available_workers = share_[pi] - dead;
    }
    plans_[pi] = planners_[pi]->plan(req).plan;
    solve_s_ += plans_[pi].solve_time_s;
    ++allocations_;
  }
  have_plan_ = true;
  last_demand_ = demand;
  for (std::size_t s = 0; s < shards; ++s) {
    shards_[s]->install_plan(plans_[shard_plan_[s]]);
  }
}

}  // namespace loki::serving
