#include "serving/degrade.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace loki::serving {

std::array<double, kNumTiers> tier_serve_probs(
    double serve_frac, const std::array<double, kNumTiers>& shares) {
  if (serve_frac < 0.0) serve_frac = 0.0;
  if (serve_frac > 1.0) serve_frac = 1.0;
  std::array<double, kNumTiers> probs{};
  double budget = serve_frac;  // serve budget, granted highest-tier-first
  for (int k = 0; k < kNumTiers; ++k) {
    const double share = shares[k];
    if (share > 0.0) {
      const double take = budget < share ? budget : share;
      probs[k] = take / share;  // share == 1 reproduces serve_frac exactly
      budget -= take;
    } else {
      probs[k] = budget > 0.0 ? 1.0 : 0.0;
    }
  }
  return probs;
}

std::array<double, kNumTiers> tier_shed_probs(
    double shed_frac, const std::array<double, kNumTiers>& shares) {
  if (shed_frac < 0.0) shed_frac = 0.0;
  if (shed_frac > 1.0) shed_frac = 1.0;
  std::array<double, kNumTiers> probs{};
  double budget = shed_frac;  // shed budget, taken lowest-tier-first
  for (int k = kNumTiers - 1; k >= 0; --k) {
    const double share = shares[k];
    if (share > 0.0) {
      const double take = budget < share ? budget : share;
      probs[k] = take / share;  // share == 1 reproduces shed_frac exactly
      budget -= take;
    } else {
      probs[k] = budget > 0.0 ? 1.0 : 0.0;
    }
  }
  return probs;
}

TierPlane::TierPlane(const TierPolicy& policy, obs::Registry& registry,
                     const std::string& prefix)
    : armed_(policy.enabled),
      remainder_priority_(policy.enabled && policy.remainder_priority) {
  watermark_.fill(std::numeric_limits<double>::infinity());
  if (!armed_) return;
  watermark_ = policy.depth_watermark;
  const std::string dp = prefix + ".degrade.";
  c_admission_shed_ = registry.counter(dp + "admission_shed");
  c_overload_shed_ = registry.counter(dp + "overload_shed");
  c_remainder_rescued_ = registry.counter(dp + "remainder_rescued");
  c_retries_ = registry.counter(dp + "retries");
  c_retry_given_up_ = registry.counter(dp + "retry_given_up");
}

void TierPlane::refresh(double served_fraction, double shed_fraction) {
  double total = 0.0;
  for (double v : window_) total += v;
  if (total > 0.0) {
    std::array<double, kNumTiers> obs{};
    for (std::size_t k = 0; k < obs.size(); ++k) obs[k] = window_[k] / total;
    if (!shares_seeded_) {
      // Seed from the first non-empty window exactly (no blend with the
      // {1, 0, 0} prior): an all-tier-0 run keeps shares at exactly
      // {1, 0, 0} forever, which the shed fills rely on for passivity.
      shares_ = obs;
      shares_seeded_ = true;
    } else if (obs != shares_) {
      for (std::size_t k = 0; k < obs.size(); ++k) {
        shares_[k] =
            kShareEwmaAlpha * obs[k] + (1.0 - kShareEwmaAlpha) * shares_[k];
      }
    }
    window_.fill(0.0);
  }
  fill(served_fraction, shed_fraction);
}

void TierPlane::fill(double served_fraction, double shed_fraction) {
  if (armed_) {
    serve_ = tier_serve_probs(served_fraction, shares_);
    shed_ = tier_shed_probs(shed_fraction, shares_);
  } else {
    // Untiered: every tier draws against the raw fractions.
    serve_.fill(served_fraction);
    shed_.fill(shed_fraction);
  }
}

const char* validate_plan(const AllocationPlan& plan,
                          const pipeline::PipelineGraph& graph,
                          int cluster_size) {
  if (!plan.feasible) return "infeasible";
  if (!(plan.served_fraction >= 0.0) || plan.served_fraction > 1.0 + 1e-9) {
    return "served_fraction out of range";
  }
  if (!(plan.expected_accuracy >= 0.0) ||
      plan.expected_accuracy > 1.0 + 1e-9) {
    return "expected_accuracy out of range";
  }
  const int num_tasks = graph.num_tasks();
  std::vector<int> per_task(static_cast<std::size_t>(num_tasks), 0);
  int total = 0;
  for (const InstanceConfig& ic : plan.instances) {
    if (ic.task < 0 || ic.task >= num_tasks) return "instance task out of range";
    if (ic.variant < 0) return "instance variant out of range";
    if (ic.batch < 1) return "instance batch out of range";
    if (ic.replicas < 0) return "negative replica count";
    per_task[static_cast<std::size_t>(ic.task)] += ic.replicas;
    total += ic.replicas;
  }
  if (total > cluster_size) return "plan exceeds cluster capacity";
  // Serving any positive fraction needs every pipeline stage hosted; a
  // served_fraction ~ 0 overload plan may legitimately place nothing.
  if (plan.served_fraction > 1e-9) {
    for (int t = 0; t < num_tasks; ++t) {
      if (per_task[static_cast<std::size_t>(t)] <= 0) {
        return "unhosted task";
      }
    }
  }
  for (const auto& kv : plan.latency_budget_s) {
    if (!(kv.second > 0.0)) return "non-positive latency budget";
  }
  for (const PathFlow& f : plan.flows) {
    if (!(f.fraction >= 0.0) || f.fraction > 1.0 + 1e-9 ||
        !std::isfinite(f.fraction)) {
      return "path flow out of range";
    }
  }
  return nullptr;
}

PlanFallbackChain::PlanFallbackChain(
    std::unique_ptr<AllocationStrategy> primary,
    std::unique_ptr<AllocationStrategy> near_warm,
    std::unique_ptr<AllocationStrategy> greedy, double deadline_s,
    const pipeline::PipelineGraph* graph, int cluster_size,
    obs::Registry& registry, const std::string& prefix)
    : rungs_{std::move(primary), std::move(near_warm), std::move(greedy)},
      deadline_s_(deadline_s),
      graph_(graph),
      cluster_size_(cluster_size),
      c_fallbacks_(registry.counter(prefix + ".plan_fallbacks")),
      c_rejects_(registry.counter(prefix + ".plan_rejects")),
      c_retained_(registry.counter(prefix + ".plan_retained")) {
  LOKI_CHECK(rungs_[0] != nullptr && graph_ != nullptr);
}

PlanResult PlanFallbackChain::plan(const PlanRequest& req) {
  FallbackOutcome out = walk(req);
  c_fallbacks_.add(static_cast<std::uint64_t>(out.fallbacks));
  c_rejects_.add(static_cast<std::uint64_t>(out.rejects));
  if (out.retained_previous) c_retained_.add(1);
  return std::move(out.result);
}

FallbackOutcome PlanFallbackChain::walk(const PlanRequest& req) {
  FallbackOutcome out;
  const int cap =
      effective_cluster_size(cluster_size_, req, graph_->num_tasks());
  for (int r = 0; r < 3; ++r) {
    if (rungs_[r] == nullptr) continue;
    PlanResult res = rungs_[r]->plan(req);
    // The deadline gates the solver rungs; greedy (rung 2) always completes
    // within any sane epoch and is exempt so the chain cannot livelock on a
    // slow host.
    if (r < 2 && deadline_s_ > 0.0 && res.plan.solve_time_s > deadline_s_) {
      ++out.fallbacks;
      continue;
    }
    if (validate_plan(res.plan, *graph_, cap) != nullptr) {
      ++out.rejects;
      ++out.fallbacks;
      continue;
    }
    out.rung = r;
    out.result = std::move(res);
    return out;
  }
  // Terminal rung: retain the previously installed (already validated)
  // plan. With no previous plan the epoch yields an infeasible placeholder
  // and the runtime keeps whatever it was doing — degrade, never corrupt.
  out.rung = 3;
  out.retained_previous = true;
  out.result.epoch = req.epoch;
  if (req.previous_plan != nullptr) {
    out.result.plan = *req.previous_plan;
    out.result.plan.solve_time_s = 0.0;
    out.result.plan.solver = SolverStats{};
  } else {
    out.result.plan.feasible = false;
  }
  return out;
}

}  // namespace loki::serving
