#include "fault/plan.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace loki::fault {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kStragglerStart: return "straggler-start";
    case FaultKind::kStragglerEnd: return "straggler-end";
    case FaultKind::kHeartbeatLossStart: return "heartbeat-loss-start";
    case FaultKind::kHeartbeatLossEnd: return "heartbeat-loss-end";
    case FaultKind::kNetworkDegradeStart: return "network-degrade-start";
    case FaultKind::kNetworkDegradeEnd: return "network-degrade-end";
  }
  return "?";
}

void FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t < b.t;
                   });
}

double FaultPlan::last_event_time() const {
  double last = 0.0;
  for (const auto& e : events) last = std::max(last, e.t);
  return last;
}

FaultPlan crash_plan(int worker, double t_crash, double t_recover) {
  FaultPlan plan;
  plan.events.push_back({t_crash, FaultKind::kCrash, worker, 0.0, 0.0});
  if (t_recover > t_crash) {
    plan.events.push_back({t_recover, FaultKind::kRecover, worker, 0.0, 0.0});
  }
  plan.normalize();
  return plan;
}

void append(FaultPlan& plan, const FaultPlan& more) {
  plan.events.insert(plan.events.end(), more.events.begin(),
                     more.events.end());
}

FaultPlan random_plan(const RandomFaultConfig& cfg, std::uint64_t seed) {
  LOKI_CHECK(cfg.cluster_size > 0 && cfg.duration_s > 0.0);
  FaultPlan plan;
  Rng base(seed);
  // Separate substreams per fault class: adding straggler phases to a config
  // never perturbs the crash schedule drawn for the same seed.
  Rng crash_rng = base.stream("fault.crashes");
  if (cfg.crash_rate_per_min > 0.0) {
    const double rate = cfg.crash_rate_per_min / 60.0;
    double t = crash_rng.exponential(rate);
    while (t < cfg.duration_s) {
      const int w = static_cast<int>(crash_rng.uniform(
          0.0, static_cast<double>(cfg.cluster_size)));
      const double down = crash_rng.exponential(1.0 / cfg.mttr_s);
      append(plan, crash_plan(std::min(w, cfg.cluster_size - 1), t, t + down));
      t += crash_rng.exponential(rate);
    }
  }
  Rng strag_rng = base.stream("fault.stragglers");
  if (cfg.straggler_rate_per_min > 0.0) {
    const double rate = cfg.straggler_rate_per_min / 60.0;
    double t = strag_rng.exponential(rate);
    while (t < cfg.duration_s) {
      const int w = static_cast<int>(strag_rng.uniform(
          0.0, static_cast<double>(cfg.cluster_size)));
      const int worker = std::min(w, cfg.cluster_size - 1);
      plan.events.push_back({t, FaultKind::kStragglerStart, worker,
                             cfg.straggler_mult, 0.0});
      plan.events.push_back({t + cfg.straggler_duration_s,
                             FaultKind::kStragglerEnd, worker, 0.0, 0.0});
      t += strag_rng.exponential(rate);
    }
  }
  plan.normalize();
  return plan;
}

std::vector<FaultPlan> split_by_shares(const FaultPlan& plan,
                                       const std::vector<int>& shares) {
  std::vector<FaultPlan> out(shares.size());
  std::vector<int> prefix(shares.size() + 1, 0);
  for (std::size_t s = 0; s < shares.size(); ++s) {
    prefix[s + 1] = prefix[s] + shares[s];
  }
  for (const auto& e : plan.events) {
    if (e.worker < 0) {
      for (auto& shard_plan : out) shard_plan.events.push_back(e);
      continue;
    }
    LOKI_CHECK_MSG(e.worker < prefix.back(),
                   "fault event for worker " << e.worker << " outside a "
                                             << prefix.back()
                                             << "-worker cluster");
    for (std::size_t s = 0; s < shares.size(); ++s) {
      if (e.worker < prefix[s + 1]) {
        FaultEvent local = e;
        local.worker = e.worker - prefix[s];
        out[s].events.push_back(local);
        break;
      }
    }
  }
  for (auto& shard_plan : out) shard_plan.normalize();
  return out;
}

}  // namespace loki::fault
