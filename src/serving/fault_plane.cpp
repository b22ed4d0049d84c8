#include "serving/fault_plane.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "fault/injector.hpp"
#include "serving/control_plane.hpp"
#include "serving/system.hpp"

namespace loki::serving {

namespace {

std::uint64_t fault_ns(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

}  // namespace

FaultPlane::FaultPlane(ServingSystem& system, obs::Registry& registry)
    : sys_(system), rng_(Rng(system.cfg_.seed).stream("fault")) {
  const SystemConfig& cfg = sys_.cfg_;
  detector_ = fault::FailureDetector(fault::DetectorConfig{/*enabled=*/true},
                                     cfg.allocator.cluster_size);
  const std::size_t n = static_cast<std::size_t>(cfg.allocator.cluster_size);
  quarantined_.assign(n, 0);
  hb_suppressed_.assign(n, 0);
  crash_time_.assign(n, -1.0);
  stranded_.resize(n);
  const std::string fp = std::string(kMetricPrefix) + ".fault.";
  c_crashes_ = registry.counter(fp + "crashes");
  c_recoveries_ = registry.counter(fp + "recoveries");
  c_suspects_ = registry.counter(fp + "suspects");
  c_dead_ = registry.counter(fp + "dead");
  c_stranded_retried_ = registry.counter(fp + "stranded_retried");
  c_stranded_dropped_ = registry.counter(fp + "stranded_dropped");
  c_degraded_shed_ = registry.counter(fp + "degraded_shed");
  c_net_drops_ = registry.counter(fp + "net_drops");
  c_stale_heartbeats_ = registry.counter(fp + "stale_heartbeats");
  h_detect_ns_ = registry.histogram(fp + "detect_ns");
  h_recovery_ns_ = registry.histogram(fp + "recovery_ns");
}

void FaultPlane::arm() {
  fault::FaultPlan plan = sys_.cfg_.fault_plan;
  if (plan.empty()) return;
  plan.normalize();
  fault::FaultHooks hooks;
  hooks.crash = [this](int w) { inject_worker_crash(w); };
  hooks.recover = [this](int w) { inject_worker_recover(w); };
  hooks.straggler = [this](int w, double m) { inject_straggler(w, m); };
  hooks.heartbeat_loss = [this](int w, bool lost) {
    inject_heartbeat_loss(w, lost);
  };
  hooks.network = [this](double d, double p) {
    inject_network_degrade(d, p);
  };
  fault::arm_fault_plan(sys_.sim_, plan, std::move(hooks));
}

void FaultPlane::inject_worker_crash(int worker) {
  LOKI_CHECK(worker >= 0 && worker < static_cast<int>(sys_.workers_.size()));
  const std::size_t wi = static_cast<std::size_t>(worker);
  auto& w = *sys_.workers_[wi];
  if (w.crashed()) return;
  c_crashes_.add(1);
  crash_time_[wi] = sys_.sim_->now();
  // Stranded items are *held*, not retried immediately: the controller does
  // not know about the crash until the detector declares the worker dead.
  std::vector<cluster::WorkItem> lost = w.crash();
  auto& held = stranded_[wi];
  held.insert(held.end(), lost.begin(), lost.end());
  sys_.worker_task_[wi] = -1;
}

void FaultPlane::inject_worker_recover(int worker) {
  LOKI_CHECK(worker >= 0 && worker < static_cast<int>(sys_.workers_.size()));
  const std::size_t wi = static_cast<std::size_t>(worker);
  auto& w = *sys_.workers_[wi];
  if (!w.crashed()) return;
  c_recoveries_.add(1);
  w.recover();
  // Anything still stranded (the worker came back before the detector
  // declared it dead) is retried or shed now.
  resolve_stranded(worker, sys_.sim_->now());
  if (detector_.health(worker) != fault::WorkerHealth::kDead) {
    // Never declared dead: no detector transition will restore placement,
    // so trigger the re-plan directly. The detector catches up at the next
    // heartbeat via the bumped incarnation.
    crash_time_[wi] = -1.0;
    on_dead_set_changed();
  }
  // Declared-dead workers re-plan on the dead -> alive transition instead
  // (next accepted heartbeat report), which also records recovery time.
}

void FaultPlane::inject_straggler(int worker, double mult) {
  LOKI_CHECK(worker >= 0 && worker < static_cast<int>(sys_.workers_.size()));
  auto& w = *sys_.workers_[static_cast<std::size_t>(worker)];
  if (w.crashed()) return;  // crash already reset the multiplier
  w.set_exec_multiplier(mult);
}

void FaultPlane::inject_heartbeat_loss(int worker, bool lost) {
  LOKI_CHECK(worker >= 0 && worker < static_cast<int>(sys_.workers_.size()));
  hb_suppressed_[static_cast<std::size_t>(worker)] = lost ? 1 : 0;
}

void FaultPlane::inject_network_degrade(double extra_delay_s,
                                        double drop_prob) {
  LOKI_CHECK(extra_delay_s >= 0.0 && drop_prob >= 0.0 && drop_prob < 1.0);
  net_extra_delay_s_ = extra_delay_s;
  net_drop_prob_ = drop_prob;
}

void FaultPlane::on_plan() {
  planned_epoch_ = epoch_;
  update_degraded();
}

void FaultPlane::on_finish(double t_end) {
  for (auto& held : stranded_) {
    for (const auto& item : held) {
      c_stranded_dropped_.add(1);
      sys_.drop_query_part(item.query_id, t_end, LossCause::kWorkerFailure);
    }
    held.clear();
  }
}

void FaultPlane::update_degraded() {
  const int dead = detector_.dead_count();
  degraded_ = dead > 0 && epoch_ != planned_epoch_;
  degraded_shed_frac_ =
      degraded_ ? std::min(0.9, static_cast<double>(dead) /
                                    std::max(1.0, static_cast<double>(
                                                      sys_.plan_.servers_used)))
                : 0.0;
  sys_.tiers_.fill(sys_.plan_.served_fraction, degraded_shed_frac_);
}

void FaultPlane::on_dead_set_changed() {
  ++epoch_;
  update_degraded();
  if (sys_.control_ != nullptr) sys_.control_->on_dead_set_changed();
}

void FaultPlane::resolve_stranded(int worker, double now) {
  auto& held = stranded_[static_cast<std::size_t>(worker)];
  if (held.empty()) return;
  std::vector<cluster::WorkItem> items;
  items.swap(held);
  TierPlane& tiers = sys_.tiers_;
  if (!tiers.armed()) {
    for (auto& item : items) {
      // Bounded retry-with-deadline: re-dispatch while the end-to-end
      // deadline still stands and the item has retries left; otherwise the
      // query is shed-by-failure.
      if (now <= item.deadline && item.retries < kMaxRetries) {
        const int alt = sys_.pick_worker_for_task(item.task);
        if (alt >= 0) {
          ++item.retries;
          c_stranded_retried_.add(1);
          item.enqueue_time = now;
          sys_.workers_[static_cast<std::size_t>(alt)]->enqueue(item);
          continue;
        }
      }
      c_stranded_dropped_.add(1);
      sys_.drop_query_part(item.query_id, now, LossCause::kWorkerFailure);
    }
    return;
  }

  // Tiered stranded recovery: strict tiers re-dispatch first (earliest
  // deadline first within a tier — the resources freed by giving up on
  // hopeless best-effort items go to strict ones), and the fixed
  // immediate-retry budget becomes deterministic exponential backoff.
  std::stable_sort(items.begin(), items.end(),
                   [](const cluster::WorkItem& a, const cluster::WorkItem& b) {
                     if (a.tier != b.tier) return a.tier < b.tier;
                     return a.deadline < b.deadline;
                   });
  for (auto& item : items) {
    const int tier = std::clamp(item.tier, 0, kNumTiers - 1);
    const int shift = item.retries < 30 ? item.retries : 30;
    const double delay = kRetryBackoffS * static_cast<double>(1u << shift);
    const double headroom =
        kRetryHeadroomFrac[static_cast<std::size_t>(tier)] *
        sys_.cfg_.allocator.slo_s;
    if (item.retries < kTieredMaxRetries &&
        now + delay + headroom <= item.deadline) {
      ++item.retries;
      c_stranded_retried_.add(1);
      tiers.count_retry();
      sys_.sim_->schedule_after(delay, [this, copy = item]() mutable {
        const double t = sys_.sim_->now();
        const int alt =
            sys_.stopped_ ? -1 : sys_.pick_worker_for_task(copy.task);
        if (alt < 0) {
          // Run over, or still nowhere to go: shed-by-failure so the
          // per-tier accounting reconciles exactly.
          give_up(copy, t);
          return;
        }
        copy.enqueue_time = t;
        sys_.workers_[static_cast<std::size_t>(alt)]->enqueue(copy);
      });
      continue;
    }
    give_up(item, now);
  }
}

void FaultPlane::give_up(const cluster::WorkItem& item, double now) {
  c_stranded_dropped_.add(1);
  sys_.tiers_.count_retry_given_up();
  sys_.drop_query_part(item.query_id, now, LossCause::kWorkerFailure);
}

void FaultPlane::on_heartbeat(double now) {
  // Heartbeat reports from live, non-suppressed workers. Crashed workers
  // stop reporting (that *is* the failure signal); heartbeat-loss injection
  // suppresses reports while the worker keeps serving (false-positive
  // material — the quarantine costs capacity until the reports resume).
  for (std::size_t wi = 0; wi < sys_.workers_.size(); ++wi) {
    auto& w = *sys_.workers_[wi];
    if (w.crashed() || hb_suppressed_[wi]) continue;
    if (detector_.report(static_cast<int>(wi), w.incarnation(), now) ==
        fault::FailureDetector::ReportResult::kStale) {
      c_stale_heartbeats_.add(1);
    }
  }
  detector_.evaluate(now);

  bool dead_set_changed = false;
  for (const auto& tr : detector_.drain_transitions()) {
    const std::size_t wi = static_cast<std::size_t>(tr.worker);
    switch (tr.to) {
      case fault::WorkerHealth::kSuspect:
        c_suspects_.add(1);
        quarantined_[wi] = 1;
        break;
      case fault::WorkerHealth::kDead:
        c_dead_.add(1);
        quarantined_[wi] = 1;
        if (crash_time_[wi] >= 0.0) {
          h_detect_ns_.add(fault_ns(now - crash_time_[wi]));
        }
        // The controller now *knows*: retry/shed whatever was stranded.
        resolve_stranded(tr.worker, now);
        dead_set_changed = true;
        break;
      case fault::WorkerHealth::kAlive:
        quarantined_[wi] = 0;
        if (tr.from == fault::WorkerHealth::kDead) {
          if (crash_time_[wi] >= 0.0) {
            h_recovery_ns_.add(fault_ns(now - crash_time_[wi]));
            crash_time_[wi] = -1.0;
          }
          dead_set_changed = true;
        }
        break;
    }
  }
  if (dead_set_changed) on_dead_set_changed();
}

}  // namespace loki::serving
