// The fault plane of a serving system: heartbeat failure detection,
// quarantine, stranded-query retry or shed, degraded-mode shedding, network
// degradation, and the five injection entry points a FaultPlan arms
// (src/fault). A ServingSystem builds its plane only when armed (non-empty
// cfg.fault_plan or cfg.detector.enabled); otherwise it holds none, so no
// series is registered, no RNG drawn and no code run. The plane drives the
// core it belongs to (re-dispatching stranded items), so it reaches into
// ServingSystem as a friend. It never plans: a dead-set change degrades the
// system until a plan is installed, and the control plane decides when that
// is (serving/control_plane.hpp).
#pragma once

#include <array>
#include <vector>

#include "cluster/worker.hpp"
#include "common/rng.hpp"
#include "fault/detector.hpp"
#include "obs/registry.hpp"
#include "serving/metrics.hpp"

namespace loki::serving {

class ServingSystem;

class FaultPlane {
 public:
  /// Untiered stranded recovery: an item stranded on a dead worker is
  /// re-dispatched at detection time while its deadline stands and it has
  /// been retried fewer than kMaxRetries times; shed-by-failure otherwise.
  static constexpr int kMaxRetries = 2;
  /// Tiered stranded recovery (TierPlane armed): attempt r waits
  /// kRetryBackoffS * 2^r, at most kTieredMaxRetries attempts, and is only
  /// dispatched if it can land with kRetryHeadroomFrac[tier] * SLO to spare
  /// — best-effort items give up earlier, freeing capacity for strict ones.
  static constexpr double kRetryBackoffS = 0.05;
  static constexpr int kTieredMaxRetries = 4;
  static constexpr std::array<double, kNumTiers> kRetryHeadroomFrac = {
      0.0, 0.1, 0.25};

  /// Registers the <prefix>.fault.* series (all but replans, which the
  /// control plane counts) and sizes per-worker state for `system`'s
  /// cluster.
  FaultPlane(ServingSystem& system, obs::Registry& registry);
  // Scheduled fault events and retries hold `this`.
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Schedules the configured FaultPlan's events (no-op when empty).
  void arm();

  // Injection entry points: the armed FaultPlan's events call these; tests
  // and chaos drivers may too.
  /// Worker dies now: queue + in-flight batch are stranded (held until the
  /// detector declares the worker dead, or recovery — whichever first).
  void inject_worker_crash(int worker);
  /// Crashed worker returns empty with a bumped incarnation.
  void inject_worker_recover(int worker);
  /// Execute-time multiplier for batches started from now on (1 = healthy).
  void inject_straggler(int worker, double mult);
  /// Suppress (lost = true) or restore this worker's heartbeat reports; the
  /// worker keeps serving (failure-detector false-positive material).
  void inject_heartbeat_loss(int worker, bool lost);
  /// Cluster-wide network degradation: extra forward delay + drop prob.
  void inject_network_degrade(double extra_delay_s, double drop_prob);

  // Core hooks.

  /// Folds this heartbeat's reports into the detector and handles health
  /// transitions (quarantine, stranded-query resolution, degraded mode).
  void on_heartbeat(double now);
  /// A plan was installed: the current dead set is planned around.
  void on_plan();
  /// Sheds whatever is still stranded at the end of the run, so arrivals ==
  /// completions + drops reconciles exactly.
  void on_finish(double t_end);
  /// Degraded overload mode: sheds a frontend arrival with probability
  /// `shed_p` (the tier's shed fill). Draws only while degraded.
  bool sheds_degraded(double shed_p) {
    if (!degraded_ || !rng_.bernoulli(shed_p)) return false;
    c_degraded_shed_.add(1);
    return true;
  }
  /// Network degradation: true when this forward is dropped.
  bool drops_forward() {
    if (net_drop_prob_ <= 0.0 || !rng_.bernoulli(net_drop_prob_)) {
      return false;
    }
    c_net_drops_.add(1);
    return true;
  }
  double extra_delay_s() const { return net_extra_delay_s_; }
  /// Per-worker quarantine mask (suspect or dead: no new routing).
  const char* quarantined() const { return quarantined_.data(); }
  /// Fraction of frontend arrivals degraded mode sheds (0 when healthy).
  double shed_fraction() const { return degraded_shed_frac_; }

  const fault::FailureDetector& detector() const { return detector_; }
  /// True when the detector's dead set changed since the last installed
  /// plan: a barrier-driven control plane polls this to re-plan.
  bool replan_pending() const { return epoch_ != planned_epoch_; }
  /// Degraded overload mode: dead capacity not yet re-planned around.
  bool degraded() const { return degraded_; }

 private:
  /// Retries or sheds the items stranded on a crashed worker.
  void resolve_stranded(int worker, double now);
  /// Tiered recovery gave up on a stranded item: shed-by-failure.
  void give_up(const cluster::WorkItem& item, double now);
  /// The dead set changed: degrade until re-planned, and tell a one-shard
  /// control plane, which re-plans at once.
  void on_dead_set_changed();
  /// Recomputes degraded mode from the dead count and the pending re-plan,
  /// and refills the tier plane's shed fills.
  void update_degraded();

  ServingSystem& sys_;
  fault::FailureDetector detector_;
  /// Fault-path randomness (degraded shedding, network drops): its own
  /// substream, so drawing here never perturbs the core's streams.
  Rng rng_;
  std::vector<char> quarantined_;
  std::vector<char> hb_suppressed_;
  std::vector<double> crash_time_;  // -1 = not crashed (latency attribution)
  /// Items stranded per crashed worker, held until the detector declares
  /// the worker dead (retry/shed) or the worker recovers first.
  std::vector<std::vector<cluster::WorkItem>> stranded_;
  double net_extra_delay_s_ = 0.0;
  double net_drop_prob_ = 0.0;
  bool degraded_ = false;
  double degraded_shed_frac_ = 0.0;
  /// Bumped whenever the detector's dead set changes; a plan installed at
  /// epoch e records planned_epoch_ = e. Mismatch = re-plan pending.
  int epoch_ = 0;
  int planned_epoch_ = 0;
  obs::Counter c_crashes_;
  obs::Counter c_recoveries_;
  obs::Counter c_suspects_;
  obs::Counter c_dead_;
  obs::Counter c_stranded_retried_;
  obs::Counter c_stranded_dropped_;
  obs::Counter c_degraded_shed_;
  obs::Counter c_net_drops_;
  obs::Counter c_stale_heartbeats_;
  obs::Histogram h_detect_ns_;
  obs::Histogram h_recovery_ns_;
};

}  // namespace loki::serving
