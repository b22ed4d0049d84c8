// Heartbeat-timeout failure detection (phi-style suspicion): the controller
// folds worker heartbeat reports into a per-worker health state machine
//
//   alive -> suspect -> dead -> (new report) -> alive
//
// where the suspicion level phi is the number of heartbeat periods elapsed
// since the worker last reported. Crossing kSuspectPhi quarantines the
// worker (the load balancer stops routing new work to it); crossing
// kDeadPhi declares it dead (stranded queries are retried or shed, and the
// Resource Manager re-plans over the survivors).
//
// Incarnation numbers make recovery safe against stale state: a recovered
// worker reports with a bumped incarnation, and reports carrying an *older*
// incarnation than the detector's view are rejected outright — a delayed
// heartbeat from a previous life can never resurrect dead state or mask a
// fresh failure.
//
// The detector is deliberately deterministic and passive: it draws no
// randomness and schedules no events. The serving runtime feeds it from the
// existing heartbeat loop, so detection latency quantizes to the heartbeat
// period — exactly what the fig9 bench measures.
#pragma once

#include <string>
#include <vector>

namespace loki::fault {

enum class WorkerHealth { kAlive, kSuspect, kDead };

std::string to_string(WorkerHealth h);

/// Worker heartbeat period (multiplicative-factor reports, §3): the serving
/// system's heartbeat loop runs at it, and the detector counts phi in it.
inline constexpr double kHeartbeatPeriodS = 1.0;
/// Suspicion thresholds in heartbeat periods elapsed since the last
/// accepted report (phi): quarantine after 2.5 missed beats, declare dead
/// after 5.5.
inline constexpr double kSuspectPhi = 2.5;
inline constexpr double kDeadPhi = 5.5;

struct DetectorConfig {
  /// Master switch. Auto-enabled by the serving runtime when a non-empty
  /// FaultPlan is armed; off by default so default-configured systems are
  /// bit-identical to a build without the fault subsystem.
  bool enabled = false;
};

/// One health-state transition, in detection order.
struct HealthTransition {
  double t = 0.0;
  int worker = -1;
  int incarnation = 0;
  WorkerHealth from = WorkerHealth::kAlive;
  WorkerHealth to = WorkerHealth::kAlive;
};

class FailureDetector {
 public:
  FailureDetector() = default;
  FailureDetector(DetectorConfig cfg, int num_workers);

  /// Outcome of folding one heartbeat report.
  enum class ReportResult {
    kAccepted,
    /// Report carried an incarnation older than the detector's view —
    /// ignored entirely (stale-heartbeat protection).
    kStale,
  };

  /// Folds one heartbeat report at time `now`. A report from a dead or
  /// suspect worker (same or newer incarnation) transitions it back to
  /// alive; the transition is queued for drain_transitions().
  ReportResult report(int worker, int incarnation, double now);

  /// Timeout scan: advances every worker's state from its phi at `now`.
  /// Transitions are queued in worker-id order (deterministic).
  void evaluate(double now);

  /// Transitions accumulated since the last drain, in detection order.
  std::vector<HealthTransition> drain_transitions();

  WorkerHealth health(int worker) const;
  int incarnation(int worker) const;
  /// Heartbeat periods elapsed since the worker's last accepted report.
  double phi(int worker, double now) const;
  int dead_count() const { return dead_count_; }
  int suspect_count() const { return suspect_count_; }
  int num_workers() const { return static_cast<int>(states_.size()); }
  const DetectorConfig& config() const { return cfg_; }

 private:
  struct State {
    WorkerHealth health = WorkerHealth::kAlive;
    int incarnation = 0;
    double last_report = 0.0;
  };

  void transition(int worker, WorkerHealth to, double now);

  DetectorConfig cfg_;
  std::vector<State> states_;
  std::vector<HealthTransition> pending_;
  int dead_count_ = 0;
  int suspect_count_ = 0;
};

}  // namespace loki::fault
