// Deterministic fault injection (ROADMAP item 4): a FaultPlan is a seeded,
// pre-computed schedule of worker crashes, recoveries, stragglers and network
// faults. The serving runtime arms the plan as first-class simulation events
// (see injector.hpp), so every fault fires at an exact simulated time in
// deterministic (t, seq) order — runs are bit-reproducible under a pinned
// seed, and an *empty* plan is differential-tested bit-identical to a run
// without the fault subsystem at all (injection-off passivity).
//
// Worker ids are plan-local: the experiment driver authors plans against
// global cluster ids and splits them into per-shard plans (local ids) for
// the parallel simulation modes; cluster-wide network events carry no worker
// id and are broadcast to every shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace loki::fault {

enum class FaultKind {
  /// Worker dies: queue and in-flight batch are stranded, load cell goes
  /// inactive, heartbeats stop until recovery.
  kCrash,
  /// Crashed worker comes back empty (new incarnation); it idles until the
  /// next allocation plan places an instance on it.
  kRecover,
  /// Straggler phase begins: the worker's batch execution times are scaled
  /// by `param` (> 1) until the matching kStragglerEnd.
  kStragglerStart,
  kStragglerEnd,
  /// Heartbeat loss begins: the worker keeps serving but its heartbeat
  /// reports stop reaching the controller (failure-detector false positive
  /// material) until the matching kHeartbeatLossEnd.
  kHeartbeatLossStart,
  kHeartbeatLossEnd,
  /// Cluster-wide network degradation begins: every forward hop pays
  /// `param` extra seconds and is dropped with probability `param2` until
  /// the matching kNetworkDegradeEnd.
  kNetworkDegradeStart,
  kNetworkDegradeEnd,
};

std::string to_string(FaultKind k);

struct FaultEvent {
  double t = 0.0;
  FaultKind kind = FaultKind::kCrash;
  /// Target worker id; -1 for cluster-wide (network) events.
  int worker = -1;
  /// kStragglerStart: execution-time multiplier (> 1).
  /// kNetworkDegradeStart: extra forward delay in seconds.
  double param = 0.0;
  /// kNetworkDegradeStart: forward drop probability in [0, 1).
  double param2 = 0.0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Stable-sorts events by time; equal-time events keep authoring order
  /// (which becomes their simulation (t, seq) order when armed).
  void normalize();
  /// Time of the last event (0 when empty).
  double last_event_time() const;
};

/// Plan fragment: one crash at t_crash with recovery at t_recover
/// (t_recover <= t_crash means "never recovers").
FaultPlan crash_plan(int worker, double t_crash, double t_recover);

/// Appends `more`'s events to `plan` (normalize afterwards).
void append(FaultPlan& plan, const FaultPlan& more);

/// Seeded random plan generator for soak/chaos runs: crashes arrive as a
/// Poisson process over [0, duration_s), each picking a uniform worker and
/// an exponential downtime; optional straggler phases on top. Deterministic:
/// the same config + seed always yields the same event list.
struct RandomFaultConfig {
  int cluster_size = 0;
  double duration_s = 0.0;
  /// Expected worker crashes per minute across the cluster.
  double crash_rate_per_min = 1.0;
  /// Mean downtime (exponential) between crash and recovery.
  double mttr_s = 20.0;
  /// Expected straggler phases per minute across the cluster (0 = none).
  double straggler_rate_per_min = 0.0;
  double straggler_mult = 3.0;
  double straggler_duration_s = 15.0;
};

FaultPlan random_plan(const RandomFaultConfig& cfg, std::uint64_t seed);

/// Splits a global-worker-id plan into per-shard plans with shard-local ids.
/// Shard s owns the contiguous id range [prefix(s), prefix(s) + shares[s])
/// — the same contiguous split the experiment driver uses for worker
/// shares. Cluster-wide events (worker < 0) are broadcast to every shard.
/// Throws CheckFailure for a worker id at or past the sum of the shares.
std::vector<FaultPlan> split_by_shares(const FaultPlan& plan,
                                       const std::vector<int>& shares);

}  // namespace loki::fault
