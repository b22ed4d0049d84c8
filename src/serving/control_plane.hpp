// The control plane of a run, at every shard count: the one place that
// decides when to plan and what to plan for (the paper's Resource Manager,
// §4.2 and §5.1). It owns the planners, the hysteresis and the triggers,
// merges the shards' observations into each request, calls plan(), counts
// solve time, allocations and serving.fault.replans, and installs each plan
// on its shards.
//
// One shard plans in-process, when the Resource Manager does: at start,
// every rm_period_s on an event scheduled ahead of the shard's load-balancer
// and heartbeat loops, after a heartbeat that sees demand surge or collapse,
// and at once when the detector's dead set changes. The shard makes the last
// two calls itself, so they add no simulation event. K > 1 shards plan at
// window barriers on the driving thread, while every shard waits; a changed
// dead set is polled there through FaultPlane::replan_pending().
//
// Each distinct share gets a plan sized for its share / cluster slice of
// demand (splitting one full-cluster plan was measured worse: dealing its
// replicas across equal-demand shards starved one, e.g. 3 detection
// replicas over 2 shards). In fault mode, which means some shard has a
// fault plane, every shard gets its own plan, since equal shares can lose
// different workers, and the slices follow the surviving workers as the
// arrival deal does.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "serving/allocation.hpp"
#include "serving/types.hpp"

namespace loki::serving {

class ServingSystem;

class ControlPlane {
 public:
  /// Builds the planner of one planned slice from the slice's allocator
  /// config (its cluster_size is the slice's share of the cluster).
  using PlannerFactory = std::function<std::unique_ptr<AllocationStrategy>(
      const AllocatorConfig& slice)>;

  /// `shards` (in shard order) must outlive the control plane. They share
  /// the run's control knobs, read from the first shard's config:
  /// rm_period_s, rejected unless finite and > 0, realloc_threshold and the
  /// registry.
  ControlPlane(std::vector<ServingSystem*> shards,
               const PlannerFactory& make_planner);
  // An in-process control plane's events and its shard hold `this`.
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Starts the shards and installs the initial plans before any arrival.
  void start();
  /// Window-barrier hook of a sharded run; one shard plans on its own
  /// events instead.
  void on_barrier(double now);

  /// The one-shard triggers, called by the shard: after each heartbeat
  /// (re-plans on a demand surge or collapse), and when its detector's dead
  /// set changes (re-plans at once, over the survivors).
  void after_heartbeat();
  void on_dead_set_changed();

  /// Name of the run's strategy (every slice runs the same one).
  std::string name() const { return planners_.front()->name(); }
  /// Wall time of every plan() call, summed in call order (the Resource
  /// Manager overhead of §6.5).
  double total_solve_time_s() const { return solve_s_; }
  /// plan() calls made.
  int allocations() const { return allocations_; }

 private:
  bool in_process() const { return shards_.size() == 1; }
  /// `force` skips the hysteresis: a dead-set change moved capacity, not
  /// demand.
  void replan(double now, bool force);

  std::vector<ServingSystem*> shards_;
  std::vector<int> share_;  // each shard's worker count
  double rm_period_s_ = 0.0;
  double realloc_threshold_ = 0.0;
  bool fault_mode_ = false;
  std::vector<double> plan_fracs_;       // demand fraction each plan serves
  std::vector<std::size_t> shard_plan_;  // shard -> plan index
  std::vector<std::unique_ptr<AllocationStrategy>> planners_;  // per plan
  std::vector<AllocationPlan> plans_;
  double solve_s_ = 0.0;
  int allocations_ = 0;
  /// The merged demand estimate the current plans were made for.
  double last_demand_ = 0.0;
  bool have_plan_ = false;
  double next_replan_ = 0.0;  // barrier-driven only
  obs::Counter replans_;      // fault mode only
};

}  // namespace loki::serving
