// Sharded simulation: K independent Simulation shards advanced in lockstep
// over conservative synchronization windows. Every experiment runs on it
// (exp::run_experiment); one shard is a plain sequential Simulation with a
// barrier hook every window.
//
// Model: the caller partitions its workload into shards that do not interact
// within a window (in this codebase: independent replica clusters serving
// partitioned arrival streams — the paper's workloads are embarrassingly
// parallel across replica groups once the allocator has fixed a plan).
// run_until() advances every shard to the next window boundary on the shared
// ThreadPool, applies cross-shard posts at the barrier, and repeats. A post
// must target a time at or beyond the *next* barrier (conservative
// lookahead), which is what makes the per-window execution race-free without
// any locking inside the shards.
//
// Determinism: each shard is a full sequential Simulation, so per-shard runs
// are bit-reproducible. Cross-shard posts go into per-source buffers (each
// written only by the thread driving that shard) and are merged at the
// barrier in (time, destination, source, issue-order) order — independent of
// thread scheduling, and a fixed shard count gives bit-identical results on
// any thread count (differential suite: sim_parallel_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/simulation.hpp"

namespace loki::sim {

class ParallelSimulation {
 public:
  struct Config {
    /// Number of event shards (>= 1). One shard degenerates to a plain
    /// sequential Simulation behind the same interface.
    std::size_t shards = 2;
    /// Barrier spacing in simulated seconds. Cross-shard posts must target
    /// times at or beyond the next barrier (conservative lookahead).
    double window_s = 0.25;
    /// Worker threads; 0 = min(shards, hardware concurrency).
    std::size_t threads = 0;
  };

  explicit ParallelSimulation(Config cfg);

  std::size_t num_shards() const { return shards_.size(); }
  Simulation& shard(std::size_t i) { return *shards_[i]; }
  Time now() const { return now_; }

  /// Advances all shards to t_end in lockstep windows.
  void run_until(Time t_end);

  /// Schedules `cb` on shard `dst` at time `t`, issued by shard `src`'s
  /// callbacks while a window runs (also usable between windows with any
  /// src). `t` must be at or beyond the current window's end barrier
  /// (LOKI_CHECK enforced), so the destination shard cannot have run past
  /// it. Applied at the next barrier in deterministic order.
  void post(std::size_t src, std::size_t dst, Time t,
            Simulation::Callback cb);

  /// Barrier hook: called on the driving thread after every window barrier
  /// (post-merge), with the barrier time. All shards are quiescent at that
  /// point, so the callback may inspect and mutate any shard directly —
  /// this is how a cross-shard coordinator (e.g. the intra-cluster-sharded
  /// serving driver) runs shared planning at deterministic points. Work it
  /// schedules into shards lands at or after the barrier time.
  using BarrierFn = std::function<void(Time)>;
  void set_barrier_callback(BarrierFn fn) { barrier_cb_ = std::move(fn); }

 private:
  void apply_posts();

  struct Post {
    std::size_t dst = 0;
    Time t = 0.0;
    Simulation::Callback cb;
  };

  Config cfg_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<std::vector<Post>> posts_;  // indexed by source shard
  ThreadPool pool_;
  BarrierFn barrier_cb_;
  Time now_ = 0.0;
  Time window_end_ = 0.0;
};

}  // namespace loki::sim
