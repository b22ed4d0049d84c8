// Sampled per-request latency attribution (ROADMAP item 5): where did a
// query's latency budget go — queue, micro-batch hold, execute, model-swap
// stall, network — from admission to completion or shed.
//
// Sampling is deterministic: a query is traced iff the slot of its pool
// handle (the query id IS a HandlePool handle, see serving/system.hpp)
// satisfies slot % N == 0 for the configured power-of-two period. That makes
// the sampled set bit-reproducible across runs and — crucially — keeps
// tracing entirely passive: the tracer never draws from an RNG, never
// schedules an event, and never changes control flow, so tracing on/off is
// differential-tested to leave every simulation metric bit-identical.
//
// Time domains: callers pass sim-time seconds (sim::Simulation::now()) in
// simulations and steady-clock seconds in wall benches; the tracer converts
// to integer nanoseconds when flushing into registry histograms, so both
// domains share one histogram schema (<prefix>.lat.*, values in ns).
//
// Threading: the per-slot record table is owned by one serving system and is
// only touched from that system's (single) simulation thread. The registry
// histograms it flushes into are concurrent — shard systems sharing a
// registry and prefix merge into cluster-wide stage histograms.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "obs/registry.hpp"

namespace loki::obs {

struct TraceOptions {
  /// Master switch. On by default — always-on observability is the point.
  /// TracerWork.* pins the tracer's work and TracePassivity.* that it
  /// leaves the simulation bit-identical; bm_obs times its cost, ungated.
  bool enabled = true;
  /// Trace 1 in N queries (rounded down to a power of two, min 1).
  std::uint32_t sample_period = 64;
};

class QueryTracer {
 public:
  /// Detached tracer: sampled() is false for every id, hooks are no-ops.
  QueryTracer() = default;

  /// Registers the stage histograms `<prefix>.lat.{queue,batch,execute,
  /// swap_stall,comm,e2e}` and the counters `<prefix>.trace.{sampled,
  /// completed,dropped}` in `registry`.
  QueryTracer(Registry* registry, const std::string& prefix,
              TraceOptions opt);

  bool enabled() const { return enabled_; }
  std::uint32_t sample_period() const { return mask_ + 1; }

  /// Hot-path guard: one mask test on the handle's slot bits.
  bool sampled(std::uint64_t query_id) const {
    return enabled_ && (pool_handle_slot(query_id) & mask_) == 0;
  }

  /// Query admitted (pool record created) at `now_s`.
  void on_admit(std::uint64_t query_id, double now_s);
  /// One worker visit's wait decomposition: time behind earlier batches
  /// (queue), worker-idle micro-batch hold (batch), model-load stall (swap).
  void add_wait(std::uint64_t query_id, double queue_s, double batch_s,
                double swap_s);
  /// Batch execution latency the query sat through at one worker.
  void add_execute(std::uint64_t query_id, double exec_s);
  /// One network hop's delay.
  void add_comm(std::uint64_t query_id, double comm_s);
  /// Query finalized (all outstanding parts done); flushes the accumulated
  /// record into the stage histograms and recycles it.
  void on_complete(std::uint64_t query_id, double now_s, bool dropped);

 private:
  /// Per-sampled-query accumulator. A query's pipeline may fan out over
  /// many workers; stage shares accumulate across all visits, so the flushed
  /// record is the query's total time-in-stage (the critical-path breakdown
  /// reads: e2e = queue + batch + execute + swap + comm + slack-from-fanout).
  struct Record {
    std::uint64_t query_id = 0;  // full handle: generation-checks the slot
    double admit_t = 0.0;
    double queue_s = 0.0;
    double batch_s = 0.0;
    double execute_s = 0.0;
    double swap_s = 0.0;
    double comm_s = 0.0;
  };

  Record* record_for(std::uint64_t query_id) {
    const std::uint32_t idx = pool_handle_slot(query_id) >> shift_;
    if (idx >= records_.size()) records_.resize(idx + 1);
    return &records_[idx];
  }

  static std::uint64_t to_ns(double seconds) {
    return seconds > 0.0
               ? static_cast<std::uint64_t>(std::llround(seconds * 1e9))
               : 0;
  }

  bool enabled_ = false;
  std::uint32_t mask_ = 0;  // sample_period - 1
  unsigned shift_ = 0;      // log2(sample_period): slot -> record index
  std::vector<Record> records_;

  Histogram h_queue_;
  Histogram h_batch_;
  Histogram h_execute_;
  Histogram h_swap_;
  Histogram h_comm_;
  Histogram h_e2e_;
  Counter c_sampled_;
  Counter c_completed_;
  Counter c_dropped_;
};

}  // namespace loki::obs
