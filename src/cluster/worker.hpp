// Simulated GPU worker (§3 "Workers"): hosts one model-variant instance,
// queues incoming (intermediate) queries, executes them in batches of up to
// the configured maximum batch size, and pays a model-swap delay when the
// Resource Manager reassigns it to a different variant.
//
// The worker is policy-free: batching-time drop decisions and post-execution
// forwarding are delegated to callbacks installed by the serving runtime, so
// the same worker serves Loki and both baselines.
//
// Hot-path allocation discipline: the queue is a RingBuffer (contiguous,
// power-of-two ring — no per-chunk deque allocations), batch vectors are
// recycled through a small free list, and the runtime callbacks are
// SmallFunctions (inline capture storage — installing them never allocates,
// and invoking them is one indirect call), so steady-state batching performs
// no heap allocation. Batch/drop callbacks receive a *borrowed* vector
// (`std::vector<WorkItem>&`): consume or move out the items, but do not keep
// a reference to the vector itself past the call.
//
// Load publication: instead of the scheduler dereferencing every Worker to
// ask load()/active()/loading() per routed item, a worker can be bound to an
// external 32-bit load cell (bind_load_cell) that it keeps current on every
// state change. The serving runtime owns one contiguous cell array for the
// whole cluster, so replica selection is a scan over packed integers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/pool.hpp"
#include "common/small_function.hpp"
#include "obs/trace.hpp"
#include "profile/variant.hpp"
#include "sim/simulation.hpp"

namespace loki::cluster {

/// One unit of work: a (client query, task) stage flowing through a worker.
struct WorkItem {
  std::uint64_t query_id = 0;
  int task = -1;
  double enqueue_time = 0.0;   // when it entered this worker's queue
  double deadline = 0.0;       // absolute end-to-end deadline
  double accuracy_so_far = 1.0;  // product of upstream variant accuracies
  /// Cumulative time over the per-task latency budgets so far — the "x" of
  /// opportunistic rerouting (§5.2): the deficit a faster downstream path
  /// must make up.
  double debt_s = 0.0;
  /// Times this item was re-dispatched after being stranded on a crashed
  /// worker (bounded retry-with-deadline, fault recovery path).
  int retries = 0;
  /// SLO tier of the owning query (0 = strict .. 2 = best-effort); tier 0
  /// for every query when tiered serving is off.
  int tier = 0;
};

/// Per-stage hot-path counters (queue -> batch -> execute -> swap). Updates
/// are plain adds on state the batching path already touches (self-measured
/// overhead is reported by BM_ServingStageCounterOverhead); aggregation over
/// a cluster is the serving runtime's job, which also publishes deltas into
/// the obs::Registry (pull model — the hot path never touches an atomic).
/// Semantics: monotonically non-decreasing for the worker's lifetime;
/// reassignments and plan re-installs never reset them.
struct StageCounters {
  /// Queue stage: items that entered a worker queue, and their summed
  /// simulated wait between enqueue and batch formation.
  std::uint64_t enqueued = 0;
  double queue_wait_s = 0.0;
  /// Batch stage: batches formed and items executed across them (the ratio
  /// is the realized mean batch size).
  std::uint64_t batches = 0;
  std::uint64_t batch_items = 0;
  /// Execute stage: simulated busy execution time.
  double execute_s = 0.0;
  /// Swap stage: model swaps paid and their summed load-time stalls.
  std::uint64_t swaps = 0;
  double swap_stall_s = 0.0;

  StageCounters& operator+=(const StageCounters& o) {
    enqueued += o.enqueued;
    queue_wait_s += o.queue_wait_s;
    batches += o.batches;
    batch_items += o.batch_items;
    execute_s += o.execute_s;
    swaps += o.swaps;
    swap_stall_s += o.swap_stall_s;
    return *this;
  }
};

class Worker {
 public:
  /// Configuration snapshot taken when a batch starts. Completion callbacks
  /// receive this snapshot rather than reading the worker's live config: the
  /// Resource Manager may reassign the worker mid-batch, and the finished
  /// work must be attributed to the variant that actually executed it.
  struct BatchContext {
    int task = -1;
    int variant = -1;
    int max_batch = 1;
    const profile::ModelVariant* model = nullptr;
  };

  /// Called when a batch finishes executing. The item vector is borrowed
  /// (recycled by the worker after the call returns).
  using BatchDoneFn = SmallFunction<void(Worker&, std::vector<WorkItem>&,
                                         const BatchContext&)>;
  /// Batching-time filter: return true to drop the item *before* execution
  /// (last-task early dropping, §5.2). Dropped items are reported through
  /// this callback's side effects, not executed.
  using DropFilterFn = SmallFunction<bool(const Worker&, const WorkItem&)>;
  /// Execution-time jitter hook: maps nominal batch latency to actual
  /// (identity by default; the simulator-validation bench injects noise).
  using JitterFn = SmallFunction<double(double)>;
  /// Items dropped by the batching-time filter (deadline already lost).
  /// Borrowed vector, same discipline as BatchDoneFn.
  using DroppedFn = SmallFunction<void(Worker&, std::vector<WorkItem>&)>;

  /// External load cell encoding: kLoadCellInactive when no instance is
  /// hosted; otherwise queue+inflight load, with kLoadCellLoadingBit set
  /// while a model swap is in progress.
  static constexpr std::uint32_t kLoadCellInactive = 0xFFFFFFFFu;
  static constexpr std::uint32_t kLoadCellLoadingBit = 0x80000000u;

  Worker(int id, sim::Simulation* sim);

  /// Installs runtime callbacks. Must be set before any enqueue.
  void set_batch_done(BatchDoneFn fn) { on_batch_done_ = std::move(fn); }
  void set_drop_filter(DropFilterFn fn) { drop_filter_ = std::move(fn); }
  void set_dropped_sink(DroppedFn fn) { on_dropped_ = std::move(fn); }
  void set_jitter(JitterFn fn) { jitter_ = std::move(fn); }
  /// Micro-batching: when the queue holds fewer than max_batch items, wait
  /// up to this long for more before executing (0 = execute immediately).
  /// Larger batches raise throughput at the cost of queueing latency —
  /// the same trade-off the Resource Manager's batch-size choice makes at
  /// planning time, exposed here at the worker level.
  void set_batch_wait(double seconds) { batch_wait_s_ = seconds; }
  double batch_wait_s() const { return batch_wait_s_; }

  /// Tier-priority batch formation (SLO tiers): when on, batches are formed
  /// strict-tier-first, FIFO within a tier, instead of globally FIFO — a
  /// strict query jumps best-effort backlog instead of waiting behind it.
  /// With a single-tier queue the (tier, arrival) order IS arrival order, so
  /// the selection, accounting, and drop decisions are bit-identical to the
  /// FIFO path — the passivity invariant tiered serving relies on.
  void set_tier_priority(bool on) { tier_priority_ = on; }
  bool tier_priority() const { return tier_priority_; }

  /// Installs the sampled per-request tracer (may be nullptr = off). The
  /// worker only *records* into it — it never schedules events or draws
  /// randomness on its behalf — so tracing cannot perturb simulation state.
  void set_tracer(obs::QueryTracer* tracer) { tracer_ = tracer; }

  /// Binds the external load cell this worker publishes its state into (the
  /// cell must outlive the worker or be re-bound). Publishes immediately.
  void bind_load_cell(std::uint32_t* cell) {
    load_cell_ = cell;
    publish_load();
  }

  /// (Re)assigns this worker to host `variant` of `task` with the given
  /// maximum batch size. If the variant changes and `swap_cost` is true the
  /// worker becomes unavailable for the variant's load time. Items still in
  /// the queue are returned to the caller for redistribution.
  std::vector<WorkItem> assign(int task, int variant,
                               const profile::ModelVariant* model,
                               int max_batch, bool swap_cost);

  /// Removes the hosted instance; returns queued items for redistribution.
  std::vector<WorkItem> deactivate();

  /// Fault injection: the worker dies now. Queued *and in-flight* items are
  /// returned to the caller (stranded — the serving runtime retries or sheds
  /// them when the failure is detected), all pending events are cancelled,
  /// the hosted instance is discarded, and the load cell goes inactive. The
  /// worker rejects assign()/enqueue() until recover().
  std::vector<WorkItem> crash();
  /// Fault injection: the crashed worker returns empty with a bumped
  /// incarnation number; it idles until the next plan places an instance.
  void recover();
  bool crashed() const { return crashed_; }
  /// Monotonic restart count: bumped on every recover(). Heartbeats carry it
  /// so the failure detector can reject stale reports from a previous life.
  int incarnation() const { return incarnation_; }

  /// Straggler injection: batches *started* from now on take `mult` times
  /// their nominal execution time (1.0 = healthy).
  void set_exec_multiplier(double mult) {
    LOKI_CHECK(mult > 0.0);
    exec_mult_ = mult;
  }
  double exec_multiplier() const { return exec_mult_; }

  /// Hot path: one ring push plus a counter bump; the batch-start check
  /// falls through in one compare when the worker is already busy/loading
  /// (the common case under load).
  void enqueue(WorkItem item) {
    LOKI_CHECK_MSG(active(), "enqueue on deactivated worker " << id_);
    queue_.push_back(item);
    ++stage_.enqueued;
    publish_load();
    if (busy_ || loading_) return;
    maybe_start_batch();
  }

  bool active() const { return model_ != nullptr; }
  bool loading() const { return loading_; }
  bool busy() const { return busy_; }
  int id() const { return id_; }
  int task() const { return task_; }
  int variant() const { return variant_; }
  int max_batch() const { return max_batch_; }
  const profile::ModelVariant* model() const { return model_; }
  std::size_t queue_length() const { return queue_.size(); }
  /// Queue plus in-flight batch size — the load metric used for
  /// shortest-queue selection within an instance group.
  std::size_t load() const { return queue_.size() + inflight_; }

  /// Seconds of busy execution accumulated (utilization accounting).
  double busy_time_s() const { return stage_.execute_s; }
  std::uint64_t batches_executed() const { return stage_.batches; }
  std::uint64_t items_executed() const { return stage_.batch_items; }
  /// Per-stage counter snapshot (see StageCounters).
  const StageCounters& stage_counters() const { return stage_; }

 private:
  void maybe_start_batch();
  void start_batch();
  /// Stable reorder of the queue into (tier, arrival) order ahead of batch
  /// formation. Identity (early-out, no writes) when the queue is already
  /// tier-sorted — in particular for any single-tier queue.
  void sort_queue_by_tier();
  void account_and_place(double now, WorkItem item,
                         std::vector<WorkItem>& batch,
                         std::vector<WorkItem>& dropped);
  std::vector<WorkItem> take_scratch();
  void recycle_scratch(std::vector<WorkItem>&& v);
  std::vector<WorkItem> flush_queue();

  void publish_load() {
    if (load_cell_ == nullptr) return;
    if (model_ == nullptr) {
      *load_cell_ = kLoadCellInactive;
      return;
    }
    std::uint32_t v = static_cast<std::uint32_t>(queue_.size() + inflight_);
    if (loading_) v |= kLoadCellLoadingBit;
    *load_cell_ = v;
  }

  int id_;
  sim::Simulation* sim_;
  int task_ = -1;
  int variant_ = -1;
  int max_batch_ = 1;
  const profile::ModelVariant* model_ = nullptr;

  bool busy_ = false;
  bool loading_ = false;
  bool crashed_ = false;
  bool tier_priority_ = false;
  int incarnation_ = 0;
  double exec_mult_ = 1.0;
  std::size_t inflight_ = 0;
  double batch_wait_s_ = 0.0;
  RingBuffer<WorkItem> queue_;
  /// Index ordering scratch for tier-priority batch formation (recycled;
  /// empty and unused on the FIFO path).
  std::vector<std::uint32_t> order_scratch_;
  /// Recycled batch/drop vectors: capacity survives the round trip through
  /// the completion callback, so steady state allocates nothing.
  std::vector<std::vector<WorkItem>> scratch_;
  /// The batch currently executing, held by the worker (not the event
  /// closure) so crash() can strand it; batch_event_ is its completion.
  std::vector<WorkItem> inflight_items_;
  sim::Simulation::EventId load_event_{};
  sim::Simulation::EventId wait_event_{};
  sim::Simulation::EventId batch_event_{};
  std::uint32_t* load_cell_ = nullptr;

  /// Wait-decomposition timestamps for the tracer: when the worker last
  /// became idle (not busy, not loading) and when its most recent model load
  /// finished. An item's wait splits into swap stall (before load_done_t_),
  /// micro-batch hold (after free_since_) and queue time (the rest).
  double free_since_ = 0.0;
  double load_done_t_ = 0.0;
  obs::QueryTracer* tracer_ = nullptr;

  BatchDoneFn on_batch_done_;
  DroppedFn on_dropped_;
  DropFilterFn drop_filter_;
  JitterFn jitter_;

  StageCounters stage_;
};

/// Least-loaded pick over packed load cells, without branches: the first
/// position whose cell is smallest, or -1 when every cell is
/// Worker::kLoadCellInactive. One unsigned comparison of the raw cells is
/// the two-tier rule (ready workers first, workers mid model-swap only as a
/// last resort, inactive never): a ready cell is its load, always below
/// kLoadCellLoadingBit; a loading cell is that bit plus its load; and
/// kLoadCellInactive is the largest value. `cell(i)` returns position i's
/// cell; masked_load_cell() leaves a position out.
template <typename CellAt>
int least_loaded(std::size_t n, CellAt cell) {
  int best = -1;
  std::uint32_t best_cell = Worker::kLoadCellInactive;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = cell(i);
    const bool better = c < best_cell;
    best_cell = better ? c : best_cell;
    best = better ? static_cast<int>(i) : best;
  }
  return best;
}

/// `cell`, or Worker::kLoadCellInactive when `out` is set.
inline std::uint32_t masked_load_cell(std::uint32_t cell, bool out) {
  return cell | (0u - static_cast<std::uint32_t>(out));
}

}  // namespace loki::cluster
