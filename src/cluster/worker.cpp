#include "cluster/worker.hpp"

#include <algorithm>
#include <utility>

namespace loki::cluster {

Worker::Worker(int id, sim::Simulation* sim) : id_(id), sim_(sim) {
  LOKI_CHECK(sim_ != nullptr);
}

std::vector<WorkItem> Worker::take_scratch() {
  if (scratch_.empty()) return {};
  std::vector<WorkItem> v = std::move(scratch_.back());
  scratch_.pop_back();
  return v;
}

void Worker::recycle_scratch(std::vector<WorkItem>&& v) {
  v.clear();
  if (scratch_.size() < 8) scratch_.push_back(std::move(v));
}

std::vector<WorkItem> Worker::flush_queue() {
  std::vector<WorkItem> flushed;
  flushed.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    flushed.push_back(std::move(queue_[i]));
  }
  queue_.clear();
  return flushed;
}

std::vector<WorkItem> Worker::assign(int task, int variant,
                                     const profile::ModelVariant* model,
                                     int max_batch, bool swap_cost) {
  LOKI_CHECK(model != nullptr);
  LOKI_CHECK(max_batch >= 1);

  LOKI_CHECK_MSG(!crashed_, "assign on crashed worker " << id_);
  const bool same_variant =
      active() && task_ == task && variant_ == variant;
  if (same_variant) {
    // Only the batch parameter changes: no swap, keep the queue.
    max_batch_ = max_batch;
    return {};
  }

  // Different variant: flush the queue back to the caller and pay the load
  // delay (if enabled) before serving again.
  std::vector<WorkItem> flushed = flush_queue();
  if (load_event_.valid()) {
    sim_->cancel(load_event_);
    load_event_ = {};
  }
  task_ = task;
  variant_ = variant;
  model_ = model;
  max_batch_ = max_batch;
  if (swap_cost && model_->load_time_s > 0.0) {
    loading_ = true;
    ++stage_.swaps;
    stage_.swap_stall_s += model_->load_time_s;
    load_event_ = sim_->schedule_after(model_->load_time_s, [this]() {
      loading_ = false;
      load_done_t_ = sim_->now();
      if (!busy_) free_since_ = load_done_t_;
      load_event_ = {};
      publish_load();
      maybe_start_batch();
    });
  } else {
    loading_ = false;
    load_done_t_ = sim_->now();
    if (!busy_) free_since_ = load_done_t_;
  }
  publish_load();
  return flushed;
}

std::vector<WorkItem> Worker::deactivate() {
  std::vector<WorkItem> flushed = flush_queue();
  if (load_event_.valid()) {
    sim_->cancel(load_event_);
    load_event_ = {};
  }
  task_ = -1;
  variant_ = -1;
  model_ = nullptr;
  loading_ = false;
  publish_load();
  return flushed;
}

void Worker::maybe_start_batch() {
  if (busy_ || loading_ || !active() || queue_.empty()) return;
  start_batch();
}

void Worker::account_and_place(double now, WorkItem item,
                               std::vector<WorkItem>& batch,
                               std::vector<WorkItem>& dropped) {
  stage_.queue_wait_s += now - item.enqueue_time;
  if (tracer_ != nullptr && tracer_->sampled(item.query_id)) {
    // Decompose the wait: stalled behind a model load until load_done_t_,
    // held while the worker sat idle filling the micro-batch after
    // free_since_, queued behind earlier batches in between.
    const double wait = now - item.enqueue_time;
    const double swap =
        std::clamp(load_done_t_ - item.enqueue_time, 0.0, wait);
    const double hold = std::clamp(
        now - std::max(free_since_, item.enqueue_time), 0.0, wait - swap);
    tracer_->add_wait(item.query_id, wait - swap - hold, hold, swap);
  }
  if (drop_filter_ && drop_filter_(*this, item)) {
    dropped.push_back(item);
  } else {
    batch.push_back(item);
  }
}

void Worker::sort_queue_by_tier() {
  // Stable reorder of the queue into (tier, arrival) order so the FIFO pop
  // loop below forms the batch strict-tier-first. Within a tier the arrival
  // order is preserved, so re-sorting an already tier-sorted queue (and in
  // particular any single-tier queue) is the identity — batch content, the
  // drop filter's load() observations, and every downstream accounting step
  // stay bit-identical to the plain FIFO path.
  const std::size_t n = queue_.size();
  bool sorted = true;
  const auto tier_of = [this](std::size_t i) {
    const int t = queue_[i].tier;
    return static_cast<std::size_t>(t < 0 ? 0 : (t > 2 ? 2 : t));
  };
  for (std::size_t i = 1; i < n; ++i) {
    if (tier_of(i) < tier_of(i - 1)) {
      sorted = false;
      break;
    }
  }
  if (sorted) return;
  order_scratch_.clear();
  order_scratch_.resize(n);
  std::size_t off[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) ++off[tier_of(i) + 1];
  off[2] += off[1];
  off[3] += off[2];
  for (std::size_t i = 0; i < n; ++i) {
    order_scratch_[off[tier_of(i)]++] = static_cast<std::uint32_t>(i);
  }
  // order_scratch_[j] = queue index of the j-th item in sorted order.
  // Materialize through a recycled vector, then write back.
  std::vector<WorkItem> tmp = take_scratch();
  tmp.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    tmp.push_back(queue_[order_scratch_[j]]);
  }
  for (std::size_t j = 0; j < n; ++j) queue_[j] = std::move(tmp[j]);
  recycle_scratch(std::move(tmp));
}

void Worker::start_batch() {
  // Form a batch of up to max_batch_ items, applying the batching-time drop
  // filter (last-task early dropping). Vectors come from the recycle pool.
  const double now = sim_->now();
  if (tier_priority_ && queue_.size() > 1) sort_queue_by_tier();
  std::vector<WorkItem> batch = take_scratch();
  std::vector<WorkItem> dropped = take_scratch();
  while (!queue_.empty() &&
         batch.size() < static_cast<std::size_t>(max_batch_)) {
    WorkItem item = queue_.front();
    queue_.pop_front();
    account_and_place(now, item, batch, dropped);
  }
  if (!dropped.empty() && on_dropped_) {
    on_dropped_(*this, dropped);
  }
  recycle_scratch(std::move(dropped));
  if (batch.empty()) {
    recycle_scratch(std::move(batch));
    publish_load();
    // Everything was dropped; re-check the queue.
    if (!queue_.empty()) start_batch();
    return;
  }

  double exec = model_->latency.latency_s(static_cast<int>(batch.size()));
  if (jitter_) exec = std::max(1e-6, jitter_(exec));
  if (exec_mult_ != 1.0) exec = std::max(1e-6, exec * exec_mult_);
  busy_ = true;
  inflight_ = batch.size();
  stage_.execute_s += exec;
  ++stage_.batches;
  stage_.batch_items += batch.size();
  publish_load();

  // Snapshot the configuration executing this batch: a mid-batch
  // reassignment must not change how the completed work is attributed. The
  // batch itself lives in inflight_items_ (not the event closure) so a
  // crash() mid-execution can strand the items instead of losing them.
  const BatchContext ctx{task_, variant_, max_batch_, model_};
  inflight_items_ = std::move(batch);
  batch_event_ = sim_->schedule_after(exec, [this, ctx, exec]() {
    batch_event_ = {};
    std::vector<WorkItem> done = std::move(inflight_items_);
    inflight_items_ = std::vector<WorkItem>();
    busy_ = false;
    inflight_ = 0;
    free_since_ = sim_->now();
    if (tracer_ != nullptr && tracer_->enabled()) {
      // Every item in the batch experienced the full batch latency.
      for (const auto& item : done) {
        tracer_->add_execute(item.query_id, exec);
      }
    }
    publish_load();
    if (on_batch_done_) on_batch_done_(*this, done, ctx);
    recycle_scratch(std::move(done));
    maybe_start_batch();
  });
}

std::vector<WorkItem> Worker::crash() {
  LOKI_CHECK_MSG(!crashed_, "double crash on worker " << id_);
  std::vector<WorkItem> stranded = flush_queue();
  if (load_event_.valid()) {
    sim_->cancel(load_event_);
    load_event_ = {};
  }
  if (batch_event_.valid()) {
    sim_->cancel(batch_event_);
    batch_event_ = {};
    for (auto& item : inflight_items_) stranded.push_back(item);
    inflight_items_.clear();
  }
  task_ = -1;
  variant_ = -1;
  model_ = nullptr;
  loading_ = false;
  busy_ = false;
  inflight_ = 0;
  exec_mult_ = 1.0;
  crashed_ = true;
  publish_load();  // model_ == nullptr -> kLoadCellInactive
  return stranded;
}

void Worker::recover() {
  LOKI_CHECK_MSG(crashed_, "recover on live worker " << id_);
  crashed_ = false;
  ++incarnation_;
  free_since_ = sim_->now();
  load_done_t_ = sim_->now();
  publish_load();
}

}  // namespace loki::cluster
