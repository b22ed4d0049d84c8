#include "serving/system.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/check.hpp"

namespace loki::serving {

/// Load Balancer refresh period between RM runs (§5.1).
constexpr double kLbPeriodS = 2.0;
/// A straggler batch runs 1.5x..this much slower.
constexpr double kStragglerScale = 3.0;
/// Rolling-update bound on concurrent variant swaps (apply_plan pass 2b).
constexpr int kMaxConcurrentSwaps = 5;
/// EWMA weight for observed multiplicative factors.
constexpr double kMultEwmaAlpha = 0.3;

namespace {

/// `cfg`, once its periods are known to advance time: a Resource Manager
/// period that is not finite and positive reschedules the planner at the
/// same instant forever (and stalls or rewinds the coordinator's re-plan
/// clock), and such a metrics window rolls forever.
const SystemConfig& with_valid_periods(const SystemConfig& cfg) {
  LOKI_CHECK_MSG(std::isfinite(cfg.rm_period_s) && cfg.rm_period_s > 0.0,
                 "SystemConfig::rm_period_s = "
                     << cfg.rm_period_s << " must be finite and > 0");
  LOKI_CHECK_MSG(
      std::isfinite(cfg.metrics_window_s) && cfg.metrics_window_s > 0.0,
      "SystemConfig::metrics_window_s = " << cfg.metrics_window_s
                                          << " must be finite and > 0");
  return cfg;
}

}  // namespace

std::string to_string(DropPolicy p) {
  switch (p) {
    case DropPolicy::kNone: return "no-early-dropping";
    case DropPolicy::kLastTask: return "last-task-dropping";
    case DropPolicy::kPerTask: return "per-task-dropping";
    case DropPolicy::kOpportunisticReroute: return "opportunistic-rerouting";
  }
  return "?";
}

ServingSystem::ServingSystem(sim::Simulation* sim,
                             const pipeline::PipelineGraph* graph,
                             ProfileTable profiles,
                             AllocationStrategy* strategy, SystemConfig cfg)
    : sim_(sim),
      graph_(graph),
      profiles_(std::move(profiles)),
      strategy_(strategy),
      cfg_(with_valid_periods(cfg)),
      lb_(graph, &profiles_, kUtilizationTarget),
      metrics_(cfg.metrics_window_s),
      rng_routing_(Rng(cfg.seed).stream("routing")),
      rng_mult_(Rng(cfg.seed).stream("mult")),
      rng_jitter_(Rng(cfg.seed).stream("jitter")),
      rng_shed_(Rng(cfg.seed).stream("shed")),
      tiers_(cfg.tiers,
             cfg.registry != nullptr ? *cfg.registry : obs::Registry::global(),
             kMetricPrefix) {
  // strategy_ may be nullptr for externally-planned systems (coordinated
  // sharding); start() / run_resource_manager() check it.
  LOKI_CHECK(sim_ && graph_);
  hop_lane_ = sim_->add_lane("hop");
  obs::Registry& reg =
      cfg_.registry != nullptr ? *cfg_.registry : obs::Registry::global();
  const std::string prefix = kMetricPrefix;
  tracer_ = obs::QueryTracer(&reg, prefix, cfg_.trace);
  c_admitted_ = reg.counter(prefix + ".admitted");
  c_stage_enqueued_ = reg.counter(prefix + ".stage.enqueued");
  c_stage_queue_ns_ = reg.counter(prefix + ".stage.queue_wait_ns");
  c_stage_batches_ = reg.counter(prefix + ".stage.batches");
  c_stage_batch_items_ = reg.counter(prefix + ".stage.batch_items");
  c_stage_execute_ns_ = reg.counter(prefix + ".stage.execute_ns");
  c_stage_swaps_ = reg.counter(prefix + ".stage.swaps");
  c_stage_swap_ns_ = reg.counter(prefix + ".stage.swap_stall_ns");

  if (!cfg_.fault_plan.empty() || cfg_.detector.enabled) {
    fault_ = std::make_unique<FaultPlane>(*this, reg);
  }

  mult_estimates_ = pipeline::default_mult_factors(*graph_);
  obs_in_.assign(mult_estimates_.size(), {});
  obs_out_.assign(mult_estimates_.size(), {});
  for (std::size_t t = 0; t < mult_estimates_.size(); ++t) {
    obs_in_[t].assign(mult_estimates_[t].size(), 0.0);
    obs_out_[t].assign(mult_estimates_[t].size(), 0.0);
  }
  const std::size_t ntasks = static_cast<std::size_t>(graph_->num_tasks());
  task_window_arrivals_.assign(ntasks, 0.0);

  // Cache the graph lookups the per-item path repeats (root() and
  // branch_ratio() scan inside the graph; the cached doubles are the same
  // values, so sampling stays bit-identical).
  root_task_ = graph_->root();
  branch_ratios_.resize(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    for (int c : graph_->children(static_cast<int>(t))) {
      branch_ratios_[t].push_back(
          graph_->branch_ratio(static_cast<int>(t), c));
    }
  }
  budget_off_.assign(ntasks + 1, 0);
  for (std::size_t t = 0; t < ntasks; ++t) {
    budget_off_[t + 1] =
        budget_off_[t] + graph_->task(static_cast<int>(t)).catalog.size();
  }
  budget_lut_.assign(budget_off_[ntasks], -1.0);

  const std::size_t cluster =
      static_cast<std::size_t>(cfg_.allocator.cluster_size);
  // Sized before binding: workers keep raw pointers into worker_load_.
  worker_load_.assign(cluster, cluster::Worker::kLoadCellInactive);
  worker_task_.assign(cluster, -1);
  workers_.reserve(cluster);
  for (int i = 0; i < cfg_.allocator.cluster_size; ++i) {
    auto w = std::make_unique<cluster::Worker>(i, sim_);
    w->bind_load_cell(&worker_load_[static_cast<std::size_t>(i)]);
    w->set_tracer(&tracer_);
    // Strict tiers jump best-effort backlog at batch formation; with tiers
    // off (or single-tier traffic) the formation order is plain FIFO.
    w->set_tier_priority(tiers_.armed());
    w->set_batch_done([this](cluster::Worker& wk,
                             std::vector<cluster::WorkItem>& items,
                             const cluster::Worker::BatchContext& ctx) {
      on_batch_done(wk, items, ctx);
    });
    w->set_dropped_sink([this](cluster::Worker& wk,
                               std::vector<cluster::WorkItem>& items) {
      on_dropped_items(wk, items);
    });
    if (cfg_.drop_policy == DropPolicy::kLastTask ||
        cfg_.drop_policy == DropPolicy::kOpportunisticReroute) {
      // Last-task hopeless check: for the rerouting policy this is the
      // §5.2 "drop as a last resort" — a request whose leftover budget
      // cannot cover even the sink's execution frees the batch slot.
      w->set_drop_filter(
          [this](const cluster::Worker& wk, const cluster::WorkItem& item) {
            return last_task_filter(wk, item);
          });
    }
    if (cfg_.exec_noise_frac > 0.0 || cfg_.straggler_prob > 0.0) {
      w->set_jitter([this](double nominal) {
        double v = cfg_.exec_noise_frac > 0.0
                       ? rng_jitter_.normal(nominal,
                                            nominal * cfg_.exec_noise_frac)
                       : nominal;
        // Stragglers: occasional much-slower batches (contention, clock
        // throttling) — the systematic part of a real cluster's noise.
        if (cfg_.straggler_prob > 0.0 &&
            rng_jitter_.bernoulli(cfg_.straggler_prob)) {
          v *= rng_jitter_.uniform(1.5, kStragglerScale);
        }
        return v;
      });
    }
    workers_.push_back(std::move(w));
  }
  worker_group_.assign(workers_.size(), -1);
}

void ServingSystem::schedule_control_loops(bool with_rm) {
  // Periodic control loops. Self-rescheduling keeps periods exact.
  auto schedule_periodic = [this](double period, std::function<void()> fn) {
    // The system owns the callback (periodic_); the scheduled copies only
    // hold a weak_ptr, so the reschedule cycle cannot keep itself alive
    // (was a shared_ptr self-capture leak). The copies still capture `this`:
    // the system must outlive any further sim_->run_*() calls, as everywhere
    // in this codebase.
    auto holder = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = holder;
    *holder = [this, period, weak, fn = std::move(fn)]() {
      if (stopped_) return;
      fn();
      if (auto cb = weak.lock()) sim_->schedule_after(period, *cb);
    };
    periodic_.push_back(holder);
    sim_->schedule_after(period, *holder);
  };
  if (with_rm) {
    schedule_periodic(cfg_.rm_period_s, [this]() { run_resource_manager(); });
  }
  schedule_periodic(kLbPeriodS, [this]() { run_load_balancer(); });
  schedule_periodic(fault::kHeartbeatPeriodS, [this]() { run_heartbeat(); });
}

void ServingSystem::start() {
  LOKI_CHECK(!started_);
  LOKI_CHECK_MSG(strategy_ != nullptr,
                 "start() needs a strategy; externally-planned systems use "
                 "start_external()");
  started_ = true;
  run_resource_manager();  // initial allocation + routing
  schedule_control_loops(/*with_rm=*/true);
  if (fault_ != nullptr) fault_->arm();
}

void ServingSystem::start_external() {
  LOKI_CHECK(!started_);
  started_ = true;
  external_ = true;
  // No Resource Manager loop: plans arrive via install_plan(). The LB and
  // heartbeat loops still run so routing tracks the local demand estimate
  // and mult observations between plan pushes.
  schedule_control_loops(/*with_rm=*/false);
  if (fault_ != nullptr) fault_->arm();
}

void ServingSystem::install_plan(AllocationPlan plan) {
  const double demand = plan.demand_qps;
  commit_plan(std::move(plan), demand);
}

void ServingSystem::commit_plan(AllocationPlan plan, double demand) {
  has_plan_ = true;
  last_alloc_demand_ = demand;
  ++allocations_;
  apply_plan(std::move(plan));
  run_load_balancer();  // LB runs on every allocation change (§5.1)
  if (fault_ != nullptr) fault_->on_plan();
}

void ServingSystem::finish(double t_end) {
  if (fault_ != nullptr) fault_->on_finish(t_end);
  stopped_ = true;
  metrics_.flush(t_end);
  publish_stage_counters();
}

int ServingSystem::crashed_workers() const {
  return static_cast<int>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const auto& w) { return w->crashed(); }));
}

cluster::StageCounters ServingSystem::stage_counters() const {
  // Monotonic since construction: per-worker counters never reset (workers
  // live for the system's lifetime, reassignment keeps their totals), so
  // this aggregate can only grow across apply_plan / install_plan.
  cluster::StageCounters total;
  for (const auto& w : workers_) total += w->stage_counters();
  return total;
}

void ServingSystem::publish_stage_counters() {
  const cluster::StageCounters total = stage_counters();
  const auto ns = [](double seconds) {
    return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
  };
  c_stage_enqueued_.add(total.enqueued - published_stage_.enqueued);
  c_stage_queue_ns_.add(ns(total.queue_wait_s) -
                        ns(published_stage_.queue_wait_s));
  c_stage_batches_.add(total.batches - published_stage_.batches);
  c_stage_batch_items_.add(total.batch_items - published_stage_.batch_items);
  c_stage_execute_ns_.add(ns(total.execute_s) -
                          ns(published_stage_.execute_s));
  c_stage_swaps_.add(total.swaps - published_stage_.swaps);
  c_stage_swap_ns_.add(ns(total.swap_stall_s) -
                       ns(published_stage_.swap_stall_s));
  published_stage_ = total;
}

double ServingSystem::comm_delay() {
  double d = kCommLatencyS;
  if (fault_ != nullptr) d += fault_->extra_delay_s();
  if (cfg_.comm_jitter_frac > 0.0) {
    d = std::max(0.0, rng_jitter_.normal(d, d * cfg_.comm_jitter_frac));
  }
  return d;
}

double ServingSystem::runtime_budget(int task, int variant, int batch) const {
  const double b =
      budget_lut_[budget_off_[static_cast<std::size_t>(task)] +
                  static_cast<std::size_t>(variant)];
  if (b >= 0.0) return b;
  // Plan changed under the request: fall back to 2x the profiled batch
  // latency of this worker's configuration.
  const auto& prof = profiles_[static_cast<std::size_t>(task)]
                              [static_cast<std::size_t>(variant)];
  const int idx = prof.index_of(batch);
  const double lat = idx >= 0 ? prof.latency_s[static_cast<std::size_t>(idx)]
                              : prof.latency_s.back();
  return 2.0 * lat;
}

void ServingSystem::rebuild_budget_lut() {
  std::fill(budget_lut_.begin(), budget_lut_.end(), -1.0);
  for (const auto& [tv, budget] : plan_.latency_budget_s) {
    const auto [task, variant] = tv;
    if (task < 0 || task >= graph_->num_tasks() || variant < 0) continue;
    const std::size_t slot =
        budget_off_[static_cast<std::size_t>(task)] +
        static_cast<std::size_t>(variant);
    if (slot < budget_off_[static_cast<std::size_t>(task) + 1]) {
      budget_lut_[slot] = budget;
    }
  }
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

void ServingSystem::submit(int tier) {
  tier = std::clamp(tier, 0, kNumTiers - 1);
  const double now = sim_->now();
  const bool metered = now >= cfg_.metrics_warmup_s;
  if (metered) metrics_.record_arrival(now, tier);
  demand_.record_arrival(now);
  task_window_arrivals_[static_cast<std::size_t>(root_task_)] += 1.0;
  tiers_.record_arrival(tier);
  const auto shed = [&](LossCause cause) {
    if (metered) {
      metrics_.record_outcome(now, QueryOutcome::kShed, 0.0, 0.0, cause, tier);
    }
  };

  // Degraded overload mode (fault plane): dead capacity the plan has not
  // yet been rebuilt around — shed the lost-capacity fraction at the
  // frontend so the surviving workers keep meeting their latency budgets
  // instead of queueing everything into SLO violations. With tiers the
  // fraction is filled lowest-tier-first (see tier_shed_probs).
  if (fault_ != nullptr && fault_->sheds_degraded(tiers_.shed_fill(tier))) {
    return shed(LossCause::kDegradedOverload);
  }
  // Priority-aware admission control: a tier whose in-flight depth reached
  // its watermark sheds the new arrival (the newest arrival carries the
  // latest deadline of its tier, so admission-time shedding IS latest-
  // deadline-first within the tier). Untiered, the watermark is unbounded.
  if (!tiers_.admit(tier, plan_.servers_used)) {
    return shed(LossCause::kCapacity);
  }
  // Overload shedding: the plan serves only served_fraction of demand.
  // Tiered serving grants the fraction highest-tier-first; untiered, every
  // tier's fill is the served fraction itself, so the single draw keeps the
  // RNG stream in lockstep either way.
  if (plan_.served_fraction < 1.0 &&
      rng_shed_.uniform() > tiers_.serve_fill(tier)) {
    tiers_.count_overload_shed();
    return shed(LossCause::kCapacity);
  }

  const int group = pick_group(routing_.frontend_table());
  if (group < 0) {
    // The draw landed in the table's unplaced remainder (or the table is
    // empty): normally a tier-blind shed. With remainder_priority, a
    // strict-tier arrival is force-routed instead — forward_item with no
    // group falls through to the least-loaded worker of the frontend task
    // (a bounded overcommit), and only sheds if no such worker exists.
    if (!tiers_.rescues_remainder(tier) ||
        pick_worker_for_task(root_task_) < 0) {
      return shed(any_worker_crashed() ? LossCause::kWorkerFailure
                                       : LossCause::kCapacity);
    }
    tiers_.count_remainder_rescue();
  }
  const std::uint64_t qid = queries_.emplace();
  QueryState& qs = queries_.get(qid);
  qs.arrival = now;
  qs.deadline = now + cfg_.allocator.slo_s;
  qs.outstanding = 1;
  qs.metered = metered;
  qs.tier = tier;
  tiers_.on_admit(tier);
  c_admitted_.add(1);
  tracer_.on_admit(qid, now);

  cluster::WorkItem item;
  item.query_id = qid;
  item.task = root_task_;
  item.deadline = qs.deadline;
  item.accuracy_so_far = 1.0;
  item.tier = tier;
  forward_item(item, group);
}

int ServingSystem::pick_group(const RoutingPlan::DrawTable& table) {
  // Empty tables short-circuit before drawing so the routing RNG stream
  // advances exactly as often as before (bit-reproducibility).
  if (table.empty()) return -1;
  return table.pick(rng_routing_.uniform());
}

int ServingSystem::scan_group(int group, const char* skip) const {
  if (group < 0 || group >= static_cast<int>(group_workers_.size())) return -1;
  const std::vector<int>& ids = group_workers_[static_cast<std::size_t>(group)];
  const std::uint32_t* cells = worker_load_.data();
  const int pos = cluster::least_loaded(ids.size(), [&](std::size_t i) {
    const int wid = ids[i];
    return cluster::masked_load_cell(cells[wid],
                                     skip != nullptr && skip[wid] != 0);
  });
  return pos < 0 ? -1 : ids[static_cast<std::size_t>(pos)];
}

int ServingSystem::pick_worker(int group) const {
  if (fault_ == nullptr) return scan_group(group, nullptr);
  // Quarantine: suspects take no new work; when an entire group is
  // quarantined, fall back to whatever is alive rather than drop.
  const int wid = scan_group(group, fault_->quarantined());
  return wid >= 0 ? wid : scan_group(group, nullptr);
}

int ServingSystem::scan_task(int task, const char* skip) const {
  const std::uint32_t* cells = worker_load_.data();
  const int* tasks = worker_task_.data();
  return cluster::least_loaded(worker_load_.size(), [&](std::size_t wid) {
    const bool out = tasks[wid] != task || (skip != nullptr && skip[wid] != 0);
    return cluster::masked_load_cell(cells[wid], out);
  });
}

int ServingSystem::pick_worker_for_task(int task) const {
  if (fault_ == nullptr) return scan_task(task, nullptr);
  const int wid = scan_task(task, fault_->quarantined());
  return wid >= 0 ? wid : scan_task(task, nullptr);
}

bool ServingSystem::any_worker_crashed() const {
  return fault_ != nullptr && crashed_workers() > 0;
}

void ServingSystem::forward_item(cluster::WorkItem item, int group) {
  int wid = pick_worker(group);
  if (wid < 0) {
    // Group not staffed yet (rolling swap in progress): any worker serving
    // the task will do — possibly at a different accuracy point.
    wid = pick_worker_for_task(item.task);
  }
  if (wid < 0) {
    drop_query_part(item.query_id, sim_->now(),
                    any_worker_crashed() ? LossCause::kWorkerFailure
                                         : LossCause::kCapacity);
    return;
  }
  // Network fault injection: degraded links drop forwards outright.
  if (fault_ != nullptr && fault_->drops_forward()) {
    drop_query_part(item.query_id, sim_->now(), LossCause::kWorkerFailure);
    return;
  }
  const double delay = comm_delay();
  tracer_.add_comm(item.query_id, delay);
  sim_->push_after(hop_lane_, delay, [this, item, wid]() mutable {
    auto& w = *workers_[static_cast<std::size_t>(wid)];
    if (!w.active()) {
      // Reassigned (or crashed) while in flight: any worker of the task.
      const int alt = pick_worker_for_task(item.task);
      if (alt < 0) {
        drop_query_part(item.query_id, sim_->now(),
                        w.crashed() || any_worker_crashed()
                            ? LossCause::kWorkerFailure
                            : LossCause::kCapacity);
        return;
      }
      item.enqueue_time = sim_->now();
      workers_[static_cast<std::size_t>(alt)]->enqueue(item);
      return;
    }
    item.enqueue_time = sim_->now();
    w.enqueue(item);
  });
}

// ---------------------------------------------------------------------------
// Worker completion path
// ---------------------------------------------------------------------------

bool ServingSystem::last_task_filter(const cluster::Worker& w,
                                     const cluster::WorkItem& item) const {
  if (!graph_->is_sink(w.task())) return false;
  if (w.model() == nullptr) return false;
  // Leftover budget vs expected processing time at this worker (§5.2(2)).
  // The batch about to execute is roughly the backlog, capped at max batch.
  const int est_batch = std::clamp(static_cast<int>(w.load()) + 1, 1,
                                   std::max(1, w.max_batch()));
  const double expected_exec = w.model()->latency.latency_s(est_batch);
  return sim_->now() + expected_exec > item.deadline;
}

void ServingSystem::on_dropped_items(cluster::Worker& /*w*/,
                                     std::vector<cluster::WorkItem>& items) {
  const double now = sim_->now();
  for (const auto& item : items) drop_query_part(item.query_id, now);
}

namespace {

/// The part of `parent`'s query that continues at `child`.
cluster::WorkItem child_item(const cluster::WorkItem& parent, int child) {
  cluster::WorkItem next;
  next.query_id = parent.query_id;
  next.task = child;
  next.deadline = parent.deadline;
  next.accuracy_so_far = parent.accuracy_so_far;
  next.debt_s = parent.debt_s;
  next.tier = parent.tier;
  return next;
}

}  // namespace

void ServingSystem::on_batch_done(cluster::Worker& w,
                                  std::vector<cluster::WorkItem>& items,
                                  const cluster::Worker::BatchContext& ctx) {
  const double now = sim_->now();
  const int task = ctx.task;
  const int variant = ctx.variant;
  if (task < 0 || ctx.model == nullptr) return;
  const double variant_acc =
      graph_->task(task).catalog.at(variant).accuracy;
  const double budget = runtime_budget(task, variant, ctx.max_batch);
  const bool is_sink = graph_->is_sink(task);
  const double r_true = ctx.model->mult_factor_mean;
  const auto& children = graph_->children(task);
  const auto& ratios = branch_ratios_[static_cast<std::size_t>(task)];

  for (auto& item : items) {
    obs_in_[static_cast<std::size_t>(task)][static_cast<std::size_t>(variant)] +=
        1.0;
    item.accuracy_so_far *= variant_acc;
    const double stage_elapsed = now - item.enqueue_time;
    // Cumulative deficit: time over budget here plus anything carried from
    // upstream tasks, minus slack earned by finishing early.
    const double over =
        std::max(0.0, item.debt_s + stage_elapsed - budget);
    item.debt_s = over;

    if (is_sink) {
      if (QueryState* qs = queries_.find(item.query_id)) {
        qs->accuracy_sum += item.accuracy_so_far;
        ++qs->sink_completions;
      }
      complete_part(item.query_id, now);
      continue;
    }

    // Sample the realized multiplicative factor: total detected objects,
    // multinomially assigned to children by branch ratio. Draw order and
    // values are identical to the pre-scratch implementation (bit-repro).
    const auto total_objects = rng_mult_.poisson(r_true);
    obs_out_[static_cast<std::size_t>(task)]
            [static_cast<std::size_t>(variant)] +=
        static_cast<double>(total_objects);

    scratch_child_counts_.assign(children.size(), 0);
    for (std::uint64_t obj = 0; obj < total_objects; ++obj) {
      double u = rng_mult_.uniform();
      for (std::size_t ci = 0; ci < children.size(); ++ci) {
        const double br = ratios[ci];
        if (u < br) {
          ++scratch_child_counts_[ci];
          break;
        }
        u -= br;
      }
    }

    QueryState* qstate = queries_.find(item.query_id);
    if (qstate == nullptr) continue;  // already finalized (shouldn't)

    scratch_forwards_.clear();
    bool drop_rest = false;

    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      const int child = children[ci];
      task_window_arrivals_[static_cast<std::size_t>(child)] +=
          static_cast<double>(scratch_child_counts_[ci]);
      if (scratch_child_counts_[ci] == 0) continue;
      // This worker's routing table for the child task (negative index =
      // stale plan, same contract as routes_for returning nullptr).
      const std::int32_t ti = routing_.table_index(
          worker_group_[static_cast<std::size_t>(w.id())], child);
      const RoutingPlan::DrawTable table =
          ti >= 0 ? routing_.table_at(ti) : RoutingPlan::DrawTable{};

      for (int n = 0; n < scratch_child_counts_[ci]; ++n) {
        int group = ti >= 0 ? pick_group(table) : -1;
        if (group < 0 && ti < 0) {
          // No table (stale plan): any worker of the child task.
          const int alt = pick_worker_for_task(child);
          if (alt >= 0) {
            cluster::WorkItem next = child_item(item, child);
            metrics_.record_forwards(1);
            qstate->outstanding += 1;
            const double delay = comm_delay();
            tracer_.add_comm(next.query_id, delay);
            sim_->push_after(hop_lane_, delay, [this, next, alt]() mutable {
              auto& aw = *workers_[static_cast<std::size_t>(alt)];
              if (!aw.active()) {
                drop_query_part(next.query_id, sim_->now());
                return;
              }
              next.enqueue_time = sim_->now();
              aw.enqueue(next);
            });
            continue;
          }
          drop_rest = true;
          break;
        }
        // Early dropping at forward time (§5.2): when the request is
        // running behind (positive cumulative budget deficit), test whether
        // the default downstream worker can still make the deadline —
        // reserving one batch of queueing per the SLO/2 rule.
        //   * per-task dropping: drop on a failed test (no rescue);
        //   * opportunistic rerouting: first look for a faster backup
        //     worker from the leftover-capacity table, drop as last resort.
        const bool checks_forward =
            cfg_.drop_policy == DropPolicy::kPerTask ||
            cfg_.drop_policy == DropPolicy::kOpportunisticReroute;
        if (checks_forward && over > 0.0) {
          const double slack = item.deadline - now;
          const double tail = kCommLatencyS + descendant_budget(child);
          const double y =
              group >= 0
                  ? routing_.group_exec_s[static_cast<std::size_t>(group)]
                  : std::numeric_limits<double>::infinity();
          if (2.0 * y + tail > slack) {
            int backup = -1;
            if (cfg_.drop_policy == DropPolicy::kOpportunisticReroute) {
              for (const auto& be :
                   routing_.backup_per_task[static_cast<std::size_t>(child)]) {
                if (2.0 * be.exec_s + tail <= slack) {
                  backup = be.group;
                  break;  // list is accuracy-ordered: first hit is best
                }
              }
            }
            if (backup >= 0) {
              group = backup;
            } else {
              drop_rest = true;
              break;
            }
          }
        }
        if (group < 0) {
          drop_rest = true;
          break;
        }
        scratch_forwards_.push_back({group, 1, child});
      }
      if (drop_rest) break;
    }

    if (drop_rest) {
      drop_query_part(item.query_id, now);
      continue;
    }
    // Commit the forwards.
    metrics_.record_forwards(scratch_forwards_.size());
    for (const auto& f : scratch_forwards_) {
      qstate->outstanding += 1;
      forward_item(child_item(item, f.child_task), f.group);
    }
    complete_part(item.query_id, now);
  }
}

void ServingSystem::drop_query_part(std::uint64_t query_id, double now,
                                    LossCause cause) {
  QueryState* qs = queries_.find(query_id);
  if (qs == nullptr) return;
  if (!qs->dropped) {
    qs->dropped = true;
    qs->cause = cause;  // first drop wins the attribution
  }
  complete_part(query_id, now);
}

void ServingSystem::complete_part(std::uint64_t query_id, double now) {
  QueryState* qsp = queries_.find(query_id);
  if (qsp == nullptr) return;
  QueryState& qs = *qsp;
  if (--qs.outstanding > 0) return;

  // Flush the sampled trace record for every finalized query (metered or
  // not) so record slots recycle in lockstep with pool slots.
  tracer_.on_complete(query_id, now, qs.dropped);

  tiers_.on_finalize(qs.tier);
  const double latency = now - qs.arrival;
  if (!qs.metered) {
    queries_.erase(query_id);
    return;
  }
  if (qs.dropped) {
    // Fault-caused losses count as *shed* with their cause (shed-by-failure
    // / shed-by-degradation); plain capacity drops keep the pre-fault
    // accounting bit-identical.
    if (qs.cause == LossCause::kCapacity) {
      metrics_.record_outcome(now, QueryOutcome::kDropped, 0.0, latency,
                              qs.cause, qs.tier);
    } else {
      metrics_.record_outcome(now, QueryOutcome::kShed, 0.0, latency,
                              qs.cause, qs.tier);
    }
  } else {
    const double acc =
        qs.sink_completions > 0
            ? qs.accuracy_sum / static_cast<double>(qs.sink_completions)
            : 1.0;  // zero detections: trivially correct response
    const bool late = now > qs.deadline + 1e-9;
    metrics_.record_outcome(now, late ? QueryOutcome::kLate
                                      : QueryOutcome::kOnTime,
                            acc, latency, LossCause::kCapacity, qs.tier);
  }
  queries_.erase(query_id);
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

std::vector<double> ServingSystem::drain_task_arrivals(double now) {
  const double window = now - arrivals_window_start_;
  // Always num_tasks entries: a zero-width window (two plan requests at the
  // same instant, e.g. a surge retrigger) yields zero rates, not an empty
  // vector — PlanRequest::task_arrivals_qps must never change size between
  // epochs (strategies index it by task).
  std::vector<double> rates(task_window_arrivals_.size(), 0.0);
  if (window > 1e-9) {
    for (std::size_t t = 0; t < rates.size(); ++t) {
      rates[t] = task_window_arrivals_[t] / window;
    }
  }
  std::fill(task_window_arrivals_.begin(), task_window_arrivals_.end(), 0.0);
  arrivals_window_start_ = now;
  return rates;
}

void ServingSystem::run_resource_manager(bool force) {
  LOKI_CHECK(strategy_ != nullptr);
  const double now = sim_->now();
  const double demand = demand_.estimate(now);
  // Failure re-plans (`force`) skip the hysteresis: the *capacity* moved,
  // not demand.
  if (has_plan_ && !force &&
      keep_plan(demand, last_alloc_demand_, plan_.served_fraction,
                cfg_.realloc_threshold)) {
    run_load_balancer();
    return;
  }
  PlanRequest req;
  req.demand_qps = demand;
  req.mult = mult_estimates_;
  req.task_arrivals_qps = drain_task_arrivals(now);
  req.sim_time_s = now;
  req.epoch = allocations_;
  req.previous_plan = has_plan_ ? &plan_ : nullptr;
  if (fault_ != nullptr) {
    req.available_workers =
        cfg_.allocator.cluster_size - fault_->detector().dead_count();
  }
  AllocationPlan plan = strategy_->plan(req).plan;
  total_solve_time_s_ += plan.solve_time_s;
  commit_plan(std::move(plan), demand);
}

void ServingSystem::run_load_balancer() {
  const double now = sim_->now();
  routing_ =
      lb_.most_accurate_first(plan_, demand_.estimate(now), mult_estimates_);
  tiers_.refresh(plan_.served_fraction,
                 fault_ != nullptr ? fault_->shed_fraction() : 0.0);
}

void ServingSystem::run_heartbeat() {
  const double now = sim_->now();
  // Fold observed multiplicative factors into the estimates.
  for (std::size_t t = 0; t < obs_in_.size(); ++t) {
    if (graph_->is_sink(static_cast<int>(t))) continue;
    for (std::size_t k = 0; k < obs_in_[t].size(); ++k) {
      if (obs_in_[t][k] < 1.0) continue;
      const double observed = obs_out_[t][k] / obs_in_[t][k];
      // Scale the EWMA weight by the window's sample count: a near-empty
      // window (trace tail, cold variant) is Poisson noise, not signal.
      const double alpha =
          kMultEwmaAlpha * std::min(1.0, obs_in_[t][k] / 30.0);
      mult_estimates_[t][k] =
          alpha * observed + (1.0 - alpha) * mult_estimates_[t][k];
      obs_in_[t][k] = 0.0;
      obs_out_[t][k] = 0.0;
    }
  }
  // Per-task arrivals keep accumulating in task_window_arrivals_; they
  // reach the strategy as PlanRequest::task_arrivals_qps at the next plan
  // request.
  metrics_.record_utilization(now, plan_.servers_used,
                              cfg_.allocator.cluster_size);
  publish_stage_counters();

  // Failure detection runs on the heartbeat cadence for internal *and*
  // externally-planned systems (the coordinator polls the plane's
  // replan_pending() at its barriers; detection itself is local).
  if (fault_ != nullptr) fault_->on_heartbeat(now);

  // §4.2: the Resource Manager reallocates between periodic invocations
  // when it detects a significant demand change (e.g. cold start or a
  // burst arriving right after a periodic run). Externally-planned systems
  // leave surge handling to their coordinator (which sees all shards).
  if (external_) return;
  if (demand_shifted(demand_.estimate(now), last_alloc_demand_)) {
    run_resource_manager();
  }
}

void ServingSystem::apply_plan(AllocationPlan plan) {
  const int ngroups = static_cast<int>(plan.instances.size());
  std::vector<std::vector<int>> new_group_workers(
      static_cast<std::size_t>(ngroups));
  std::vector<int> slots_left(static_cast<std::size_t>(ngroups));
  for (int gi = 0; gi < ngroups; ++gi) {
    slots_left[static_cast<std::size_t>(gi)] =
        plan.instances[static_cast<std::size_t>(gi)].replicas;
  }

  std::vector<bool> worker_placed(workers_.size(), false);
  std::vector<cluster::WorkItem> flushed;
  const auto flush_into = [&flushed](std::vector<cluster::WorkItem>&& items) {
    flushed.insert(flushed.end(), std::make_move_iterator(items.begin()),
                   std::make_move_iterator(items.end()));
  };

  // Pass 1: keep workers already hosting the right (task, variant); a batch
  // parameter change is free.
  for (int gi = 0; gi < ngroups; ++gi) {
    const auto& ic = plan.instances[static_cast<std::size_t>(gi)];
    for (std::size_t wi = 0;
         wi < workers_.size() && slots_left[static_cast<std::size_t>(gi)] > 0;
         ++wi) {
      auto& w = *workers_[wi];
      if (worker_placed[wi] || !w.active()) continue;
      if (w.task() == ic.task && w.variant() == ic.variant) {
        flush_into(w.assign(
            ic.task, ic.variant,
            &graph_->task(ic.task).catalog.at(ic.variant), ic.batch,
            /*swap_cost=*/false));
        new_group_workers[static_cast<std::size_t>(gi)].push_back(w.id());
        worker_placed[wi] = true;
        --slots_left[static_cast<std::size_t>(gi)];
      }
    }
  }
  // Pass 2a: fill remaining slots with idle workers (loading an idle
  // worker costs no serving capacity, so these start immediately). Crashed
  // workers are idle but not placeable until they recover.
  std::vector<std::pair<int, int>> deferred;  // (worker id, group)
  for (int gi = 0; gi < ngroups; ++gi) {
    const auto& ic = plan.instances[static_cast<std::size_t>(gi)];
    for (std::size_t wi = 0;
         wi < workers_.size() && slots_left[static_cast<std::size_t>(gi)] > 0;
         ++wi) {
      auto& w = *workers_[wi];
      if (worker_placed[wi] || w.active() || w.crashed()) continue;
      flush_into(w.assign(ic.task, ic.variant,
                          &graph_->task(ic.task).catalog.at(ic.variant),
                          ic.batch, /*swap_cost=*/true));
      new_group_workers[static_cast<std::size_t>(gi)].push_back(w.id());
      worker_placed[wi] = true;
      --slots_left[static_cast<std::size_t>(gi)];
    }
  }
  // Pass 2b: repurpose active workers — deferred behind the rolling-update
  // bound so the cluster never loses more than kMaxConcurrentSwaps
  // workers' worth of capacity at once. Until their turn they keep serving
  // their old variant.
  for (int gi = 0; gi < ngroups; ++gi) {
    for (std::size_t wi = 0;
         wi < workers_.size() && slots_left[static_cast<std::size_t>(gi)] > 0;
         ++wi) {
      auto& w = *workers_[wi];
      if (worker_placed[wi] || !w.active()) continue;
      deferred.push_back({w.id(), gi});
      worker_placed[wi] = true;
      --slots_left[static_cast<std::size_t>(gi)];
    }
  }
  // Deactivate everything not placed (hardware scale-down).
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    if (!worker_placed[wi] && workers_[wi]->active()) {
      flush_into(workers_[wi]->deactivate());
    }
  }
  // Unstaffed groups first: a group with zero ready workers blocks its
  // share of routed traffic entirely.
  std::stable_sort(deferred.begin(), deferred.end(),
                   [&](const auto& a, const auto& b) {
                     const auto staffed = [&](int gi) {
                       return new_group_workers[static_cast<std::size_t>(gi)]
                           .size();
                     };
                     return staffed(a.second) < staffed(b.second);
                   });
  pending_swaps_.assign(deferred.begin(), deferred.end());

  plan_ = std::move(plan);
  rebuild_budget_lut();
  group_workers_ = std::move(new_group_workers);
  worker_group_.assign(workers_.size(), -1);
  for (std::size_t gi = 0; gi < group_workers_.size(); ++gi) {
    for (int wid : group_workers_[gi]) {
      worker_group_[static_cast<std::size_t>(wid)] = static_cast<int>(gi);
    }
  }
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    worker_task_[wi] =
        workers_[wi]->active() ? workers_[wi]->task() : -1;
  }
  recompute_descendant_budgets();
  kick_pending_swaps();
  redistribute(std::move(flushed));
}

void ServingSystem::kick_pending_swaps() {
  while (swaps_in_flight_ < kMaxConcurrentSwaps &&
         !pending_swaps_.empty()) {
    const auto [wid, gi] = pending_swaps_.front();
    pending_swaps_.pop_front();
    if (gi >= static_cast<int>(plan_.instances.size())) continue;  // stale
    const auto& ic = plan_.instances[static_cast<std::size_t>(gi)];
    auto& w = *workers_[static_cast<std::size_t>(wid)];
    if (!w.active()) continue;  // deactivated meanwhile
    const auto* model = &graph_->task(ic.task).catalog.at(ic.variant);
    // A swap is any change of hosted (task, variant) — matching apply_plan
    // pass 1 and Worker::assign. Comparing only the variant index let a
    // worker move to a *different task* whose variant happened to share the
    // index without paying the model-load cost.
    const bool pays_swap = w.task() != ic.task || w.variant() != ic.variant;
    auto items = w.assign(ic.task, ic.variant, model, ic.batch, pays_swap);
    group_workers_[static_cast<std::size_t>(gi)].push_back(wid);
    worker_group_[static_cast<std::size_t>(wid)] = gi;
    worker_task_[static_cast<std::size_t>(wid)] = ic.task;
    redistribute(std::move(items));
    if (pays_swap && model->load_time_s > 0.0) {
      metrics_.record_model_swap();
      ++swaps_in_flight_;
      sim_->schedule_after(model->load_time_s + 1e-6, [this]() {
        --swaps_in_flight_;
        kick_pending_swaps();
      });
    }
  }
}

void ServingSystem::recompute_descendant_budgets() {
  const auto& g = *graph_;
  // Replica-weighted mean runtime budget per task under the current plan.
  std::vector<double> mean_budget(static_cast<std::size_t>(g.num_tasks()), 0.0);
  std::vector<double> weight(static_cast<std::size_t>(g.num_tasks()), 0.0);
  for (const auto& ic : plan_.instances) {
    const auto it = plan_.latency_budget_s.find({ic.task, ic.variant});
    if (it == plan_.latency_budget_s.end()) continue;
    mean_budget[static_cast<std::size_t>(ic.task)] +=
        it->second * static_cast<double>(ic.replicas);
    weight[static_cast<std::size_t>(ic.task)] +=
        static_cast<double>(ic.replicas);
  }
  for (std::size_t t = 0; t < mean_budget.size(); ++t) {
    if (weight[t] > 0.0) mean_budget[t] /= weight[t];
  }
  // desc_budget[t] = worst-case remaining chain below t (budgets + hops).
  desc_budget_.assign(static_cast<std::size_t>(g.num_tasks()), 0.0);
  auto order = g.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int t = *it;
    double worst = 0.0;
    for (int c : g.children(t)) {
      worst = std::max(worst, kCommLatencyS +
                                  mean_budget[static_cast<std::size_t>(c)] +
                                  desc_budget_[static_cast<std::size_t>(c)]);
    }
    desc_budget_[static_cast<std::size_t>(t)] = worst;
  }
}

void ServingSystem::redistribute(std::vector<cluster::WorkItem>&& items) {
  const double now = sim_->now();
  for (auto& item : items) {
    const int wid = pick_worker_for_task(item.task);
    if (wid < 0) {
      drop_query_part(item.query_id, now);
      continue;
    }
    item.enqueue_time = now;
    workers_[static_cast<std::size_t>(wid)]->enqueue(item);
  }
}

}  // namespace loki::serving
