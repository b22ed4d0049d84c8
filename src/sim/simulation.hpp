// Deterministic discrete-event simulation core.
//
// This is the substrate that stands in for the paper's GPU cluster (§6.1
// notes the authors themselves run all parameter sweeps on a discrete-event
// simulator after validating it against the prototype). Events at equal
// timestamps are processed in schedule order (a strictly increasing
// sequence number breaks ties), so runs are bit-reproducible.
//
// Data-plane hot path: event records live in a slab pool (HandlePool) and
// callbacks use SmallFunction inline storage, so scheduling an event costs
// no heap allocation for ordinary capture sizes. The pending queue is an
// *indexed* binary heap — every event knows its heap position — so cancel()
// and reschedule() remove or move the entry in O(log n) directly, with no
// tombstones and no compaction passes (the old cancel-heavy timeout
// workloads paid a periodic heap rebuild).
//
// FIFO lanes take time-ordered event streams off the heap. A lane is a ring
// of (t, seq, callback) entries whose times never go backwards, so its
// front is its earliest entry and a push or a pop costs O(1) instead of two
// O(log n) sifts. Lane events draw their sequence numbers from the same
// counter as heap events, and dispatch fires the smallest (t, seq) among the
// heap root and the lane fronts, so the firing order is exactly the one a
// single heap would give. A push earlier than the lane's last time falls
// back to the heap (same order, heap cost). Lane events cannot be cancelled
// or rescheduled; network hops and the arrival pump, which never are, use
// lanes, and timers stay on the heap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/pool.hpp"
#include "common/small_function.hpp"

namespace loki::sim {

/// Simulated time, seconds since experiment start.
using Time = double;

class Simulation {
 public:
  using Callback = SmallFunction<void()>;

  struct EventId {
    std::uint64_t value = 0;
    bool valid() const { return value != 0; }
  };

  /// A lane of this simulation (add_lane()).
  struct LaneId {
    std::uint32_t index = 0;
  };
  /// Work done through one lane.
  struct LaneStats {
    std::string name;
    std::uint64_t fired = 0;      // events fired from the lane
    std::uint64_t fallbacks = 0;  // pushes that went to the heap instead
  };

  Simulation() : events_(256) {}

  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a handle usable
  /// with cancel() / reschedule(). Defined inline: this is the data plane's
  /// single hottest call and inlining lets callers construct the callback
  /// straight into the event slot.
  EventId schedule_at(Time t, Callback cb) {
    LOKI_CHECK_MSG(t >= now_, "cannot schedule in the past: t="
                                  << t << " now=" << now_);
    const auto h = events_.emplace(std::move(cb));
    const std::uint32_t slot = HandlePool<Event>::slot_of(h);
    Event& e = events_.at_slot(slot);
    e.heap_pos = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(HeapEntry{t, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return EventId{h};
  }
  /// Schedules `cb` `dt` seconds from now (dt >= 0).
  EventId schedule_after(double dt, Callback cb) {
    LOKI_CHECK(dt >= 0.0);
    return schedule_at(now_ + dt, std::move(cb));
  }
  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);
  /// Moves a pending event to a new time `t` (>= now) without touching its
  /// callback — the re-armed-timer fast path (timeouts re-armed on every
  /// request): no allocation, no callback churn, one heap re-sift. The event
  /// is ordered as if freshly scheduled (it ties *after* events already
  /// scheduled at `t`). Returns false if the event already fired or was
  /// cancelled (nothing is scheduled in that case).
  ///
  /// Pushing an event *out* is O(1): the new key is only recorded on the
  /// event (lazy re-key); when the old heap position surfaces, the entry is
  /// silently re-keyed and sifted instead of firing. Pop order is identical
  /// to an eager re-sift — the deferred key carries the sequence number
  /// drawn here — so rearm-heavy timeout workloads pay two stores per
  /// rearm, not two heap walks.
  bool reschedule(EventId id, Time t) {
    Event* e = events_.find(id.value);
    if (e == nullptr) return false;  // already fired or cancelled
    LOKI_CHECK_MSG(t >= now_, "cannot reschedule into the past: t="
                                  << t << " now=" << now_);
    const auto pos = static_cast<std::size_t>(e->heap_pos);
    if (t >= heap_[pos].t) {
      e->deferred_t = t;
      e->deferred_seq = next_seq_++;
    } else {
      e->deferred_seq = 0;  // an earlier target overrides any deferral
      heap_[pos].t = t;
      heap_[pos].seq = next_seq_++;
      sift_down(sift_up(pos));
    }
    return true;
  }

  /// Adds an empty FIFO lane; `name` labels its LaneStats.
  LaneId add_lane(std::string name);
  /// Appends `cb` at absolute time `t` (>= now) to `lane`. It fires exactly
  /// when schedule_at(t, cb) would have, but it cannot be cancelled. A `t`
  /// earlier than the lane's last push goes to the heap instead.
  void push(LaneId lane, Time t, Callback cb) {
    LOKI_CHECK_MSG(t >= now_, "cannot push in the past: t=" << t
                                                            << " now=" << now_);
    Lane& l = lanes_[lane.index];
    if (t < l.last_t) {
      ++l.stats.fallbacks;
      schedule_at(t, std::move(cb));
      return;
    }
    l.last_t = t;
    l.ring.push_back(LaneEntry{t, next_seq_++, std::move(cb)});
  }
  /// Appends `cb` `dt` seconds from now (dt >= 0) to `lane`.
  void push_after(LaneId lane, double dt, Callback cb) {
    LOKI_CHECK(dt >= 0.0);
    push(lane, now_ + dt, std::move(cb));
  }
  std::size_t num_lanes() const { return lanes_.size(); }
  const LaneStats& lane_stats(LaneId lane) const {
    return lanes_[lane.index].stats;
  }

  /// Runs events with time <= t_end; afterwards now() == t_end.
  void run_until(Time t_end);
  /// Runs until no events remain.
  void run_all();
  /// Processes a single event; returns false when the queue is empty.
  bool step();

  /// Events waiting to fire, lane events included.
  std::size_t pending() const;
  /// Events fired, lane events included.
  std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    explicit Event(Callback c) : cb(std::move(c)) {}
    std::int32_t heap_pos = -1;
    Time deferred_t = 0.0;
    std::uint64_t deferred_seq = 0;  // 0 = no pending lazy re-key
    Callback cb;
  };
  /// Heap entries carry the ordering key (t, seq) inline, so sift compares
  /// stay within the contiguous heap array instead of chasing pool slots.
  struct HeapEntry {
    Time t = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  struct LaneEntry {
    Time t = 0.0;
    std::uint64_t seq = 0;
    Callback cb;
  };
  struct Lane {
    RingBuffer<LaneEntry> ring;  // ascending (t, seq)
    Time last_t = 0.0;           // time of the last push
    LaneStats stats;
  };

  bool before(const HeapEntry& a, const HeapEntry& b) const {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  /// Sources of the earliest pending event: the heap root, a lane front
  /// (its index, >= 0), or nothing.
  static constexpr int kHeapRoot = -1;
  static constexpr int kNothing = -2;
  /// The source holding the smallest pending (t, seq); stores its t.
  int earliest(Time* t) const;
  /// Pops the front of lane `i` and runs its callback.
  void fire_lane(std::size_t i);
  std::size_t sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the heap entry at position `pos` (the slot stays in the pool).
  void heap_remove(std::size_t pos);
  /// Pops the earliest event and runs its callback (fire-in-place). Returns
  /// false if the front entry only carried a stale key for a lazily
  /// rescheduled event — the entry is silently re-keyed, nothing fires.
  bool fire_front();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  HandlePool<Event> events_;
  std::vector<HeapEntry> heap_;  // binary heap ordered by (t, seq)
  std::vector<Lane> lanes_;
};

}  // namespace loki::sim
