#include "sim/simulation.hpp"

#include <utility>

#include "common/check.hpp"

namespace loki::sim {

void Simulation::cancel(EventId id) {
  Event* e = events_.find(id.value);
  if (e == nullptr) return;  // already fired or cancelled
  const auto pos = static_cast<std::size_t>(e->heap_pos);
  heap_remove(pos);
  events_.erase(id.value);
}

bool Simulation::fire_front() {
  const std::uint32_t slot = heap_.front().slot;
  {
    Event& e = events_.at_slot(slot);
    if (e.deferred_seq != 0) {
      // Lazily rescheduled: the popped key is stale. Re-key the root with
      // the deferred (t, seq) — pop order from here on is identical to an
      // eager re-sift at reschedule() time — and fire nothing.
      heap_.front().t = e.deferred_t;
      heap_.front().seq = e.deferred_seq;
      e.deferred_seq = 0;
      sift_down(0);
      return false;
    }
  }
  now_ = heap_.front().t;
  ++processed_;
  // Specialized root removal: the root never sifts up.
  const std::size_t last = heap_.size() - 1;
  if (last != 0) {
    heap_.front() = heap_[last];
    events_.at_slot(heap_.front().slot).heap_pos = 0;
  }
  heap_.pop_back();
  if (last != 0) sift_down(0);
  // Fire in place: the handle goes stale *before* the callback runs (so
  // cancel()/reschedule() on the firing event are no-ops, exactly as if it
  // had been erased), but the callback object is destroyed and its slot
  // recycled only after it returns. Slab slots are pointer-stable, so
  // events the callback schedules cannot move it.
  events_.invalidate_slot(slot);
  events_.at_slot(slot).cb();
  events_.release_slot(slot);
  return true;
}

Simulation::LaneId Simulation::add_lane(std::string name) {
  lanes_.emplace_back();
  lanes_.back().stats.name = std::move(name);
  return LaneId{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

std::size_t Simulation::pending() const {
  std::size_t n = heap_.size();
  for (const Lane& lane : lanes_) n += lane.ring.size();
  return n;
}

int Simulation::earliest(Time* t) const {
  // A lazily re-keyed heap root carries a key no later than its real one,
  // so when it wins here fire_front() only re-keys it and the caller asks
  // again; when a lane front wins, the real key is later still.
  int src = kNothing;
  Time best_t = 0.0;
  std::uint64_t best_seq = 0;
  if (!heap_.empty()) {
    src = kHeapRoot;
    best_t = heap_.front().t;
    best_seq = heap_.front().seq;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const RingBuffer<LaneEntry>& ring = lanes_[i].ring;
    if (ring.empty()) continue;
    const LaneEntry& front = ring.front();
    if (src == kNothing || front.t < best_t ||
        (front.t == best_t && front.seq < best_seq)) {
      src = static_cast<int>(i);
      best_t = front.t;
      best_seq = front.seq;
    }
  }
  *t = best_t;
  return src;
}

void Simulation::fire_lane(std::size_t i) {
  RingBuffer<LaneEntry>& ring = lanes_[i].ring;
  now_ = ring.front().t;
  ++processed_;
  ++lanes_[i].stats.fired;
  // Move the callback out first: it may push onto this lane and grow (move)
  // the ring while it runs.
  Callback cb = std::move(ring.front().cb);
  ring.pop_front();
  cb();
}

bool Simulation::step() {
  for (;;) {
    Time t = 0.0;
    const int src = earliest(&t);
    if (src == kNothing) return false;
    if (src != kHeapRoot) {
      fire_lane(static_cast<std::size_t>(src));
      return true;
    }
    if (fire_front()) return true;
  }
}

void Simulation::run_until(Time t_end) {
  LOKI_CHECK(t_end >= now_);
  for (;;) {
    Time t = 0.0;
    const int src = earliest(&t);
    if (src == kNothing || t > t_end) break;
    if (src == kHeapRoot) {
      fire_front();
    } else {
      fire_lane(static_cast<std::size_t>(src));
    }
  }
  now_ = t_end;
}

void Simulation::run_all() {
  while (step()) {
  }
}

// Both sifts bubble a hole instead of swapping: one entry copy and one
// heap_pos slab store per level rather than three copies and two stores.

std::size_t Simulation::sift_up(std::size_t i) {
  const std::size_t start = i;
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    events_.at_slot(heap_[i].slot).heap_pos = static_cast<std::int32_t>(i);
    i = parent;
  }
  if (i != start) {
    heap_[i] = e;
    events_.at_slot(e.slot).heap_pos = static_cast<std::int32_t>(i);
  }
  return i;
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const std::size_t start = i;
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    std::size_t c = l;
    const std::size_t r = l + 1;
    if (r < n && before(heap_[r], heap_[l])) c = r;
    if (!before(heap_[c], e)) break;
    heap_[i] = heap_[c];
    events_.at_slot(heap_[i].slot).heap_pos = static_cast<std::int32_t>(i);
    i = c;
  }
  if (i != start) {
    heap_[i] = e;
    events_.at_slot(e.slot).heap_pos = static_cast<std::int32_t>(i);
  }
}

void Simulation::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    events_.at_slot(heap_[pos].slot).heap_pos = static_cast<std::int32_t>(pos);
  }
  heap_.pop_back();
  if (pos != last) sift_down(sift_up(pos));
}

}  // namespace loki::sim
