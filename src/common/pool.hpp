// Slab allocation for the data-plane hot path, modelled on the pool-and-
// queue service architecture of the loki C framework (lk_MemPool): the
// per-event / per-request records that used to churn the general-purpose
// heap (and the per-query unordered_map insert/erase cycle) live in
// fixed-size slabs and recycle through a free list in O(1).
//
//   SlabPool<T>   - raw slot allocator: emplace() -> uint32 slot, erase(slot)
//                   recycles. Slots stay pointer-stable for the life of the
//                   pool (slabs are never moved or freed until destruction).
//   HandlePool<T> - SlabPool plus per-slot generation counters packed into
//                   64-bit handles, so stale handles (the "query already
//                   finalized" / "event already fired" races of the serving
//                   runtime) resolve to nullptr instead of aliasing a
//                   recycled slot.
//   RingBuffer<T> - growable power-of-two ring used for worker queues
//                   (contiguous, no per-chunk allocation like std::deque).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace loki {

template <typename T>
class SlabPool {
 public:
  /// `slab_capacity` is rounded up to a power of two (index math is a
  /// shift + mask on the hot path).
  explicit SlabPool(std::size_t slab_capacity = 1024) {
    std::size_t cap = 1;
    while (cap < slab_capacity) cap <<= 1;
    slab_cap_ = cap;
    shift_ = 0;
    while ((std::size_t{1} << shift_) < cap) ++shift_;
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() { destroy_live(); }

  template <typename... A>
  std::uint32_t emplace(A&&... args) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(next_fresh_++);
      if ((slot >> shift_) >= slabs_.size()) {
        slabs_.push_back(std::make_unique<Cell[]>(slab_cap_));
      }
    }
    ::new (static_cast<void*>(cell(slot))) T(std::forward<A>(args)...);
    ++live_;
    return slot;
  }

  void erase(std::uint32_t slot) {
    at(slot).~T();
    free_.push_back(slot);
    --live_;
  }

  T& at(std::uint32_t slot) {
    return *std::launder(reinterpret_cast<T*>(cell(slot)));
  }
  const T& at(std::uint32_t slot) const {
    return *std::launder(reinterpret_cast<const T*>(cell(slot)));
  }

  /// Live objects.
  std::size_t size() const { return live_; }
  /// Slots ever created (live + free-listed); the slot index bound.
  std::size_t slots() const { return next_fresh_; }

  void clear() {
    destroy_live();
    free_.clear();
    next_fresh_ = 0;
    live_ = 0;
  }

 private:
  using Cell = std::aligned_storage_t<sizeof(T), alignof(T)>;

  Cell* cell(std::uint32_t slot) {
    return &slabs_[slot >> shift_][slot & (slab_cap_ - 1)];
  }
  const Cell* cell(std::uint32_t slot) const {
    return &slabs_[slot >> shift_][slot & (slab_cap_ - 1)];
  }

  void destroy_live() {
    if (live_ == 0) return;
    // Cold path (destruction/clear): mark free slots, destroy the rest.
    std::vector<bool> is_free(next_fresh_, false);
    for (std::uint32_t s : free_) is_free[s] = true;
    for (std::size_t s = 0; s < next_fresh_; ++s) {
      if (!is_free[s]) at(static_cast<std::uint32_t>(s)).~T();
    }
    live_ = 0;
  }

  std::size_t slab_cap_ = 1024;
  unsigned shift_ = 10;
  std::vector<std::unique_ptr<Cell[]>> slabs_;
  std::vector<std::uint32_t> free_;
  std::size_t next_fresh_ = 0;
  std::size_t live_ = 0;
};

/// Slot index of a HandlePool handle. Free function (the layout does not
/// depend on T) so handle-keyed side structures — e.g. the observability
/// layer's deterministic 1-in-N query sampling — can derive slot keys
/// without naming the pool's element type.
inline std::uint32_t pool_handle_slot(std::uint64_t h) {
  return static_cast<std::uint32_t>(h >> 32) - 1;
}

/// SlabPool plus generation-checked 64-bit handles. Handle layout:
/// (slot + 1) << 32 | generation, so 0 is never a valid handle. A slot's
/// generation bumps on erase; find() on a stale handle returns nullptr (the
/// behaviour the serving runtime used to buy with unordered_map::find on
/// monotone ids, now without hashing).
template <typename T>
class HandlePool {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kInvalid = 0;

  explicit HandlePool(std::size_t slab_capacity = 1024)
      : pool_(slab_capacity) {}

  template <typename... A>
  Handle emplace(A&&... args) {
    const std::uint32_t slot = pool_.emplace(std::forward<A>(args)...);
    if (slot >= gens_.size()) gens_.resize(slot + 1, 0);
    return make_handle(slot, gens_[slot]);
  }

  T* find(Handle h) {
    if (h == kInvalid) return nullptr;
    const std::uint32_t slot = slot_of(h);
    if (slot >= gens_.size() || gens_[slot] != gen_of(h)) return nullptr;
    return &pool_.at(slot);
  }
  const T* find(Handle h) const {
    return const_cast<HandlePool*>(this)->find(h);
  }

  /// Checked access: the handle must be live.
  T& get(Handle h) {
    T* p = find(h);
    LOKI_CHECK_MSG(p != nullptr, "stale or invalid pool handle " << h);
    return *p;
  }

  void erase(Handle h) {
    const std::uint32_t slot = slot_of(h);
    LOKI_CHECK(slot < gens_.size() && gens_[slot] == gen_of(h));
    ++gens_[slot];  // invalidate outstanding handles before recycling
    pool_.erase(slot);
  }

  /// Slot-level access for index-keyed side structures (e.g. the event
  /// queue's heap stores 32-bit slots, not 64-bit handles).
  static std::uint32_t slot_of(Handle h) { return pool_handle_slot(h); }
  /// Two-phase erase for fire-in-place patterns: invalidate_slot() makes
  /// every outstanding handle stale *now* (find() -> nullptr) while the
  /// object stays constructed; release_slot() destroys it and recycles the
  /// storage. Between the two calls the slot must not be erased again.
  void invalidate_slot(std::uint32_t slot) { ++gens_[slot]; }
  void release_slot(std::uint32_t slot) { pool_.erase(slot); }
  T& at_slot(std::uint32_t slot) { return pool_.at(slot); }
  const T& at_slot(std::uint32_t slot) const { return pool_.at(slot); }

  std::size_t size() const { return pool_.size(); }
  std::size_t slots() const { return pool_.slots(); }

  void clear() {
    // Invalidate every outstanding handle, then recycle all storage.
    for (auto& g : gens_) ++g;
    pool_.clear();
    gens_.clear();
  }

 private:
  static Handle make_handle(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<Handle>(slot + 1) << 32) | gen;
  }
  static std::uint32_t gen_of(Handle h) {
    return static_cast<std::uint32_t>(h);
  }

  SlabPool<T> pool_;
  std::vector<std::uint32_t> gens_;
};

/// Growable circular buffer with power-of-two capacity: contiguous storage,
/// amortized O(1) push_back/pop_front, index access relative to the front.
/// Replaces std::deque in worker queues (deque pays a heap allocation per
/// chunk and scatters items across them).
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t initial_capacity = 16) {
    std::size_t cap = 2;
    while (cap < initial_capacity) cap <<= 1;
    buf_.resize(cap);
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void pop_front() {
    LOKI_CHECK(size_ > 0);
    buf_[head_] = T{};  // release resources held by the slot
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void pop_back() {
    LOKI_CHECK(size_ > 0);
    --size_;
    buf_[(head_ + size_) & (buf_.size() - 1)] = T{};
  }

  /// i-th element from the front (0 = front()).
  T& operator[](std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace loki
