// Process-wide metric registry (ROADMAP item 5): named counters and
// log2-bucket histograms that concurrent writers bump without locks and
// readers snapshot without stopping them.
//
// Design points, in the HPCToolkit "measure without perturbing" spirit:
//   * Registration (name -> cell) is mutex-guarded and cold; it returns a
//     small value handle (Counter / Histogram) wrapping a stable pointer, so
//     the hot path is one relaxed atomic add with no lock, no hash and no
//     string touch. Registering an existing name returns the same cell, which
//     is how shard systems sharing a registry merge into cluster-wide series.
//   * Counter cells are cache-line padded (common/padded.hpp): unrelated
//     counters bumped from different shard threads never false-share.
//   * Histograms use 64 log2 buckets over nanosecond-scale values: bucket 0
//     holds [0, 2), bucket i holds [2^i, 2^(i+1)). Quantiles interpolate
//     within the containing bucket, so estimates carry at most one octave of
//     resolution error — plenty for p50/p99 stage attribution.
//   * snapshot() copies every cell with relaxed loads while writers keep
//     going (per-cell atomicity, no cross-cell consistency — counters are
//     statistics, not invariants) and self-times into the obs.self.*
//     counters, so every exported snapshot carries the registry's own cost.
//
// Lifetime: cells live in deques owned by the Registry and are never moved,
// so handles stay valid for the registry's lifetime. Experiment drivers
// create one Registry per run (concurrent runs must not mix series);
// Registry::global() serves directly-constructed systems.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/padded.hpp"

namespace loki::obs {

class Registry;

/// Value handle to a registry counter. Default-constructed handles are
/// detached no-ops, so instrumented code never branches on "is obs wired".
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->add(n);
  }
  std::uint64_t value() const { return cell_ != nullptr ? cell_->load() : 0; }
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(PaddedAtomicU64* cell) : cell_(cell) {}
  PaddedAtomicU64* cell_ = nullptr;
};

inline constexpr int kHistogramBuckets = 64;

/// Log2 bucket index of a value: 0 for [0, 2), i for [2^i, 2^(i+1)),
/// 63 for everything at or above 2^63.
inline int histogram_bucket(std::uint64_t v) {
  if (v < 2) return 0;
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(v);
#else
  int b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
#endif
}

/// Inclusive lower edge of bucket b.
inline std::uint64_t histogram_bucket_lo(int b) {
  return b == 0 ? 0 : (std::uint64_t{1} << b);
}

/// Exclusive upper edge of bucket b (saturates for the last bucket).
inline std::uint64_t histogram_bucket_hi(int b) {
  return b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b + 1));
}

/// Concurrent histogram cells: per-bucket counts plus count/sum for means.
/// Buckets within one histogram share cache lines (adds are sampled and
/// rare); the struct itself is line-aligned so neighbours never interfere.
struct alignas(kCacheLineBytes) HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> bucket{};
};

/// Value handle to a registry histogram; same detached-no-op contract as
/// Counter.
class Histogram {
 public:
  Histogram() = default;
  void add(std::uint64_t v) {
    if (cells_ == nullptr) return;
    cells_->count.fetch_add(1, std::memory_order_relaxed);
    cells_->sum.fetch_add(v, std::memory_order_relaxed);
    cells_->bucket[static_cast<std::size_t>(histogram_bucket(v))].fetch_add(
        1, std::memory_order_relaxed);
  }
  bool attached() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(HistogramCells* cells) : cells_(cells) {}
  HistogramCells* cells_ = nullptr;
};

/// Plain-value copy of one histogram at snapshot time.
struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> bucket{};

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Quantile estimate (q in [0, 1]) with linear interpolation inside the
  /// containing log2 bucket.
  double quantile(double q) const;
};

/// Point-in-time copy of a registry. Values are per-cell atomic but not
/// mutually consistent (writers keep going during the copy).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramStats> histograms;

  /// Counter value by name (0 when absent — absent and never-bumped are
  /// indistinguishable, which is the right default for exports).
  std::uint64_t counter_value(const std::string& name) const;
  /// Histogram by name, nullptr when absent.
  const HistogramStats* find_histogram(const std::string& name) const;

  /// CSV rows: kind,name,value,count,mean,p50,p90,p99 (values in the unit
  /// the writer used — the serving layer records nanoseconds).
  std::string to_csv() const;
  void write_csv(const std::string& path) const;
};

class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter counter(const std::string& name);
  /// Returns the histogram registered under `name`, creating it on first use.
  Histogram histogram(const std::string& name);

  /// Copies every cell with relaxed loads; writers are never blocked (they
  /// don't take mu_ — the lock only orders concurrent registrations against
  /// the copy of the name tables). The snapshot's own wall cost is added to
  /// obs.self.snapshots / obs.self.snapshot_ns *after* the copy, so it shows
  /// up from the next snapshot on.
  Snapshot snapshot() const;

  /// Process-wide default registry for directly-constructed systems.
  /// Experiment drivers pass their own per-run instance instead.
  static Registry& global();

 private:
  mutable std::mutex mu_;
  // Deques: grow-only, cells never move — handles stay valid for the
  // registry's lifetime.
  std::deque<PaddedAtomicU64> counter_cells_;
  std::vector<std::string> counter_names_;
  std::deque<HistogramCells> hist_cells_;
  std::vector<std::string> hist_names_;

  // Mutated from const snapshot(): self-measurement is not logical state.
  mutable Counter self_snapshots_;
  mutable Counter self_snapshot_ns_;
};

}  // namespace loki::obs
