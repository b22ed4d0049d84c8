// Statistics accumulators used by the metrics pipeline and the benches:
// streaming mean/variance, exact percentiles over stored samples (kept in
// fixed-size blocks that a merge moves rather than copies), and (time, value)
// series.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

namespace loki {

/// Streaming mean / variance / min / max (Welford). O(1) memory.
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator (parallel reduction support).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples and answers exact quantile queries. Suitable for the
/// volumes produced by a single experiment run (millions of doubles).
///
/// Samples live in blocks of kBlockSize doubles, filled in insertion order;
/// add() opens a block when the last one is full. Every block has the same
/// size, so the blocks a finished run frees serve the next run, and the
/// allocator never holds multi-megabyte buffers of changing sizes. merge()
/// appends the source's blocks without copying a sample, which may leave a
/// part-filled block mid-list; the next quantile query closes such gaps by
/// shifting samples left in place, keeping their order.
///
/// A quantile query reorders the stored samples, and merge() sums the
/// source's samples in stored order, so a tracker that has answered a query
/// cannot be a merge source (CheckFailure): merge first, then query. Querying
/// the destination is allowed.
class PercentileTracker {
 public:
  /// Samples per block (256 KiB).
  static constexpr std::size_t kBlockSize = std::size_t{1} << 15;

  PercentileTracker() = default;
  /// Copies every sample into blocks of its own, so querying the copy does
  /// not reorder the original.
  PercentileTracker(const PercentileTracker& other);
  /// Takes the blocks; `other` is left empty and can be reused.
  PercentileTracker(PercentileTracker&& other) noexcept;
  PercentileTracker& operator=(PercentileTracker other) noexcept;

  void add(double x);
  /// Appends `other`'s samples after this tracker's. An rvalue hands over
  /// its blocks; an lvalue is copied first.
  void merge(PercentileTracker other);
  std::size_t count() const { return count_; }

  /// Exact quantile with linear interpolation, q in [0, 1], by selection
  /// (the stored samples are reordered). Returns 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  /// Mean of the samples summed in insertion order (merged trackers' samples
  /// follow this one's), so it does not depend on whether a quantile query
  /// reordered the stored samples first.
  double mean() const;

 private:
  struct Block {
    std::unique_ptr<double[]> samples;
    std::size_t size = 0;
  };
  class Cursor;

  Block& open_block();
  void close_gaps() const;

  // Reordered by every quantile query; gaps a merge left are closed by the
  // first query after it.
  mutable std::vector<Block> blocks_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  // Set by a quantile query: the stored order is no longer insertion order.
  mutable bool queried_ = false;
};

/// A time-ordered (time, value) series — the timeseries panels of Figs. 5
/// and 6.
class TimeSeries {
 public:
  void add(double t, double v);
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  struct Point {
    double t;
    double v;
  };
  const std::vector<Point>& points() const { return points_; }

  double mean() const;
  double max() const;

  /// Pointwise sum with another time-ordered series on a shared grid
  /// (parallel-shard reduction): points with matching timestamps add, and
  /// unmatched points pass through unchanged.
  void combine(const TimeSeries& other);

 private:
  std::vector<Point> points_;
};

}  // namespace loki
