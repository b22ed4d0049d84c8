// Statistics accumulators used by the metrics pipeline and the benches:
// streaming mean/variance, exact percentiles over stored samples, and
// (time, value) series.
#pragma once

#include <cstddef>
#include <limits>
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
class PercentileTracker {
 public:
  void add(double x);
  void merge(const PercentileTracker& other);
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }

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
  // Partially reordered by every quantile query.
  mutable std::vector<double> samples_;
  double sum_ = 0.0;
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
