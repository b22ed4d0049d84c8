// Statistics accumulators used by the metrics pipeline and the benches:
// streaming mean/variance, exact percentiles over stored samples, fixed-bin
// histograms, and windowed time-series reduction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
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

  /// Exact quantile with linear interpolation, q in [0, 1].
  /// Returns 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double mean() const;

 private:
  // Sorted lazily on query; `sorted_` tracks validity.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so no data is dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Render as "lo..hi: count" lines (debugging / bench output).
  std::string to_string() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// A (time, value) series with helpers to aggregate into fixed windows —
/// used to produce the timeseries panels of Figs. 5 and 6.
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

  /// Means of v over consecutive windows of `window` seconds starting at
  /// `t0`. Empty windows repeat the previous value (0 if none yet).
  std::vector<Point> window_mean(double t0, double t1, double window) const;
  /// Sum variant (for counting series such as arrivals per window).
  std::vector<Point> window_sum(double t0, double t1, double window) const;

  double mean() const;
  double max() const;

  /// Pointwise sum with another time-ordered series on a shared grid
  /// (parallel-shard reduction): points with matching timestamps add, and
  /// unmatched points pass through unchanged.
  void combine(const TimeSeries& other);

 private:
  std::vector<Point> points_;
  std::vector<Point> windowed(double t0, double t1, double window,
                              bool average) const;
};

}  // namespace loki
