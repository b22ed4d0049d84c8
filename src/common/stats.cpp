#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace loki {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void PercentileTracker::add(double x) {
  samples_.push_back(x);
  sum_ += x;
}

void PercentileTracker::merge(const PercentileTracker& other) {
  // One sample at a time, not sum_ += other.sum_: the sum keeps the exact
  // bits of adding every sample in insertion order.
  for (const double x : other.samples_) sum_ += x;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double PercentileTracker::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  LOKI_CHECK(q >= 0.0 && q <= 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Select the two order statistics the interpolation needs instead of
  // sorting (O(n), not O(n log n)): nth_element puts the lo-th smallest at
  // lo and only samples no smaller after it, so the hi-th smallest is the
  // minimum of that tail.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double lo_v = *nth;
  const double hi_v =
      hi == lo ? lo_v : *std::min_element(nth + 1, samples_.end());
  return lo_v * (1.0 - frac) + hi_v * frac;
}

double PercentileTracker::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

void TimeSeries::add(double t, double v) {
  LOKI_DCHECK(points_.empty() || t >= points_.back().t);
  points_.push_back({t, v});
}

double TimeSeries::mean() const {
  if (points_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& p : points_) s += p.v;
  return s / static_cast<double>(points_.size());
}

double TimeSeries::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& p : points_) m = std::max(m, p.v);
  return points_.empty() ? 0.0 : m;
}

void TimeSeries::combine(const TimeSeries& other) {
  constexpr double kEps = 1e-9;
  std::vector<Point> merged;
  merged.reserve(points_.size() + other.points_.size());
  std::size_t i = 0, j = 0;
  while (i < points_.size() && j < other.points_.size()) {
    const Point& a = points_[i];
    const Point& b = other.points_[j];
    if (std::abs(a.t - b.t) <= kEps) {
      merged.push_back({a.t, a.v + b.v});
      ++i;
      ++j;
    } else if (a.t < b.t) {
      merged.push_back(a);
      ++i;
    } else {
      merged.push_back(b);
      ++j;
    }
  }
  for (; i < points_.size(); ++i) merged.push_back(points_[i]);
  for (; j < other.points_.size(); ++j) merged.push_back(other.points_[j]);
  points_ = std::move(merged);
}

}  // namespace loki
