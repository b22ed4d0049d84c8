#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  LOKI_CHECK(hi > lo);
  LOKI_CHECK(bins > 0);
}

void Histogram::add(double x) {
  std::ptrdiff_t idx =
      static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os << bin_lo(i) << ".." << bin_hi(i) << ": " << counts_[i] << "\n";
  }
  return os.str();
}

void TimeSeries::add(double t, double v) {
  LOKI_DCHECK(points_.empty() || t >= points_.back().t);
  points_.push_back({t, v});
}

std::vector<TimeSeries::Point> TimeSeries::windowed(double t0, double t1,
                                                    double window,
                                                    bool average) const {
  LOKI_CHECK(window > 0.0 && t1 > t0);
  const std::size_t nwin =
      static_cast<std::size_t>(std::ceil((t1 - t0) / window));
  std::vector<double> sums(nwin, 0.0);
  std::vector<std::size_t> counts(nwin, 0);
  for (const auto& p : points_) {
    if (p.t < t0 || p.t >= t1) continue;
    const auto w = static_cast<std::size_t>((p.t - t0) / window);
    sums[std::min(w, nwin - 1)] += p.v;
    ++counts[std::min(w, nwin - 1)];
  }
  std::vector<Point> out;
  out.reserve(nwin);
  double last = 0.0;
  for (std::size_t w = 0; w < nwin; ++w) {
    double v;
    if (counts[w] == 0) {
      v = average ? last : 0.0;
    } else {
      v = average ? sums[w] / static_cast<double>(counts[w]) : sums[w];
      last = v;
    }
    out.push_back({t0 + window * (static_cast<double>(w) + 0.5), v});
  }
  return out;
}

std::vector<TimeSeries::Point> TimeSeries::window_mean(double t0, double t1,
                                                       double window) const {
  return windowed(t0, t1, window, /*average=*/true);
}

std::vector<TimeSeries::Point> TimeSeries::window_sum(double t0, double t1,
                                                      double window) const {
  return windowed(t0, t1, window, /*average=*/false);
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
