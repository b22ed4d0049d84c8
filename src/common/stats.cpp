#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

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

// A random-access view of gap-free blocks: sample i sits in slot
// i % kBlockSize of block i / kBlockSize.
class PercentileTracker::Cursor {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = double;
  using difference_type = std::ptrdiff_t;
  using pointer = double*;
  using reference = double&;

  Cursor(Block* blocks, difference_type i) : blocks_(blocks), i_(i) {}

  reference operator*() const {
    const auto i = static_cast<std::size_t>(i_);
    return blocks_[i / kBlockSize].samples[i % kBlockSize];
  }
  reference operator[](difference_type d) const { return *(*this + d); }
  Cursor& operator++() { ++i_; return *this; }
  Cursor& operator--() { --i_; return *this; }
  Cursor operator++(int) { Cursor c = *this; ++i_; return c; }
  Cursor operator--(int) { Cursor c = *this; --i_; return c; }
  Cursor& operator+=(difference_type d) { i_ += d; return *this; }
  Cursor& operator-=(difference_type d) { i_ -= d; return *this; }
  friend Cursor operator+(Cursor c, difference_type d) { return c += d; }
  friend Cursor operator+(difference_type d, Cursor c) { return c += d; }
  friend Cursor operator-(Cursor c, difference_type d) { return c -= d; }
  friend difference_type operator-(Cursor a, Cursor b) { return a.i_ - b.i_; }
  friend bool operator==(Cursor a, Cursor b) { return a.i_ == b.i_; }
  friend bool operator!=(Cursor a, Cursor b) { return a.i_ != b.i_; }
  friend bool operator<(Cursor a, Cursor b) { return a.i_ < b.i_; }
  friend bool operator>(Cursor a, Cursor b) { return a.i_ > b.i_; }
  friend bool operator<=(Cursor a, Cursor b) { return a.i_ <= b.i_; }
  friend bool operator>=(Cursor a, Cursor b) { return a.i_ >= b.i_; }

 private:
  Block* blocks_;
  difference_type i_;
};

PercentileTracker::PercentileTracker(const PercentileTracker& other)
    : count_(other.count_), sum_(other.sum_), queried_(other.queried_) {
  blocks_.reserve(other.blocks_.size());
  for (const Block& b : other.blocks_) {
    Block& copy = open_block();
    std::copy_n(b.samples.get(), b.size, copy.samples.get());
    copy.size = b.size;
  }
}

PercentileTracker::PercentileTracker(PercentileTracker&& other) noexcept
    : blocks_(std::move(other.blocks_)),
      count_(std::exchange(other.count_, 0)),
      sum_(std::exchange(other.sum_, 0.0)),
      queried_(std::exchange(other.queried_, false)) {
  other.blocks_.clear();
}

PercentileTracker& PercentileTracker::operator=(
    PercentileTracker other) noexcept {
  blocks_.swap(other.blocks_);
  std::swap(count_, other.count_);
  std::swap(sum_, other.sum_);
  std::swap(queried_, other.queried_);
  return *this;
}

PercentileTracker::Block& PercentileTracker::open_block() {
  // Uninitialized: only the first `size` slots are ever read.
  blocks_.push_back({std::unique_ptr<double[]>(new double[kBlockSize]), 0});
  return blocks_.back();
}

void PercentileTracker::add(double x) {
  Block& b = blocks_.empty() || blocks_.back().size == kBlockSize
                 ? open_block()
                 : blocks_.back();
  b.samples[b.size++] = x;
  ++count_;
  sum_ += x;
}

void PercentileTracker::merge(PercentileTracker other) {
  LOKI_CHECK_MSG(!other.queried_,
                 "merge a PercentileTracker before querying it: a quantile "
                 "query reorders the samples, and merge() sums the source's "
                 "samples in stored order");
  // One sample at a time, not sum_ += other.sum_: the sum keeps the exact
  // bits of adding every sample in insertion order.
  for (const Block& b : other.blocks_) {
    for (std::size_t i = 0; i < b.size; ++i) sum_ += b.samples[i];
  }
  count_ += other.count_;
  blocks_.insert(blocks_.end(), std::make_move_iterator(other.blocks_.begin()),
                 std::make_move_iterator(other.blocks_.end()));
}

void PercentileTracker::close_gaps() const {
  const auto gap = std::find_if(
      blocks_.begin(), blocks_.end(),
      [](const Block& b) { return b.size != kBlockSize; });
  if (gap == blocks_.end() || gap + 1 == blocks_.end()) return;
  // Move every sample after the first gap to slot n of the gap-free layout,
  // in stored order. Slot n never lies past the sample being read, so no
  // unread sample is overwritten.
  std::size_t n = static_cast<std::size_t>(gap - blocks_.begin()) * kBlockSize;
  for (auto b = gap; b != blocks_.end(); ++b) {
    for (std::size_t i = 0; i < b->size; ++i, ++n) {
      blocks_[n / kBlockSize].samples[n % kBlockSize] = b->samples[i];
    }
  }
  blocks_.resize((n + kBlockSize - 1) / kBlockSize);
  for (Block& b : blocks_) b.size = kBlockSize;
  blocks_.back().size = n - (blocks_.size() - 1) * kBlockSize;
}

double PercentileTracker::quantile(double q) const {
  if (count_ == 0) return 0.0;
  LOKI_CHECK(q >= 0.0 && q <= 1.0);
  close_gaps();
  queried_ = true;
  const double pos = q * static_cast<double>(count_ - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  // Select the two order statistics the interpolation needs instead of
  // sorting (O(n), not O(n log n)): nth_element puts the lo-th smallest at
  // lo and only samples no smaller after it, so the hi-th smallest is the
  // minimum of that tail.
  const Cursor first(blocks_.data(), 0);
  const Cursor last(blocks_.data(), static_cast<std::ptrdiff_t>(count_));
  const Cursor nth = first + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(first, nth, last);
  const double lo_v = *nth;
  const double hi_v = hi == lo ? lo_v : *std::min_element(nth + 1, last);
  return lo_v * (1.0 - frac) + hi_v * frac;
}

double PercentileTracker::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
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
