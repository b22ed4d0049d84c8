#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/clock.hpp"

namespace loki::obs {

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk buckets until the
  // cumulative count covers it and interpolate inside that bucket.
  const double rank = std::max(1.0, q * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = bucket[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= rank) {
      const double lo = static_cast<double>(histogram_bucket_lo(b));
      const double hi = static_cast<double>(histogram_bucket_hi(b));
      const double frac = (rank - static_cast<double>(cum)) /
                          static_cast<double>(n);
      return lo + frac * (hi - lo);
    }
    cum += n;
  }
  return static_cast<double>(histogram_bucket_hi(kHistogramBuckets - 1));
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramStats* Snapshot::find_histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_csv() const {
  std::ostringstream out;
  out << "kind,name,value,count,mean,p50,p90,p99\n";
  for (const auto& [name, value] : counters) {
    out << "counter," << name << ',' << value << ",,,,,\n";
  }
  for (const auto& h : histograms) {
    out << "histogram," << h.name << ',' << h.sum << ',' << h.count << ','
        << h.mean() << ',' << h.quantile(0.5) << ',' << h.quantile(0.9) << ','
        << h.quantile(0.99) << '\n';
  }
  return out.str();
}

void Snapshot::write_csv(const std::string& path) const {
  std::ofstream out(path);
  LOKI_CHECK_MSG(out.good(), "cannot open obs CSV path " << path);
  out << to_csv();
}

Registry::Registry() {
  self_snapshots_ = counter("obs.self.snapshots");
  self_snapshot_ns_ = counter("obs.self.snapshot_ns");
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return Counter(&counter_cells_[i]);
  }
  counter_names_.push_back(name);
  counter_cells_.emplace_back();
  return Counter(&counter_cells_.back());
}

Histogram Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] == name) return Histogram(&hist_cells_[i]);
  }
  hist_names_.push_back(name);
  hist_cells_.emplace_back();
  return Histogram(&hist_cells_.back());
}

Snapshot Registry::snapshot() const {
  const std::uint64_t t0 = steady_now_ns();
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      snap.counters.emplace_back(counter_names_[i], counter_cells_[i].load());
    }
    snap.histograms.reserve(hist_names_.size());
    for (std::size_t i = 0; i < hist_names_.size(); ++i) {
      HistogramStats h;
      h.name = hist_names_[i];
      h.count = hist_cells_[i].count.load(std::memory_order_relaxed);
      h.sum = hist_cells_[i].sum.load(std::memory_order_relaxed);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        h.bucket[static_cast<std::size_t>(b)] =
            hist_cells_[i].bucket[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  const std::uint64_t t1 = steady_now_ns();
  // Recorded after the copy: each snapshot's cost is visible from the next
  // one on (and in the final export, which is the one that matters).
  self_snapshots_.add(1);
  self_snapshot_ns_.add(t1 - t0);
  return snap;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace loki::obs
