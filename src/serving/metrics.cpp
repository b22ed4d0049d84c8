#include "serving/metrics.hpp"

#include <utility>

#include "common/check.hpp"

namespace loki::serving {

void Metrics::roll(double t) {
  while (t >= window_start_ + window_s_) {
    current_.t = window_start_ + window_s_ / 2.0;
    derive(current_);
    windows_.push_back(current_);
    current_ = Window{};
    window_start_ += window_s_;
  }
}

void Metrics::derive(const Window& w) {
  demand_series_.add(w.t, static_cast<double>(w.arrivals) / window_s_);
  violation_series_.add(w.t, w.done > 0
                                 ? static_cast<double>(w.violations) /
                                       static_cast<double>(w.done)
                                 : 0.0);
  if (w.accuracy.count() > 0) {
    accuracy_series_.add(w.t, w.accuracy.mean());
  } else if (!accuracy_series_.empty()) {
    accuracy_series_.add(w.t, accuracy_series_.points().back().v);
  }
}

double Metrics::utilization(double servers) const {
  return cluster_size_ > 0 ? servers / static_cast<double>(cluster_size_)
                           : 0.0;
}

void Metrics::record_arrival(double t, int tier) {
  roll(t);
  ++current_.arrivals;
  ++tiers_[clamp_tier(tier)].arrivals;
}

void Metrics::record_outcome(double t, QueryOutcome outcome, double accuracy,
                             double latency_s, LossCause cause, int tier) {
  roll(t);
  ++current_.done;
  if (outcome != QueryOutcome::kOnTime) ++current_.violations;
  TierCounts& tc = tiers_[clamp_tier(tier)];
  switch (outcome) {
    case QueryOutcome::kOnTime:
    case QueryOutcome::kLate:
      ++tc.completions;
      ++(outcome == QueryOutcome::kLate ? tc.late : tc.on_time);
      accuracy_.add(accuracy);
      current_.accuracy.add(accuracy);
      latency_.add(latency_s);
      break;
    case QueryOutcome::kShed:
      ++tc.drops;  // drops counts every lost query; shed is the subset
      ++tc.shed;
      if (cause == LossCause::kWorkerFailure) ++tc.shed_failure;
      if (cause == LossCause::kDegradedOverload) ++tc.shed_degraded;
      break;
    case QueryOutcome::kDropped:
      ++tc.drops;
      if (cause == LossCause::kWorkerFailure) ++tc.drops_failure;
      break;
  }
}

void Metrics::record_utilization(double t, int servers_used,
                                 int cluster_size) {
  cluster_size_ = cluster_size;
  const auto servers = static_cast<double>(servers_used);
  servers_series_.add(t, servers);
  utilization_series_.add(t, utilization(servers));
}

double Metrics::tier_attainment(int t) const {
  const TierCounts& tc = tiers_[clamp_tier(t)];
  const std::uint64_t total = tc.completions + tc.drops;
  if (total == 0) return 1.0;
  return static_cast<double>(tc.on_time) / static_cast<double>(total);
}

double Metrics::slo_violation_ratio() const {
  const std::uint64_t total = completions() + drops();
  if (total == 0) return 0.0;
  return static_cast<double>(violations()) / static_cast<double>(total);
}

void Metrics::flush(double t) { roll(t + window_s_); }

void Metrics::merge(Metrics other) {
  LOKI_CHECK(window_s_ == other.window_s_);
  for (int t = 0; t < kNumTiers; ++t) {
    TierCounts& tc = tiers_[t];
    const TierCounts& o = other.tiers_[t];
    tc.arrivals += o.arrivals;
    tc.completions += o.completions;
    tc.on_time += o.on_time;
    tc.late += o.late;
    tc.drops += o.drops;
    tc.shed += o.shed;
    tc.shed_failure += o.shed_failure;
    tc.shed_degraded += o.shed_degraded;
    tc.drops_failure += o.drops_failure;
  }
  forwards_ += other.forwards_;
  model_swaps_ += other.model_swaps_;
  accuracy_.merge(other.accuracy_);
  latency_.merge(std::move(other.latency_));
  // Windows are anchored at t = 0, so the i-th window of every shard covers
  // the same span.
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    if (i == windows_.size()) {
      windows_.push_back(other.windows_[i]);
      continue;
    }
    Window& w = windows_[i];
    w.arrivals += other.windows_[i].arrivals;
    w.done += other.windows_[i].done;
    w.violations += other.windows_[i].violations;
    w.accuracy.merge(other.windows_[i].accuracy);
  }
  servers_series_.combine(other.servers_series_);
  cluster_size_ += other.cluster_size_;

  demand_series_ = TimeSeries();
  violation_series_ = TimeSeries();
  accuracy_series_ = TimeSeries();
  for (const Window& w : windows_) derive(w);
  utilization_series_ = TimeSeries();
  for (const TimeSeries::Point& p : servers_series_.points()) {
    utilization_series_.add(p.t, utilization(p.v));
  }
}

}  // namespace loki::serving
