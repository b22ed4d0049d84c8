#include "serving/metrics.hpp"

namespace loki::serving {

void Metrics::roll(double t) {
  while (t >= window_start_ + window_s_) {
    const double mid = window_start_ + window_s_ / 2.0;
    demand_series_.add(mid,
                       static_cast<double>(w_arrivals_) / window_s_);
    if (w_done_ > 0) {
      violation_series_.add(
          mid, static_cast<double>(w_violations_) /
                   static_cast<double>(w_done_));
    } else {
      violation_series_.add(mid, 0.0);
    }
    if (w_accuracy_.count() > 0) {
      accuracy_series_.add(mid, w_accuracy_.mean());
    } else if (!accuracy_series_.empty()) {
      accuracy_series_.add(mid, accuracy_series_.points().back().v);
    }
    w_arrivals_ = 0;
    w_done_ = 0;
    w_violations_ = 0;
    w_accuracy_.reset();
    window_start_ += window_s_;
  }
}

void Metrics::record_arrival(double t, int tier) {
  roll(t);
  ++arrivals_;
  ++w_arrivals_;
  ++tiers_[clamp_tier(tier)].arrivals;
}

void Metrics::record_outcome(double t, QueryOutcome outcome, double accuracy,
                             double latency_s, LossCause cause, int tier) {
  roll(t);
  ++w_done_;
  TierCounts& tc = tiers_[clamp_tier(tier)];
  switch (outcome) {
    case QueryOutcome::kOnTime:
      ++completions_;
      ++tc.completions;
      ++tc.on_time;
      accuracy_.add(accuracy);
      w_accuracy_.add(accuracy);
      latency_.add(latency_s);
      break;
    case QueryOutcome::kLate:
      ++completions_;
      ++violations_;
      ++late_;
      ++w_violations_;
      ++tc.completions;
      ++tc.late;
      accuracy_.add(accuracy);
      w_accuracy_.add(accuracy);
      latency_.add(latency_s);
      break;
    case QueryOutcome::kShed:
      ++shed_;
      ++drops_;  // drops_ counts every lost query; shed_ is the subset
      ++violations_;
      ++w_violations_;
      ++tc.drops;
      ++tc.shed;
      if (cause == LossCause::kWorkerFailure) {
        ++shed_failure_;
        ++tc.shed_failure;
      }
      if (cause == LossCause::kDegradedOverload) ++shed_degraded_;
      break;
    case QueryOutcome::kDropped:
      ++drops_;
      ++violations_;
      ++w_violations_;
      ++tc.drops;
      if (cause == LossCause::kWorkerFailure) ++drops_failure_;
      break;
  }
}

void Metrics::record_utilization(double t, int servers_used,
                                 int cluster_size) {
  servers_.add(static_cast<double>(servers_used));
  servers_series_.add(t, static_cast<double>(servers_used));
  utilization_series_.add(t, cluster_size > 0
                                 ? static_cast<double>(servers_used) /
                                       static_cast<double>(cluster_size)
                                 : 0.0);
}

void Metrics::record_demand_estimate(double /*t*/, double /*qps*/) {
  // Estimates are plotted from demand_series_; kept as a hook for tooling.
}

void Metrics::record_allocation(double /*t*/, double /*solve_time_s*/,
                                int /*mode*/) {}

double Metrics::tier_attainment(int t) const {
  const TierCounts& tc = tiers_[clamp_tier(t)];
  const std::uint64_t total = tc.completions + tc.drops;
  if (total == 0) return 1.0;
  return static_cast<double>(tc.on_time) / static_cast<double>(total);
}

double Metrics::slo_violation_ratio() const {
  const std::uint64_t total = completions_ + drops_;
  if (total == 0) return 0.0;
  return static_cast<double>(violations_) / static_cast<double>(total);
}

void Metrics::flush(double t) { roll(t + window_s_); }

void Metrics::merge(const Metrics& other) {
  arrivals_ += other.arrivals_;
  completions_ += other.completions_;
  violations_ += other.violations_;
  drops_ += other.drops_;
  shed_ += other.shed_;
  late_ += other.late_;
  shed_failure_ += other.shed_failure_;
  shed_degraded_ += other.shed_degraded_;
  drops_failure_ += other.drops_failure_;
  forwards_ += other.forwards_;
  model_swaps_ += other.model_swaps_;
  for (int t = 0; t < kNumTiers; ++t) {
    tiers_[t].arrivals += other.tiers_[t].arrivals;
    tiers_[t].completions += other.tiers_[t].completions;
    tiers_[t].on_time += other.tiers_[t].on_time;
    tiers_[t].late += other.tiers_[t].late;
    tiers_[t].drops += other.tiers_[t].drops;
    tiers_[t].shed += other.tiers_[t].shed;
    tiers_[t].shed_failure += other.tiers_[t].shed_failure;
  }
  accuracy_.merge(other.accuracy_);
  latency_.merge(other.latency_);
  servers_.merge(other.servers_);
  // Shards share the window grid (same window_s_, windows anchored at 0), so
  // pointwise combination lines up. Count-like series sum; ratio series take
  // the mean over all merged shards (see header caveat).
  const auto w = static_cast<double>(shards_);
  const auto w_other = static_cast<double>(other.shards_);
  demand_series_.combine(other.demand_series_, /*sum=*/true);
  servers_series_.combine(other.servers_series_, /*sum=*/true);
  accuracy_series_.combine(other.accuracy_series_, /*sum=*/false, w, w_other);
  violation_series_.combine(other.violation_series_, /*sum=*/false, w,
                            w_other);
  utilization_series_.combine(other.utilization_series_, /*sum=*/false, w,
                              w_other);
  shards_ += other.shards_;
}

}  // namespace loki::serving
