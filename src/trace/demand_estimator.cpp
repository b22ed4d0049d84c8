#include "trace/demand_estimator.hpp"

#include <algorithm>

namespace loki::trace {

void DemandEstimator::record_arrival(double t) {
  roll_to(t);
  ++count_in_window_;
}

void DemandEstimator::roll_to(double now) {
  while (now >= window_start_ + kDemandWindowS) {
    const double rate = static_cast<double>(count_in_window_) / kDemandWindowS;
    ewma_.add(rate);
    last_window_rate_ = rate;
    count_in_window_ = 0;
    window_start_ += kDemandWindowS;
  }
}

double DemandEstimator::estimate(double now) {
  roll_to(now);
  return std::max(ewma_.value(), last_window_rate_) * kDemandHeadroom;
}

}  // namespace loki::trace
