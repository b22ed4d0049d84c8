// Demand estimation (§4.2): the Frontend records arrivals; the Resource
// Manager provisions for an exponentially-weighted moving average of the
// recent per-window demand, with a safety headroom.
#pragma once

#include <cstddef>

#include "common/ewma.hpp"

namespace loki::trace {

/// Arrivals are counted in windows of this length (seconds).
inline constexpr double kDemandWindowS = 1.0;
/// EWMA weight of the newest window's rate.
inline constexpr double kDemandEwmaAlpha = 0.35;
/// Multiplicative provisioning safety factor on the estimate.
inline constexpr double kDemandHeadroom = 1.10;

class DemandEstimator {
 public:
  /// Records one arrival at time t (seconds).
  void record_arrival(double t);

  /// Flushes completed windows up to time `now` into the EWMA and returns
  /// the provisioning estimate in QPS: max(EWMA, most recent window) *
  /// kDemandHeadroom. Taking the max makes the estimator react instantly to
  /// demand ramps while the EWMA smooths the way down — under-provisioning
  /// blows up queues, over-provisioning merely wastes a couple of servers
  /// for one Resource Manager period.
  double estimate(double now);

  /// Instantaneous rate of the most recent *completed* window (QPS).
  double last_window_rate() const { return last_window_rate_; }

 private:
  void roll_to(double now);

  Ewma ewma_{kDemandEwmaAlpha};
  double window_start_ = 0.0;
  std::size_t count_in_window_ = 0;
  double last_window_rate_ = 0.0;
};

}  // namespace loki::trace
