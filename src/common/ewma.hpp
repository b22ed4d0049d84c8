// Exponentially-weighted moving average used by the Resource Manager to
// estimate the demand it should provision for (§4.2 of the paper).
#pragma once

#include "common/check.hpp"

namespace loki {

/// Classic discrete EWMA: estimate' = alpha * sample + (1-alpha) * estimate.
class Ewma {
 public:
  /// alpha in (0, 1]; larger = more reactive.
  explicit Ewma(double alpha = 0.3) : alpha_(alpha) {
    LOKI_CHECK(alpha > 0.0 && alpha <= 1.0);
  }

  void add(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ = alpha_ * sample + (1.0 - alpha_) * value_;
    }
  }

  bool initialized() const { return initialized_; }
  double value() const { return initialized_ ? value_ : 0.0; }
  double alpha() const { return alpha_; }
  void reset() { initialized_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace loki
