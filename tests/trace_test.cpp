// Trace generator / arrival process / demand estimator tests.
#include <gtest/gtest.h>

#include <cmath>

#include "trace/arrivals.hpp"
#include "trace/demand_estimator.hpp"
#include "trace/generator.hpp"

namespace loki::trace {
namespace {

TEST(Generator, DurationAndPeak) {
  TraceConfig cfg;
  cfg.shape = TraceShape::kAzureDiurnal;
  cfg.duration_s = 1200.0;
  cfg.interval_s = 2.0;
  cfg.peak_qps = 500.0;
  cfg.noise_frac = 0.0;
  const auto curve = generate_trace(cfg);
  EXPECT_EQ(curve.qps.size(), 600u);
  EXPECT_NEAR(curve.duration_s(), 1200.0, 1e-9);
  EXPECT_LE(curve.peak(), 500.0 + 1e-9);
  EXPECT_GT(curve.peak(), 450.0);  // the diurnal profile reaches ~1.0
}

TEST(Generator, DiurnalHasTroughAndPeak) {
  TraceConfig cfg;
  cfg.duration_s = 3600.0;
  cfg.peak_qps = 100.0;
  cfg.base_fraction = 0.2;
  cfg.noise_frac = 0.0;
  const auto curve = generate_trace(cfg);
  double lo = 1e18;
  for (double q : curve.qps) lo = std::min(lo, q);
  EXPECT_NEAR(lo, 20.0, 3.0);           // trough ~ base fraction
  EXPECT_GT(curve.peak() / lo, 3.0);    // strong diurnal swing
}

TEST(Generator, RampIsMonotoneWithoutNoise) {
  TraceConfig cfg;
  cfg.shape = TraceShape::kRamp;
  cfg.noise_frac = 0.0;
  cfg.duration_s = 100.0;
  cfg.peak_qps = 10.0;
  const auto curve = generate_trace(cfg);
  for (std::size_t i = 1; i < curve.qps.size(); ++i) {
    EXPECT_GE(curve.qps[i] + 1e-12, curve.qps[i - 1]);
  }
}

TEST(Generator, StepShape) {
  TraceConfig cfg;
  cfg.shape = TraceShape::kStep;
  cfg.noise_frac = 0.0;
  cfg.duration_s = 100.0;
  cfg.peak_qps = 10.0;
  cfg.base_fraction = 0.3;
  const auto curve = generate_trace(cfg);
  EXPECT_NEAR(curve.qps.front(), 3.0, 1e-9);
  EXPECT_NEAR(curve.qps.back(), 10.0, 1e-9);
}

TEST(Generator, TwitterBurstsRaiseVariance) {
  TraceConfig base;
  base.shape = TraceShape::kAzureDiurnal;
  base.noise_frac = 0.0;
  base.duration_s = 3600.0;
  TraceConfig bursty = base;
  bursty.shape = TraceShape::kTwitterBursty;
  bursty.burst_rate_per_hour = 30.0;
  bursty.burst_magnitude = 1.0;
  const auto smooth = generate_trace(base);
  const auto spiky = generate_trace(bursty);
  // Bursts push samples above the diurnal envelope.
  double max_ratio = 0.0;
  for (std::size_t i = 0; i < smooth.qps.size(); ++i) {
    if (smooth.qps[i] > 1.0) {
      max_ratio = std::max(max_ratio, spiky.qps[i] / smooth.qps[i]);
    }
  }
  EXPECT_GT(max_ratio, 1.2);
}

TEST(Generator, DeterministicForSeed) {
  TraceConfig cfg;
  cfg.shape = TraceShape::kTwitterBursty;
  cfg.seed = 99;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  EXPECT_EQ(a.qps, b.qps);
}

TEST(Generator, InterpolationAtSamplesAndBetween) {
  DemandCurve c;
  c.interval_s = 1.0;
  c.qps = {0.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(c.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(c.at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(c.at(99.0), 20.0);
}

TEST(Generator, ScaleToPeakPreservesShape) {
  TraceConfig cfg;
  cfg.peak_qps = 100.0;
  cfg.noise_frac = 0.0;
  const auto curve = generate_trace(cfg);
  const auto scaled = scale_to_peak(curve, 700.0);
  EXPECT_NEAR(scaled.peak(), 700.0, 1e-6);
  ASSERT_EQ(scaled.qps.size(), curve.qps.size());
  const double f = 700.0 / curve.peak();
  for (std::size_t i = 0; i < curve.qps.size(); i += 37) {
    EXPECT_NEAR(scaled.qps[i], curve.qps[i] * f, 1e-9);
  }
}

TEST(Generator, RescaleDurationPreservesNormalizedShape) {
  TraceConfig cfg;
  cfg.duration_s = 1000.0;
  cfg.noise_frac = 0.0;
  const auto curve = generate_trace(cfg);
  const auto compressed = rescale_duration(curve, 250.0);
  EXPECT_NEAR(compressed.duration_s(), 250.0, curve.interval_s + 1e-9);
  // Value at normalized position x matches.
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(compressed.at(x * 250.0), curve.at(x * 1000.0),
                curve.peak() * 0.02);
  }
}

TEST(Generator, FlashCrowdSpikesInstantlyAndDecays) {
  TraceConfig cfg;
  cfg.shape = TraceShape::kFlashCrowd;
  cfg.duration_s = 600.0;
  cfg.peak_qps = 100.0;
  cfg.base_fraction = 0.2;
  cfg.noise_frac = 0.0;
  cfg.flash_count = 2;
  cfg.flash_magnitude = 1.0;
  cfg.flash_decay_s = 30.0;
  cfg.seed = 7;
  const auto curve = generate_trace(cfg);

  // The flat base is visible (samples before the first spike) and the
  // spikes rise well above it.
  const double base = cfg.base_fraction * cfg.peak_qps;
  double peak = 0.0;
  for (double q : curve.qps) peak = std::max(peak, q);
  EXPECT_GT(peak, base + 0.8 * cfg.flash_magnitude * cfg.peak_qps);

  // A spike is an *instant* rise followed by exponential decay: find the
  // global max and check it decays afterwards at the configured rate until
  // the next spike (monotone non-increasing modulo the second spike).
  std::size_t imax = 0;
  for (std::size_t i = 0; i < curve.qps.size(); ++i) {
    if (curve.qps[i] > curve.qps[imax]) imax = i;
  }
  ASSERT_GT(imax, 0u);
  // Instant rise: the sample before the peak sits far below it.
  EXPECT_LT(curve.qps[imax - 1], curve.qps[imax] - 0.5 * base);
  // Decay over one time constant: value drops towards the base.
  const auto decay_idx =
      imax + static_cast<std::size_t>(cfg.flash_decay_s / cfg.interval_s);
  if (decay_idx < curve.qps.size()) {
    EXPECT_LT(curve.qps[decay_idx], curve.qps[imax]);
  }

  // Fully deterministic under the seed.
  const auto again = generate_trace(cfg);
  ASSERT_EQ(again.qps.size(), curve.qps.size());
  for (std::size_t i = 0; i < curve.qps.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.qps[i], curve.qps[i]);
  }

  // Different seed, different spike times.
  cfg.seed = 8;
  const auto other = generate_trace(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < curve.qps.size(); ++i) {
    differs = differs || other.qps[i] != curve.qps[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, MmppIsPiecewiseConstantOverStateLevels) {
  MmppConfig cfg;
  cfg.duration_s = 600.0;
  cfg.state_qps = {200.0, 1200.0};
  cfg.mean_dwell_s = {60.0, 15.0};
  cfg.seed = 11;
  const auto curve = generate_mmpp_trace(cfg);
  ASSERT_EQ(curve.qps.size(), 600u);

  // Every sample sits exactly on one of the state levels, and both states
  // are visited on a 600 s horizon with a 60 s mean calm dwell.
  bool calm = false;
  bool storm = false;
  for (double q : curve.qps) {
    ASSERT_TRUE(q == 200.0 || q == 1200.0) << q;
    calm = calm || q == 200.0;
    storm = storm || q == 1200.0;
  }
  EXPECT_TRUE(calm);
  EXPECT_TRUE(storm);
  // Starts in the configured initial state.
  EXPECT_DOUBLE_EQ(curve.qps.front(), 200.0);
}

TEST(Generator, MmppIsDeterministicUnderSeed) {
  MmppConfig cfg;
  cfg.seed = 23;
  const auto a = generate_mmpp_trace(cfg);
  const auto b = generate_mmpp_trace(cfg);
  ASSERT_EQ(a.qps.size(), b.qps.size());
  for (std::size_t i = 0; i < a.qps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.qps[i], b.qps[i]);
  }
  cfg.seed = 24;
  const auto c = generate_mmpp_trace(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.qps.size(); ++i) {
    differs = differs || c.qps[i] != a.qps[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Arrivals, PoissonCountMatchesIntegral) {
  DemandCurve c;
  c.interval_s = 1.0;
  c.qps.assign(200, 50.0);  // 200 s at 50 QPS -> ~10000 arrivals
  ArrivalConfig cfg;
  cfg.seed = 5;
  const auto times = sample_arrivals(c, cfg);
  EXPECT_NEAR(static_cast<double>(times.size()), 10000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GE(times.front(), 0.0);
  EXPECT_LT(times.back(), 200.0);
}

TEST(Arrivals, DeterministicProcessSpacing) {
  DemandCurve c;
  c.interval_s = 1.0;
  c.qps.assign(10, 10.0);
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDeterministic;
  const auto times = sample_arrivals(c, cfg);
  ASSERT_GT(times.size(), 10u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_NEAR(times[i] - times[i - 1], 0.1, 1e-9);
  }
}

TEST(Arrivals, EmptyCurveYieldsNone) {
  DemandCurve c;
  c.interval_s = 1.0;
  c.qps.assign(10, 0.0);
  ArrivalConfig cfg;
  EXPECT_TRUE(sample_arrivals(c, cfg).empty());
}

TEST(Arrivals, StreamMatchesBatch) {
  DemandCurve c;
  c.interval_s = 1.0;
  c.qps.assign(50, 20.0);
  ArrivalConfig cfg;
  cfg.seed = 11;
  const auto batch = sample_arrivals(c, cfg);
  ArrivalStream stream(c, cfg);
  std::vector<double> streamed;
  for (double t = stream.next(); t >= 0.0; t = stream.next()) {
    streamed.push_back(t);
  }
  EXPECT_EQ(batch, streamed);
}

TEST(DemandEstimator, ConstantRateConverges) {
  DemandEstimator est;
  // 100 QPS for 30 s.
  for (int s = 0; s < 30; ++s) {
    for (int i = 0; i < 100; ++i) {
      est.record_arrival(s + i / 100.0);
    }
  }
  EXPECT_NEAR(est.estimate(30.0), 100.0 * kDemandHeadroom, 1e-9);  // 110
}

TEST(DemandEstimator, HeadroomApplied) {
  DemandEstimator est;
  for (int s = 0; s < 20; ++s) {
    for (int i = 0; i < 10; ++i) est.record_arrival(s + i / 10.0);
  }
  EXPECT_NEAR(est.estimate(20.0), 10.0 * kDemandHeadroom, 1e-9);  // 11
}

TEST(DemandEstimator, ReactsInstantlyToRampUp) {
  DemandEstimator est;
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 10; ++i) est.record_arrival(s + i / 10.0);
  }
  // Demand jumps 10 -> 200 for one window; max(ewma, last window) must
  // reflect the jump immediately, not after EWMA convergence (the EWMA
  // alone reads 0.35 * 200 + 0.65 * 10 = 76.5 here).
  for (int i = 0; i < 200; ++i) est.record_arrival(10.0 + i / 200.0);
  EXPECT_NEAR(est.estimate(11.0), 200.0 * kDemandHeadroom, 1e-9);  // 220
}

TEST(DemandEstimator, SmoothOnTheWayDown) {
  DemandEstimator est;
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 100; ++i) est.record_arrival(s + i / 100.0);
  }
  // Demand stops entirely; the estimate should decay by the EWMA's weight
  // per empty window, not drop to zero in one window.
  const double keep = 1.0 - kDemandEwmaAlpha;
  const double just_after = est.estimate(11.0);
  EXPECT_NEAR(just_after, 100.0 * keep * kDemandHeadroom, 1e-9);  // 71.5
  const double later = est.estimate(25.0);  // fifteen empty windows
  EXPECT_NEAR(later, 100.0 * std::pow(keep, 15) * kDemandHeadroom,
              1e-9);  // 0.17
}

}  // namespace
}  // namespace loki::trace
