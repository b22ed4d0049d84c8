// Metrics pipeline tests: outcome accounting, violation arithmetic, window
// rolling, and utilization series.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "serving/metrics.hpp"

namespace loki::serving {
namespace {

TEST(Metrics, CountsOutcomesCorrectly) {
  Metrics m(10.0);
  m.record_arrival(1.0);
  m.record_outcome(1.1, QueryOutcome::kOnTime, 0.95, 0.1);
  m.record_arrival(2.0);
  m.record_outcome(2.4, QueryOutcome::kLate, 0.90, 0.4);
  m.record_arrival(3.0);
  m.record_outcome(3.0, QueryOutcome::kDropped, 0.0, 0.0);
  m.record_arrival(4.0);
  m.record_outcome(4.0, QueryOutcome::kShed, 0.0, 0.0);

  EXPECT_EQ(m.arrivals(), 4u);
  EXPECT_EQ(m.completions(), 2u);
  EXPECT_EQ(m.violations(), 3u);  // late + dropped + shed
  EXPECT_EQ(m.drops(), 2u);
  EXPECT_EQ(m.shed(), 1u);
  EXPECT_EQ(m.late(), 1u);
  EXPECT_DOUBLE_EQ(m.slo_violation_ratio(), 3.0 / 4.0);
  EXPECT_NEAR(m.mean_accuracy(), 0.925, 1e-12);  // served queries only
  EXPECT_NEAR(m.mean_latency_s(), 0.25, 1e-12);
}

TEST(Metrics, EmptyIsZero) {
  Metrics m;
  EXPECT_EQ(m.arrivals(), 0u);
  EXPECT_DOUBLE_EQ(m.slo_violation_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_accuracy(), 0.0);
}

TEST(Metrics, WindowsRollAtBoundaries) {
  Metrics m(5.0);
  // Window [0,5): 10 arrivals -> 2 QPS.
  for (int i = 0; i < 10; ++i) m.record_arrival(0.2 + i * 0.4);
  // Window [5,10): 5 arrivals -> 1 QPS.
  for (int i = 0; i < 5; ++i) m.record_arrival(5.5 + i * 0.5);
  m.flush(10.0);
  const auto& demand = m.demand_series().points();
  ASSERT_GE(demand.size(), 2u);
  EXPECT_DOUBLE_EQ(demand[0].t, 2.5);
  EXPECT_DOUBLE_EQ(demand[0].v, 2.0);
  EXPECT_DOUBLE_EQ(demand[1].v, 1.0);
}

TEST(Metrics, ViolationSeriesPerWindow) {
  Metrics m(10.0);
  // First window: 1 of 2 violates; second window: 0 of 1.
  m.record_arrival(1.0);
  m.record_outcome(1.5, QueryOutcome::kOnTime, 1.0, 0.1);
  m.record_arrival(2.0);
  m.record_outcome(2.5, QueryOutcome::kDropped, 0.0, 0.0);
  m.record_arrival(12.0);
  m.record_outcome(12.5, QueryOutcome::kOnTime, 1.0, 0.1);
  m.flush(20.0);
  const auto& v = m.violation_series().points();
  ASSERT_GE(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0].v, 0.5);
  EXPECT_DOUBLE_EQ(v[1].v, 0.0);
}

TEST(Metrics, AccuracySeriesCarriesForwardWhenIdle) {
  Metrics m(10.0);
  m.record_arrival(1.0);
  m.record_outcome(1.5, QueryOutcome::kOnTime, 0.9, 0.1);
  // Nothing in window 2.
  m.record_arrival(25.0);
  m.record_outcome(25.5, QueryOutcome::kOnTime, 0.8, 0.1);
  m.flush(30.0);
  const auto& a = m.accuracy_series().points();
  ASSERT_GE(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].v, 0.9);
  EXPECT_DOUBLE_EQ(a[1].v, 0.9);  // repeats previous when idle
  EXPECT_DOUBLE_EQ(a[2].v, 0.8);
}

TEST(Metrics, UtilizationSeries) {
  Metrics m(10.0);
  m.record_utilization(1.0, 10, 20);
  m.record_utilization(2.0, 15, 20);
  EXPECT_DOUBLE_EQ(m.mean_servers_used(), 12.5);
  const auto& u = m.utilization_series().points();
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0].v, 0.5);
  EXPECT_DOUBLE_EQ(u[1].v, 0.75);
}

TEST(Metrics, LatencyPercentiles) {
  Metrics m;
  for (int i = 1; i <= 100; ++i) {
    m.record_arrival(static_cast<double>(i));
    m.record_outcome(static_cast<double>(i), QueryOutcome::kOnTime, 1.0,
                     static_cast<double>(i) * 1e-3);
  }
  EXPECT_NEAR(m.p99_latency_s(), 0.099, 1e-3);
}

TEST(Metrics, MergeAveragesRatioSeriesOverEveryShard) {
  // Four shards, one window each: only the last shard's query violates, so
  // the window's violation ratios are 0, 0, 0, 1 and their mean is 0.25
  // (pairwise averaging gave the last shard weight 1/2: 0.5).
  std::vector<Metrics> shards;
  for (int s = 0; s < 4; ++s) {
    Metrics m(10.0);
    m.record_arrival(1.0);
    const bool violates = s == 3;
    m.record_outcome(1.5,
                     violates ? QueryOutcome::kDropped : QueryOutcome::kOnTime,
                     violates ? 0.0 : 1.0, 0.1);
    m.record_utilization(2.0, s, 4);
    m.flush(10.0);
    shards.push_back(m);
  }
  Metrics merged = shards[0];
  for (int s = 1; s < 4; ++s) merged.merge(shards[s]);
  const auto& v = merged.violation_series().points();
  ASSERT_EQ(v.size(), shards[0].violation_series().size());
  EXPECT_DOUBLE_EQ(v[0].v, 0.25);
  // Utilizations 0, 1/4, 2/4, 3/4 average to 3/8; server counts sum.
  ASSERT_EQ(merged.utilization_series().size(), 1u);
  EXPECT_DOUBLE_EQ(merged.utilization_series().points()[0].v, 0.375);
  EXPECT_DOUBLE_EQ(merged.servers_series().points()[0].v, 6.0);

  // Folding one two-shard merge into another gives the same four-way mean.
  Metrics left = shards[0];
  left.merge(shards[1]);
  Metrics right = shards[2];
  right.merge(shards[3]);
  left.merge(right);
  EXPECT_DOUBLE_EQ(left.violation_series().points()[0].v, 0.25);
}

TEST(Metrics, MergeOfMergesHasTheFlatMergeLatencyBits) {
  // Four shards whose latency samples straddle the tracker's block size,
  // merged flat by copy, flat by move, and as a merge of two merges (the
  // shape above). Every sample reaches the result in shard order, so the
  // mean has the bits of one insertion-order sum each way.
  const std::size_t b = PercentileTracker::kBlockSize;
  std::vector<Metrics> shards;
  double sum = 0.0;
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    Metrics m(10.0);
    for (std::size_t i = 0; i < b - 3 + 5 * s; ++i, ++n) {
      const double t = 1.0 + static_cast<double>(i) * 1e-4;
      const double latency = 1e-3 * static_cast<double>((i * 7919 + s) % 1000);
      m.record_arrival(t);
      m.record_outcome(t, QueryOutcome::kOnTime, 1.0, latency);
      sum += latency;
    }
    m.flush(10.0);
    shards.push_back(m);
  }
  Metrics copied = shards[0];
  for (std::size_t s = 1; s < 4; ++s) copied.merge(shards[s]);
  Metrics left = shards[0];
  left.merge(shards[1]);
  Metrics right = shards[2];
  right.merge(shards[3]);
  left.merge(std::move(right));
  std::vector<Metrics> moved_shards = shards;
  Metrics moved = std::move(moved_shards[0]);
  for (std::size_t s = 1; s < 4; ++s) moved.merge(std::move(moved_shards[s]));

  for (const Metrics* m : {&copied, &left, &moved}) {
    EXPECT_EQ(m->latency().count(), n);
    EXPECT_EQ(m->completions(), n);
    EXPECT_EQ(m->mean_latency_s(), sum / static_cast<double>(n));
    EXPECT_EQ(m->p99_latency_s(), copied.p99_latency_s());
  }
  // The lvalue sources were copied, not emptied.
  EXPECT_EQ(shards[3].latency().count(), b - 3 + 15);
}

TEST(Metrics, MergePoolsRatioSeriesFromWindowSums) {
  // Unequal load in one window. Shard A: 3 on-time queries at accuracy 0.9,
  // 2 of 4 servers in use. Shard B: 1 on-time query at 0.5, 1 dropped, 0 of
  // 12 servers. The merged ratios pool the shards' sums; a mean of the two
  // shards' ratios would give 0.25, 0.7 and 0.25.
  Metrics a(10.0), b(10.0);
  for (int i = 0; i < 3; ++i) {
    a.record_arrival(1.0);
    a.record_outcome(1.5, QueryOutcome::kOnTime, 0.9, 0.1);
  }
  a.record_utilization(2.0, 2, 4);
  b.record_arrival(1.0);
  b.record_outcome(1.5, QueryOutcome::kOnTime, 0.5, 0.1);
  b.record_arrival(1.0);
  b.record_outcome(1.5, QueryOutcome::kDropped, 0.0, 0.0);
  b.record_utilization(2.0, 0, 12);
  a.flush(9.0);
  b.flush(9.0);
  a.merge(b);

  ASSERT_EQ(a.violation_series().size(), 1u);
  EXPECT_DOUBLE_EQ(a.violation_series().points()[0].v, 0.2);
  ASSERT_EQ(a.accuracy_series().size(), 1u);
  EXPECT_DOUBLE_EQ(a.accuracy_series().points()[0].v, 0.8);
  ASSERT_EQ(a.utilization_series().size(), 1u);
  EXPECT_DOUBLE_EQ(a.utilization_series().points()[0].v, 0.125);
  ASSERT_EQ(a.demand_series().size(), 1u);
  EXPECT_DOUBLE_EQ(a.demand_series().points()[0].v, 0.5);
  EXPECT_DOUBLE_EQ(a.mean_servers_used(), 2.0);
}

TEST(Metrics, MergedTotalsAreTierSums) {
  // Every outcome and loss cause on some tier of one shard or the other.
  Metrics a(10.0), b(10.0);
  a.record_arrival(1.0, 0);
  a.record_outcome(1.1, QueryOutcome::kOnTime, 1.0, 0.1, LossCause::kCapacity,
                   0);
  a.record_arrival(1.0, 1);
  a.record_outcome(1.2, QueryOutcome::kShed, 0.0, 0.0,
                   LossCause::kWorkerFailure, 1);
  a.record_arrival(1.0, 2);
  a.record_outcome(1.3, QueryOutcome::kDropped, 0.0, 0.2,
                   LossCause::kWorkerFailure, 2);
  b.record_arrival(1.0, 0);
  b.record_outcome(1.4, QueryOutcome::kLate, 0.9, 0.4, LossCause::kCapacity,
                   0);
  b.record_arrival(1.0, 1);
  b.record_outcome(1.5, QueryOutcome::kShed, 0.0, 0.0,
                   LossCause::kDegradedOverload, 1);
  b.record_arrival(1.0, 2);
  b.record_outcome(1.6, QueryOutcome::kShed, 0.0, 0.0, LossCause::kCapacity,
                   2);
  b.record_arrival(1.0, 2);
  b.record_outcome(1.7, QueryOutcome::kDropped, 0.0, 0.2, LossCause::kCapacity,
                   2);
  a.flush(9.0);
  b.flush(9.0);
  a.merge(b);

  const auto sum = [&a](std::uint64_t TierCounts::*field) {
    std::uint64_t n = 0;
    for (const TierCounts& tc : a.tiers()) n += tc.*field;
    return n;
  };
  EXPECT_EQ(a.arrivals(), 7u);
  EXPECT_EQ(a.arrivals(), sum(&TierCounts::arrivals));
  EXPECT_EQ(a.completions(), 2u);
  EXPECT_EQ(a.completions(), sum(&TierCounts::completions));
  EXPECT_EQ(a.late(), 1u);
  EXPECT_EQ(a.late(), sum(&TierCounts::late));
  EXPECT_EQ(a.drops(), 5u);
  EXPECT_EQ(a.drops(), sum(&TierCounts::drops));
  EXPECT_EQ(a.shed(), 3u);
  EXPECT_EQ(a.shed(), sum(&TierCounts::shed));
  EXPECT_EQ(a.shed_by_failure(), 1u);
  EXPECT_EQ(a.shed_by_failure(), sum(&TierCounts::shed_failure));
  EXPECT_EQ(a.shed_by_degraded(), 1u);
  EXPECT_EQ(a.shed_by_degraded(), sum(&TierCounts::shed_degraded));
  EXPECT_EQ(a.drops_by_failure(), 1u);
  EXPECT_EQ(a.drops_by_failure(), sum(&TierCounts::drops_failure));
  EXPECT_EQ(a.violations(), 6u);
  EXPECT_EQ(a.tier(1).shed_degraded, 1u);
  EXPECT_EQ(a.tier(2).drops_failure, 1u);
  EXPECT_DOUBLE_EQ(a.slo_violation_ratio(), 6.0 / 7.0);
}

}  // namespace
}  // namespace loki::serving
