// Unit suite for the observability registry (src/obs): counter identity,
// log2 histogram bucket-boundary edges, quantile interpolation, lock-free
// snapshot-under-writes (run under ASan/TSan via LOKI_SANITIZE), CSV/JSON
// export schema, and the registry's self-measurement counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "tests/test_support.hpp"

namespace loki::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(ObsCounter, DetachedHandleIsANoOp) {
  Counter c;
  EXPECT_FALSE(c.attached());
  c.add();  // must not crash
  c.add(42);
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, RegistersBumpsAndReads) {
  Registry reg;
  Counter c = reg.counter("test.a");
  EXPECT_TRUE(c.attached());
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(reg.snapshot().counter_value("test.a"), 10u);
}

TEST(ObsCounter, SameNameReturnsSameCell) {
  // This is how shard systems sharing a registry merge into one series.
  Registry reg;
  Counter a = reg.counter("test.shared");
  Counter b = reg.counter("test.shared");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  // Only one row in the snapshot.
  const auto snap = reg.snapshot();
  int rows = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.shared") ++rows;
  }
  EXPECT_EQ(rows, 1);
}

TEST(ObsCounter, HandlesStayValidAsRegistryGrows) {
  // Cells live in a deque: registering hundreds more names must not move
  // the first cell out from under its handle.
  Registry reg;
  Counter first = reg.counter("test.first");
  first.add(1);
  std::vector<Counter> more;
  for (int i = 0; i < 500; ++i) {
    more.push_back(reg.counter("test.n" + std::to_string(i)));
  }
  first.add(1);
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(reg.snapshot().counter_value("test.first"), 2u);
}

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaryEdges) {
  // bucket 0 = [0, 2), bucket i = [2^i, 2^(i+1)), bucket 63 = [2^63, inf).
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 0);
  EXPECT_EQ(histogram_bucket(2), 1);
  EXPECT_EQ(histogram_bucket(3), 1);
  EXPECT_EQ(histogram_bucket(4), 2);
  for (int i = 2; i < 63; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << i;
    EXPECT_EQ(histogram_bucket(lo - 1), i - 1) << "below edge of bucket " << i;
    EXPECT_EQ(histogram_bucket(lo), i) << "lower edge of bucket " << i;
    EXPECT_EQ(histogram_bucket(2 * lo - 1), i) << "upper edge of bucket " << i;
  }
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<std::uint64_t>::max()), 63);
}

TEST(ObsHistogram, BucketEdgesRoundTrip) {
  for (int b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(histogram_bucket(histogram_bucket_lo(b)), b);
    EXPECT_LT(histogram_bucket_lo(b), histogram_bucket_hi(b));
  }
  EXPECT_EQ(histogram_bucket_lo(0), 0u);
  EXPECT_EQ(histogram_bucket_hi(0), 2u);
  EXPECT_EQ(histogram_bucket_lo(10), 1024u);
  EXPECT_EQ(histogram_bucket_hi(63), std::numeric_limits<std::uint64_t>::max());
}

TEST(ObsHistogram, AddPlacesValuesInExpectedBuckets) {
  Registry reg;
  Histogram h = reg.histogram("test.h");
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(1023);
  h.add(1024);
  const auto snap = reg.snapshot();
  const HistogramStats* s = snap.find_histogram("test.h");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->sum, 0u + 1u + 2u + 1023u + 1024u);
  EXPECT_EQ(s->bucket[0], 2u);   // 0, 1
  EXPECT_EQ(s->bucket[1], 1u);   // 2
  EXPECT_EQ(s->bucket[9], 1u);   // 1023
  EXPECT_EQ(s->bucket[10], 1u);  // 1024
}

TEST(ObsHistogram, QuantileInterpolatesWithinBucket) {
  Registry reg;
  Histogram h = reg.histogram("test.q");
  // 100 values all in bucket 10 ([1024, 2048)).
  for (int i = 0; i < 100; ++i) h.add(1500);
  const auto snap = reg.snapshot();
  const HistogramStats* s = snap.find_histogram("test.q");
  ASSERT_NE(s, nullptr);
  // Every quantile lands inside the containing bucket (<= one octave error).
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double est = s->quantile(q);
    EXPECT_GE(est, 1024.0) << "q=" << q;
    EXPECT_LE(est, 2048.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s->mean(), 1500.0);
}

TEST(ObsHistogram, QuantileOrdersAcrossBuckets) {
  Registry reg;
  Histogram h = reg.histogram("test.q2");
  for (int i = 0; i < 90; ++i) h.add(100);     // bucket 6
  for (int i = 0; i < 10; ++i) h.add(100000);  // bucket 16
  const auto snap = reg.snapshot();
  const HistogramStats* s = snap.find_histogram("test.q2");
  ASSERT_NE(s, nullptr);
  const double p50 = s->quantile(0.5);
  const double p99 = s->quantile(0.99);
  EXPECT_LT(p50, 128.0);      // inside bucket 6
  EXPECT_GE(p99, 65536.0);    // inside bucket 16
  EXPECT_LT(p99, 131072.0);
  EXPECT_LT(p50, p99);
}

TEST(ObsHistogram, EmptyHistogramIsWellDefined) {
  Registry reg;
  (void)reg.histogram("test.empty");
  const auto snap = reg.snapshot();
  const HistogramStats* s = snap.find_histogram("test.empty");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 0u);
  EXPECT_DOUBLE_EQ(s->mean(), 0.0);
  EXPECT_DOUBLE_EQ(s->quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Snapshot under concurrent writes
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SnapshotUnderConcurrentWritesIsSane) {
  // Writers keep bumping while a reader snapshots repeatedly. The sanitizer
  // configuration (LOKI_SANITIZE) checks for races; here we assert the
  // monotonic-read property: successive snapshots of a monotonic counter
  // never go backwards, and the final value is exact once writers join.
  Registry reg;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  // Pre-register so the reader's first snapshot already sees both series.
  (void)reg.counter("test.concurrent");
  (void)reg.histogram("test.concurrent_h");

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg]() {
      Counter c = reg.counter("test.concurrent");
      Histogram h = reg.histogram("test.concurrent_h");
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.add(1);
        h.add(i & 0xFFF);
      }
    });
  }

  std::uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    const std::uint64_t cur = snap.counter_value("test.concurrent");
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  for (auto& t : writers) t.join();

  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_value("test.concurrent"),
            kWriters * kPerWriter);
  const HistogramStats* s = final_snap.find_histogram("test.concurrent_h");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, kWriters * kPerWriter);
  std::uint64_t bucket_total = 0;
  for (const auto b : s->bucket) bucket_total += b;
  EXPECT_EQ(bucket_total, s->count);
}

TEST(ObsRegistry, ConcurrentRegistrationIsSafe) {
  // Registration takes the mutex; hammer it from several threads with a mix
  // of new and already-known names and check every handle works.
  Registry reg;
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&reg, t]() {
      for (int i = 0; i < 200; ++i) {
        Counter mine = reg.counter("test.reg" + std::to_string(i % 50));
        mine.add(1);
        Histogram h = reg.histogram("test.regh" + std::to_string(t));
        h.add(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto snap = reg.snapshot();
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("test.reg", 0) == 0) total += value;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * 200);
}

// ---------------------------------------------------------------------------
// Export schema + self-measurement
// ---------------------------------------------------------------------------

TEST(ObsSnapshot, CsvSchema) {
  Registry reg;
  reg.counter("test.c").add(7);
  reg.histogram("test.h").add(1500);
  const auto snap = reg.snapshot();
  const std::string csv = snap.to_csv();

  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "kind,name,value,count,mean,p50,p90,p99");
  bool saw_counter = false, saw_hist = false;
  while (std::getline(in, line)) {
    if (line.rfind("counter,test.c,7,", 0) == 0) saw_counter = true;
    if (line.rfind("histogram,test.h,1500,1,1500", 0) == 0) saw_hist = true;
  }
  EXPECT_TRUE(saw_counter) << csv;
  EXPECT_TRUE(saw_hist) << csv;
}

TEST(ObsSnapshot, WriteCsvRoundTrips) {
  test::TempDir tmp("loki_obs");
  Registry reg;
  reg.counter("test.c").add(3);
  const auto snap = reg.snapshot();
  const std::string path = tmp.file("snap.csv");
  snap.write_csv(path);
  const std::string content = test::read_file(path);
  EXPECT_EQ(content, snap.to_csv());
}

TEST(ObsRegistry, SnapshotSelfMeasures) {
  Registry reg;
  reg.counter("test.c").add(1);
  // The cost of snapshot k is recorded after its copy, so it is visible
  // from snapshot k+1 on.
  const auto first = reg.snapshot();
  EXPECT_EQ(first.counter_value("obs.self.snapshots"), 0u);
  const auto second = reg.snapshot();
  EXPECT_EQ(second.counter_value("obs.self.snapshots"), 1u);
  const auto third = reg.snapshot();
  EXPECT_EQ(third.counter_value("obs.self.snapshots"), 2u);
  EXPECT_GT(third.counter_value("obs.self.snapshot_ns"), 0u);
}

TEST(ObsRegistry, GlobalIsAStableSingleton) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace loki::obs
