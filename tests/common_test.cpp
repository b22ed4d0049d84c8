// Unit tests for the common substrate: RNG, statistics, EWMA, CSV, flags,
// the fork-join team, and the check macros.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/ewma.hpp"
#include "common/flags.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/small_function.hpp"
#include "common/stats.hpp"
#include "common/team.hpp"
#include "tests/test_support.hpp"

namespace loki {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NamedStreamsAreIndependentAndStable) {
  Rng base(7);
  Rng s1 = base.stream("alpha");
  Rng s2 = base.stream("beta");
  Rng s1again = base.stream("alpha");
  EXPECT_EQ(s1.next(), s1again.next());
  EXPECT_NE(s1.next(), s2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(r.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng r(23);
  RunningStats small, large;
  for (int i = 0; i < 50000; ++i) {
    small.add(static_cast<double>(r.poisson(2.1)));
    large.add(static_cast<double>(r.poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 2.1, 0.05);
  EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng r(29);
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(31);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, LognormalMeanMatches) {
  Rng r(37);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(r.lognormal_mean(5.0, 0.4));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------------------
// RunningStats / PercentileTracker / TimeSeries
// ---------------------------------------------------------------------------

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  double var = 0.0;
  for (double x : xs) var += (x - s.mean()) * (x - s.mean());
  EXPECT_NEAR(s.variance(), var / 5.0, 1e-12);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng r(43);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(0.0, 1.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTracker, ExactQuantiles) {
  PercentileTracker p;
  for (int i = 100; i >= 1; --i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.p50(), 50.5, 1e-9);
  EXPECT_NEAR(p.quantile(0.25), 25.75, 1e-9);
}

TEST(PercentileTracker, MergeAndInterleavedAdd) {
  PercentileTracker a, b;
  for (int i = 0; i < 50; ++i) a.add(i);
  for (int i = 50; i < 100; ++i) b.add(i);
  EXPECT_NEAR(a.p50(), 24.5, 1e-9);  // query, then mutate, then query again
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.p50(), 49.5, 1e-9);
}

TEST(PercentileTracker, MeanDoesNotDependOnAQuantileQuery) {
  // Regression: mean() used to sum the samples in their stored order, which
  // a quantile query rearranges, so the same tracker reported two means a
  // few ULP apart. It must sum in insertion order, merged trackers included.
  Rng rng(11);
  PercentileTracker a, b, merged;
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.exponential(10.0);
    (i < 600000 ? a : b).add(x);
  }
  merged.merge(a);
  merged.merge(b);
  const double before = merged.mean();
  EXPECT_GT(merged.quantile(0.99), merged.quantile(0.5));
  EXPECT_EQ(merged.mean(), before);  // bit-identical, not merely close
  const double a_before = a.mean();
  a.quantile(0.99);
  EXPECT_EQ(a.mean(), a_before);
}

TEST(PercentileTracker, SelectionMatchesSortedInterpolation) {
  // quantile() selects its two order statistics; the reference sorts every
  // sample and interpolates. Small sets repeat values (ties); the large one
  // has distinct values, so the upper neighbour is not found by luck. Each
  // query runs on the order the previous one left behind.
  Rng rng(5);
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{10}, std::size_t{1001},
                              std::size_t{100000}, kB - 1, kB, kB + 1}) {
    PercentileTracker p;
    std::vector<double> sorted;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      const double x = n > 1001u ? u : std::floor(u * 20.0) / 4.0;
      p.add(x);
      sorted.push_back(x);
    }
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double pos = q * static_cast<double>(n - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, n - 1);
      const double frac = pos - static_cast<double>(lo);
      const double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      EXPECT_EQ(p.quantile(q), want) << "n=" << n << " q=" << q;
    }
  }
}

// Sorted-interpolation reference for PercentileTracker::quantile, and the
// insertion-order sum behind its mean(), over the samples a tracker was fed.
void expect_tracker_matches(const PercentileTracker& p,
                            const std::vector<double>& fed) {
  ASSERT_EQ(p.count(), fed.size());
  double sum = 0.0;
  for (const double x : fed) sum += x;
  const double mean = fed.empty() ? 0.0 : sum / static_cast<double>(fed.size());
  EXPECT_EQ(p.mean(), mean);  // bit-identical, not merely close
  std::vector<double> sorted = fed;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    double want = 0.0;
    if (!sorted.empty()) {
      const double pos = q * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }
    EXPECT_EQ(p.quantile(q), want) << "n=" << fed.size() << " q=" << q;
  }
  EXPECT_EQ(p.mean(), mean);  // the queries did not move it
}

// Feeds n exponential samples to `p` and records them in `fed`.
void feed(Rng& rng, std::size_t n, PercentileTracker& p,
          std::vector<double>& fed) {
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.exponential(10.0);
    p.add(x);
    fed.push_back(x);
  }
}

TEST(PercentileTracker, SizesAroundTheBlockSize) {
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  Rng rng(17);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kB - 1, kB,
                              kB + 1, 3 * kB + 7}) {
    PercentileTracker p;
    std::vector<double> fed;
    feed(rng, n, p, fed);
    expect_tracker_matches(p, fed);
  }
}

TEST(PercentileTracker, MergeShapesMatchTheConcatenatedSamples) {
  // {destination size, source size}. A merge leaves the destination's
  // part-filled last block mid-list; the first query closes the gap.
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {0, 0},                   // empty into empty
      {0, kB / 2},              // part-filled into empty
      {kB / 2, 0},              // empty into part-filled
      {kB / 2 + 3, kB / 2 + 5}, // part-filled into part-filled, past a block
      {kB + 100, kB},           // full into part-filled
      {2 * kB + 1, 3 * kB + 7}, // several blocks each side
  };
  Rng rng(23);
  for (const auto& [dst_n, src_n] : shapes) {
    SCOPED_TRACE(testing::Message() << dst_n << " <- " << src_n);
    PercentileTracker dst, src;
    std::vector<double> fed, src_fed;
    feed(rng, dst_n, dst, fed);
    feed(rng, src_n, src, src_fed);
    dst.merge(std::move(src));
    fed.insert(fed.end(), src_fed.begin(), src_fed.end());
    expect_tracker_matches(dst, fed);
    // A queried destination takes further samples and merges.
    feed(rng, 11, dst, fed);
    PercentileTracker more;
    std::vector<double> more_fed;
    feed(rng, kB / 3, more, more_fed);
    dst.merge(std::move(more));
    fed.insert(fed.end(), more_fed.begin(), more_fed.end());
    expect_tracker_matches(dst, fed);
  }
}

TEST(PercentileTracker, MergeOfMergesHasTheFlatMergeMeanBits) {
  // Shard-shaped parts around the block size, merged flat (0 <- 1, 2, 3 in
  // turn) and as a merge of two merges ((0 <- 1) <- (2 <- 3)).
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  Rng rng(29);
  std::vector<PercentileTracker> parts(4);
  std::vector<double> fed;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    feed(rng, kB - 5 + 7 * s, parts[s], fed);
  }
  PercentileTracker flat = parts[0];
  for (std::size_t s = 1; s < parts.size(); ++s) flat.merge(parts[s]);
  PercentileTracker left = parts[0];
  left.merge(parts[1]);
  PercentileTracker right = parts[2];
  right.merge(parts[3]);
  left.merge(std::move(right));
  EXPECT_EQ(left.mean(), flat.mean());
  expect_tracker_matches(left, fed);
  expect_tracker_matches(flat, fed);
}

TEST(PercentileTracker, CopyIsIndependentOfItsOriginal) {
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  Rng rng(31);
  PercentileTracker original;
  std::vector<double> fed;
  feed(rng, 3 * kB + 7, original, fed);
  PercentileTracker copy = original;
  PercentileTracker assigned;
  assigned = original;
  EXPECT_GT(copy.p99(), copy.p50());
  EXPECT_GT(assigned.p99(), assigned.p50());
  // The queries reordered the copies only: the original is still a merge
  // source whose samples sum in insertion order.
  PercentileTracker merged;
  merged.merge(original);
  expect_tracker_matches(merged, fed);
  expect_tracker_matches(copy, fed);
}

TEST(PercentileTracker, MovedFromTrackerCountsZeroAndIsReusable) {
  // A defaulted move would hand over the blocks but copy the count, the
  // sum and the queried mark.
  constexpr std::size_t kB = PercentileTracker::kBlockSize;
  Rng rng(37);
  PercentileTracker dst, x;
  std::vector<double> fed, x_fed;
  feed(rng, 5, dst, fed);
  feed(rng, kB + 3, x, x_fed);
  dst.merge(std::move(x));
  fed.insert(fed.end(), x_fed.begin(), x_fed.end());
  EXPECT_EQ(x.count(), 0u);
  EXPECT_EQ(x.mean(), 0.0);
  EXPECT_EQ(x.quantile(0.5), 0.0);
  std::vector<double> reused;
  feed(rng, 3, x, reused);
  expect_tracker_matches(x, reused);
  expect_tracker_matches(dst, fed);

  // Moving a queried tracker clears its mark along with its samples.
  PercentileTracker moved_to = std::move(x);
  expect_tracker_matches(moved_to, reused);
  EXPECT_EQ(x.count(), 0u);
  x.add(1.0);
  PercentileTracker y;
  EXPECT_NO_THROW(y.merge(std::move(x)));
  EXPECT_EQ(y.count(), 1u);
}

TEST(PercentileTracker, MergeRejectsAQueriedSource) {
  // merge() sums the source's samples in stored order, which a query
  // rearranges, so merging a queried source would move the merged mean's
  // bits. The check states the rule: merge first, then query.
  Rng rng(11);
  PercentileTracker a, b;
  for (int i = 0; i < 1000; ++i) (i < 600 ? a : b).add(rng.exponential(10.0));
  b.quantile(0.99);
  try {
    a.merge(b);
    ADD_FAILURE() << "merging a queried tracker did not throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("before querying"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(a.count(), 600u);
  // Querying the destination stays allowed.
  PercentileTracker c;
  c.add(1.0);
  a.quantile(0.5);
  EXPECT_NO_THROW(a.merge(std::move(c)));
  EXPECT_EQ(a.count(), 601u);
}

// ---------------------------------------------------------------------------
// Ewma
// ---------------------------------------------------------------------------

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.5);
  for (int i = 0; i < 64; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.initialized());
  e.add(42.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, StepResponse) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(100.0);
  EXPECT_DOUBLE_EQ(e.value(), 50.0);
}

// ---------------------------------------------------------------------------
// CsvTable
// ---------------------------------------------------------------------------

TEST(CsvTable, FormatsTypesAndEscapes) {
  CsvTable t({"name", "value", "count"});
  t.add_row({std::string("plain"), 1.5, std::int64_t{7}});
  t.add_row({std::string("with,comma"), 2.0, std::int64_t{8}});
  t.add_row({std::string("with\"quote"), 3.0, std::int64_t{9}});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name,value,count\n"), std::string::npos);
  EXPECT_NE(s.find("plain,1.5,7"), std::string::npos);
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(CsvTable, RejectsWrongWidth) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), CheckFailure);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",  "--qps=100", "--name",  "loki",
                        "positional", "--ratio", "0.5", "--verbose"};
  Flags f(8, argv);
  EXPECT_DOUBLE_EQ(f.get_double("qps", 0.0), 100.0);
  EXPECT_EQ(f.get_string("name", ""), "loki");
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
  EXPECT_EQ(f.get_int("missing", 42), 42);
}

TEST(Flags, RejectsBadNumbers) {
  const char* argv[] = {"prog", "--qps=abc"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_double("qps", 0.0), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Team
// ---------------------------------------------------------------------------

TEST(Team, RunsEveryIndexOnceForEverySizeAndCount) {
  // Teams of one to eight members over index counts below, at and above the
  // team size (and zero), back to back on one team, growing and shrinking.
  // Each index reads what the caller wrote before the run and writes its own
  // slot, which the caller reads after it: plain memory, so a missing
  // happens-before edge or a doubly run index shows under TSan. Every fifth
  // run sleeps in each index, so a caller that returned before the last
  // index finished would read a stale slot.
  for (const std::size_t members : {1, 2, 3, 8}) {
    Team team(members);
    EXPECT_EQ(team.size(), members);
    std::vector<int> in, out;
    int round = 0;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, members - 1, members, members + 1,
          3 * members + 2, std::size_t{2}, std::size_t{100}, members}) {
      for (int rep = 0; rep < 20; ++rep, ++round) {
        in.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          in[i] = round * 1000 + static_cast<int>(i);
        }
        out.assign(n, -1);
        const bool slow = rep % 5 == 0;
        team.run(n, [&](std::size_t i) {
          if (slow) std::this_thread::sleep_for(std::chrono::microseconds(50));
          out[i] = in[i] + 1;
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], in[i] + 1)
              << members << " members, n " << n << ", index " << i;
        }
      }
    }
  }
}

TEST(Team, RethrowsLowestIndexAfterEveryIndexRan) {
  for (const std::size_t members : {1, 2, 3, 8}) {
    Team team(members);
    for (int rep = 0; rep < 10; ++rep) {
      std::vector<char> ran(9, 0);
      try {
        team.run(9, [&](std::size_t i) {
          ran[i] = 1;
          if (i == 2 || i == 5 || i == 8) {
            throw std::runtime_error("index " + std::to_string(i));
          }
        });
        ADD_FAILURE() << "the failure did not propagate";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 2") << members << " members";
      }
      EXPECT_EQ(ran, std::vector<char>(9, 1)) << members << " members";
      // A failed run leaves no error behind for the next one.
      std::vector<char> again(9, 0);
      team.run(9, [&](std::size_t i) { again[i] = 1; });
      EXPECT_EQ(again, std::vector<char>(9, 1)) << members << " members";
    }
  }
}

TEST(Team, OneIndexRunsOnTheCaller) {
  // Back to back, while the helpers still spin from the run before: a
  // helper that took the index would show as another thread's id.
  for (const std::size_t members : {1, 2, 3, 8}) {
    Team team(members);
    team.run(members, [](std::size_t) {});  // helpers start with a run
    for (int rep = 0; rep < 100; ++rep) {
      std::thread::id ran;
      team.run(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
      ASSERT_EQ(ran, std::this_thread::get_id())
          << members << " members, run " << rep;
    }
  }
}

TEST(Team, HelpersOnTheCallersCpuDoNotStallIt) {
  // The whole team on one CPU: a run wakes the helpers, which blocked during
  // the idle gap before it, onto the caller's CPU, and a helper that spun
  // there without yielding would hold the caller off it for the whole 1 ms
  // spin budget once the trivial indices were done.
  if (test::built_with_sanitizers()) {
    GTEST_SKIP() << "a timing bound; sanitizers slow every pause and yield";
  }
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  std::vector<double> run_us;
  {
    Team team(4);  // helpers inherit the mask when the first run starts them
    std::vector<std::size_t> out(6);
    for (int rep = 0; rep < 21; ++rep) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const auto t0 = std::chrono::steady_clock::now();
      team.run(out.size(), [&](std::size_t i) { out[i] = i; });
      run_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  std::nth_element(run_us.begin(), run_us.begin() + 10, run_us.end());
  EXPECT_LT(run_us[10], 250.0) << "median run, microseconds";
}

// ---------------------------------------------------------------------------
// Check macros
// ---------------------------------------------------------------------------

TEST(Check, ThrowsWithMessage) {
  try {
    LOKI_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassesQuietly) {
  EXPECT_NO_THROW(LOKI_CHECK(2 + 2 == 4));
}

// ---------------------------------------------------------------------------
// SlabPool / HandlePool / RingBuffer (data-plane allocators)
// ---------------------------------------------------------------------------

TEST(SlabPool, RecyclesSlotsThroughFreeList) {
  SlabPool<int> pool(4);
  const auto a = pool.emplace(10);
  const auto b = pool.emplace(20);
  EXPECT_EQ(pool.at(a), 10);
  EXPECT_EQ(pool.at(b), 20);
  EXPECT_EQ(pool.size(), 2u);
  pool.erase(a);
  EXPECT_EQ(pool.size(), 1u);
  // The freed slot is reused before any fresh slot is minted.
  const auto c = pool.emplace(30);
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.at(c), 30);
  EXPECT_EQ(pool.slots(), 2u);
}

TEST(SlabPool, PointersStayStableAcrossSlabGrowth) {
  SlabPool<int> pool(/*slab_capacity=*/4);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 100; ++i) slots.push_back(pool.emplace(i));
  int* first = &pool.at(slots[0]);
  for (int i = 100; i < 1000; ++i) slots.push_back(pool.emplace(i));
  EXPECT_EQ(first, &pool.at(slots[0]));  // slabs never move
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(pool.at(slots[static_cast<std::size_t>(i)]), i);
  }
}

TEST(SlabPool, DestroysLiveObjectsOnClear) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    ~Tracked() { --live; }
  };
  SlabPool<Tracked> pool(8);
  const auto a = pool.emplace();
  pool.emplace();
  pool.emplace();
  EXPECT_EQ(live, 3);
  pool.erase(a);
  EXPECT_EQ(live, 2);
  pool.clear();
  EXPECT_EQ(live, 0);
}

TEST(HandlePool, StaleHandlesResolveToNull) {
  HandlePool<int> pool(8);
  const auto h = pool.emplace(7);
  ASSERT_NE(pool.find(h), nullptr);
  EXPECT_EQ(*pool.find(h), 7);
  pool.erase(h);
  EXPECT_EQ(pool.find(h), nullptr);  // generation bumped
  // The recycled slot gets a distinct handle; the old one stays dead.
  const auto h2 = pool.emplace(8);
  EXPECT_NE(h2, h);
  EXPECT_EQ(pool.find(h), nullptr);
  EXPECT_EQ(*pool.find(h2), 8);
}

TEST(HandlePool, InvalidAndZeroHandlesAreNull) {
  HandlePool<int> pool(8);
  EXPECT_EQ(pool.find(HandlePool<int>::kInvalid), nullptr);
  EXPECT_EQ(pool.find(0xdeadbeefull << 32 | 1), nullptr);
  const auto h = pool.emplace(1);
  EXPECT_THROW(pool.get(h + (1ull << 32)), CheckFailure);  // wrong slot
}

TEST(HandlePool, ClearInvalidatesAllHandles) {
  HandlePool<int> pool(8);
  const auto a = pool.emplace(1);
  const auto b = pool.emplace(2);
  pool.clear();
  EXPECT_EQ(pool.find(a), nullptr);
  EXPECT_EQ(pool.find(b), nullptr);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(RingBuffer, FifoAcrossGrowth) {
  RingBuffer<int> ring(2);
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ring.front(), i);
    ASSERT_EQ(ring[0], i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapsAroundWithoutReordering) {
  RingBuffer<int> ring(4);
  int next_in = 0, next_out = 0;
  // Sustained push/pop traffic forces head to wrap the power-of-two mask.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// SmallFunction
// ---------------------------------------------------------------------------

TEST(SmallFunction, InvokesInlineCaptures) {
  int hits = 0;
  SmallFunction<void()> f = [&hits]() { ++hits; };
  f();
  f();
  EXPECT_EQ(hits, 2);
  SmallFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 40), 42);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int hits = 0;
  SmallFunction<void()> f = [&hits]() { ++hits; };
  SmallFunction<void()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, HoldsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(99);
  SmallFunction<int()> f = [p = std::move(p)]() { return *p; };
  EXPECT_EQ(f(), 99);
}

TEST(SmallFunction, HeapFallbackForOversizedCaptures) {
  // Capture larger than the inline buffer: must still work (heap path).
  struct Big {
    double data[32] = {};
  };
  Big big;
  big.data[0] = 1.5;
  big.data[31] = 2.5;
  SmallFunction<double()> f = [big]() { return big.data[0] + big.data[31]; };
  EXPECT_DOUBLE_EQ(f(), 4.0);
  SmallFunction<double()> g = std::move(f);
  EXPECT_DOUBLE_EQ(g(), 4.0);
}

TEST(SmallFunction, DestroysCaptureExactlyOnce) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    Tracked(const Tracked&) { ++live; }
    Tracked(Tracked&&) { ++live; }
    ~Tracked() { --live; }
  };
  {
    SmallFunction<void()> f = [t = Tracked{}]() { (void)t; };
    SmallFunction<void()> g = std::move(f);
    f = nullptr;
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace loki
