// Trace-replay tests (ROADMAP item 4 generator gap): loading a pinned
// (timestamp, task, tier) CSV exactly, strict load-time validation of
// malformed input, and the demand-curve binning controllers consume.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "tests/test_support.hpp"
#include "trace/replay.hpp"

namespace loki::trace {
namespace {

QueryReplay pinned_replay() {
  QueryReplay r;
  r.rows.push_back({0.0, 0, 0});
  r.rows.push_back({0.125, 0, 2});
  r.rows.push_back({0.125, 1, 1});  // equal timestamps are legal
  r.rows.push_back({1.5, 0, 0});
  r.rows.push_back({9.75, 1, 2});
  return r;
}

TEST(QueryReplayIo, LoadsPinnedSequenceExactly) {
  test::TempDir dir("loki_replay");
  const auto path = dir.file("replay.csv");
  test::write_file(path,
                   "t_s,task,tier\n"
                   "0,0,0\n"
                   "0.125,0,2\n"
                   "0.125,1,1\n"
                   "1.5,0,0\n"
                   "9.75,1,2\n"
                   "1234.5678901234501,0,1\n");
  QueryReplay expected = pinned_replay();
  expected.rows.push_back({1234.5678901234501, 0, 1});
  const QueryReplay loaded = load_replay_csv(path);

  ASSERT_EQ(loaded.rows.size(), expected.rows.size());
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    EXPECT_EQ(loaded.rows[i].t_s, expected.rows[i].t_s) << "row " << i;
    EXPECT_EQ(loaded.rows[i].task, expected.rows[i].task) << "row " << i;
    EXPECT_EQ(loaded.rows[i].tier, expected.rows[i].tier) << "row " << i;
  }
  EXPECT_EQ(loaded.duration_s(), 1234.5678901234501);
}

TEST(QueryReplayIo, HeaderOnlyFileLoadsEmpty) {
  test::TempDir dir("loki_replay");
  const auto path = dir.file("empty.csv");
  test::write_file(path, "t_s,task,tier\n");
  const QueryReplay loaded = load_replay_csv(path);
  EXPECT_TRUE(loaded.empty());
  EXPECT_DOUBLE_EQ(loaded.duration_s(), 0.0);
}

TEST(QueryReplayIo, RejectsMalformedInput) {
  test::TempDir dir("loki_replay");
  auto expect_reject = [&](const std::string& name, const std::string& body) {
    const auto path = dir.file(name);
    test::write_file(path, body);
    EXPECT_THROW(load_replay_csv(path), std::runtime_error) << name;
  };

  EXPECT_THROW(load_replay_csv(dir.file("missing.csv")), std::runtime_error);
  expect_reject("empty.csv", "");
  expect_reject("short_row.csv", "t_s,task,tier\n1.0,0\n");
  expect_reject("non_numeric.csv", "t_s,task,tier\nabc,0,0\n");
  expect_reject("negative_t.csv", "t_s,task,tier\n-1.0,0,0\n");
  expect_reject("nan_t.csv", "t_s,task,tier\nnan,0,0\n");
  expect_reject("negative_task.csv", "t_s,task,tier\n1.0,-2,0\n");
  expect_reject("tier_range.csv", "t_s,task,tier\n1.0,0,9\n");
  expect_reject("negative_tier.csv", "t_s,task,tier\n1.0,0,-1\n");
  expect_reject("unsorted.csv", "t_s,task,tier\n2.0,0,0\n1.0,0,0\n");
  expect_reject("trailing_t.csv", "t_s,task,tier\n0.5abc,0,1\n");
  expect_reject("trailing_task.csv", "t_s,task,tier\n0.5,0x,1\n");
  expect_reject("trailing_tier.csv", "t_s,task,tier\n0.5,0,1junk\n");
  expect_reject("extra_column.csv", "t_s,task,tier\n0.5,0,1,extra\n");
  expect_reject("trailing_comma.csv", "t_s,task,tier\n0.5,0,1,\n");
  expect_reject("all_defects.csv",
                "t_s,task,tier\n0.5abc,0x,1junk,extra,cols\n");
  expect_reject("missing_header.csv", "0.5,0,2\n1.0,0,0\n");
}

TEST(ReplayDemandCurve, BinsArrivalsAtInterval) {
  // 3 arrivals in [0, 1), 1 in [1, 2), 1 in [9, 10): with interval 1 s each
  // arrival adds 1 QPS to its bin.
  const DemandCurve curve = replay_demand_curve(pinned_replay(), 1.0);
  ASSERT_EQ(curve.qps.size(), 10u);
  EXPECT_DOUBLE_EQ(curve.qps[0], 3.0);
  EXPECT_DOUBLE_EQ(curve.qps[1], 1.0);
  EXPECT_DOUBLE_EQ(curve.qps[9], 1.0);
  for (std::size_t b = 2; b < 9; ++b) EXPECT_DOUBLE_EQ(curve.qps[b], 0.0);
  EXPECT_DOUBLE_EQ(curve.interval_s, 1.0);
}

TEST(ReplayDemandCurve, RejectsNonPositiveInterval) {
  EXPECT_THROW(replay_demand_curve(pinned_replay(), 0.0), std::runtime_error);
}

TEST(ReplayDemandCurve, EmptyReplayYieldsEmptyCurve) {
  const DemandCurve curve = replay_demand_curve(QueryReplay{}, 1.0);
  EXPECT_TRUE(curve.qps.empty());
}

}  // namespace
}  // namespace loki::trace
