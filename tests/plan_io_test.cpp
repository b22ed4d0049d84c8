// Plan / routing rendering tests, plus round-trip coverage of the
// machine-readable plan serialization (write -> read -> deep equality) and
// its malformed-input rejection paths.
#include <gtest/gtest.h>

#include <stdexcept>

#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/plan_io.hpp"
#include "tests/test_support.hpp"

namespace loki::serving {
namespace {

struct Fixture {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_two_task_pipeline();
  ProfileTable profiles;
  pipeline::MultFactorTable mult;
  AllocationPlan plan;

  Fixture() {
    profiles = build_profile_table(graph, profile::ModelProfiler());
    mult = pipeline::default_mult_factors(graph);
    AllocatorConfig cfg;
    MilpAllocator alloc(cfg, &graph, profiles);
    plan = alloc.plan({300.0, mult}).plan;
  }
};

TEST(PlanIo, PlanToStringMentionsVariantsAndMode) {
  Fixture f;
  const auto s = plan_to_string(f.graph, f.plan);
  EXPECT_NE(s.find("hardware"), std::string::npos);
  EXPECT_NE(s.find("yolov5x"), std::string::npos);
  EXPECT_NE(s.find("path->"), std::string::npos);
  EXPECT_NE(s.find("budget"), std::string::npos);
}

TEST(PlanIo, PlanToCsvRowPerGroup) {
  Fixture f;
  const auto csv = plan_to_csv(f.graph, f.plan);
  EXPECT_EQ(csv.rows(), f.plan.instances.size());
  const auto s = csv.to_string();
  EXPECT_NE(s.find("task,variant,replicas,batch"), std::string::npos);
}

TEST(PlanIo, RoutingToStringShowsFrontendAndBackups) {
  Fixture f;
  LoadBalancer lb(&f.graph, &f.profiles, 0.85);
  const auto routing = lb.most_accurate_first(f.plan, 300.0, f.mult);
  const auto s = routing_to_string(f.graph, f.plan, routing);
  EXPECT_NE(s.find("frontend:"), std::string::npos);
  EXPECT_NE(s.find("object-detection"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serialization round-trip
// ---------------------------------------------------------------------------

void expect_plans_equal(const AllocationPlan& a, const AllocationPlan& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.expected_accuracy, b.expected_accuracy);  // bit-exact
  EXPECT_EQ(a.served_fraction, b.served_fraction);
  EXPECT_EQ(a.servers_used, b.servers_used);
  EXPECT_EQ(a.demand_qps, b.demand_qps);
  EXPECT_EQ(a.solve_time_s, b.solve_time_s);
  EXPECT_EQ(a.feasible, b.feasible);

  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].task, b.instances[i].task);
    EXPECT_EQ(a.instances[i].variant, b.instances[i].variant);
    EXPECT_EQ(a.instances[i].batch, b.instances[i].batch);
    EXPECT_EQ(a.instances[i].replicas, b.instances[i].replicas);
  }
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].fraction, b.flows[i].fraction);
    EXPECT_EQ(a.flows[i].path.sink, b.flows[i].path.sink);
    EXPECT_EQ(a.flows[i].path.tasks, b.flows[i].path.tasks);
    EXPECT_EQ(a.flows[i].path.variants, b.flows[i].path.variants);
  }
  EXPECT_EQ(a.latency_budget_s, b.latency_budget_s);
}

TEST(PlanIo, TextRoundTripIsDeepEqual) {
  Fixture f;
  ASSERT_FALSE(f.plan.instances.empty());
  ASSERT_FALSE(f.plan.flows.empty());
  ASSERT_FALSE(f.plan.latency_budget_s.empty());
  const auto text = plan_to_text(f.plan);
  const auto parsed = plan_from_text(text);
  expect_plans_equal(f.plan, parsed);
  // Serialization is canonical: a second round trip emits identical bytes.
  EXPECT_EQ(plan_to_text(parsed), text);
}

TEST(PlanIo, FileRoundTripIsDeepEqual) {
  Fixture f;
  test::TempDir tmp;
  const auto path = tmp.file("plan.txt");
  save_plan(f.plan, path);
  expect_plans_equal(f.plan, load_plan(path));
}

TEST(PlanIo, RoundTripPreservesNonDefaultScalarFields) {
  AllocationPlan p;
  p.mode = ScalingMode::kOverload;
  p.expected_accuracy = 0.87654321987654321;
  p.served_fraction = 0.25;
  p.servers_used = 13;
  p.demand_qps = 123.456789012345;
  p.solve_time_s = 0.0321;
  p.feasible = false;
  p.instances.push_back({2, 1, 8, 3});
  PathFlow flow;
  flow.fraction = 0.5;
  flow.path.sink = 2;
  flow.path.tasks = {0, 2};
  flow.path.variants = {1, 0};
  p.flows.push_back(flow);
  p.latency_budget_s[{0, 1}] = 0.125;
  p.latency_budget_s[{2, 0}] = 0.0625;
  expect_plans_equal(p, plan_from_text(plan_to_text(p)));
}

TEST(PlanIo, RejectsMalformedInput) {
  Fixture f;
  const auto good = plan_to_text(f.plan);

  EXPECT_THROW(plan_from_text(""), std::runtime_error);
  EXPECT_THROW(plan_from_text("not-a-plan v1\nmode hardware\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v999\n"), std::runtime_error);
  // Unknown directive.
  EXPECT_THROW(plan_from_text(good + "banana 1 2 3\n"), std::runtime_error);
  // Unknown scaling mode.
  EXPECT_THROW(plan_from_text("loki-plan v1\nmode warp-speed\n"),
               std::runtime_error);
  // Non-numeric and short records.
  EXPECT_THROW(plan_from_text("loki-plan v1\nservers_used many\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\ninstance 0 1 4\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\ninstance 0 1 4 2 9\n"),
               std::runtime_error);
  // Out-of-range values.
  EXPECT_THROW(plan_from_text("loki-plan v1\nserved_fraction 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\ninstance 0 1 0 2\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\nflow 1 0.5 1 0 0\n"),
               std::runtime_error);  // path does not end at sink
  // Negative ids.
  EXPECT_THROW(plan_from_text("loki-plan v1\nflow -1 0.5 1 -1 0\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\nflow 1 0.5 2 0 -1 1 0\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\nbudget -1 0 0.1\n"),
               std::runtime_error);
  EXPECT_THROW(plan_from_text("loki-plan v1\nbudget 0 0 -1.0\n"),
               std::runtime_error);
  EXPECT_THROW(
      plan_from_text("loki-plan v1\nbudget 0 0 0.1\nbudget 0 0 0.2\n"),
      std::runtime_error);
}

TEST(PlanIo, AcceptsBlankLinesAndCrlf) {
  Fixture f;
  std::string text = plan_to_text(f.plan);
  // Re-join with CRLF and sprinkle blank lines; parse must be unaffected.
  std::string crlf = "\r\n";
  std::string padded;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto end = text.find('\n', start);
    padded += text.substr(start, end - start) + crlf + crlf;
    if (end == std::string::npos) break;
    start = end + 1;
  }
  expect_plans_equal(f.plan, plan_from_text(padded));
}

}  // namespace
}  // namespace loki::serving
