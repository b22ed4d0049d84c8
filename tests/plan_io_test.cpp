// plan_to_text is the digest form of a plan: PlannerTrajectory pins the
// fnv1a of its output and abl_allocator compares plans through it. These
// tests pin the format on a hand-built plan and check that the digest is
// complete: changing any one field of the plan, by as little as one ulp for
// a double, changes the text.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "serving/plan_io.hpp"

namespace loki::serving {
namespace {

AllocationPlan hand_built_plan() {
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
  return p;
}

double next_up(double v) { return std::nextafter(v, HUGE_VAL); }

TEST(PlanToText, PrintsHandBuiltPlanExactly) {
  EXPECT_EQ(plan_to_text(hand_built_plan()),
            "loki-plan v1\n"
            "mode overload\n"
            "expected_accuracy 0.87654321987654316\n"
            "served_fraction 0.25\n"
            "servers_used 13\n"
            "demand_qps 123.456789012345\n"
            "solve_time_s 0.032099999999999997\n"
            "feasible 0\n"
            "instance 2 1 8 3\n"
            "flow 2 0.5 2 0 1 2 0\n"
            "budget 0 1 0.125\n"
            "budget 2 0 0.0625\n");
}

TEST(PlanToText, EveryFieldChangesTheText) {
  using Edit = std::function<void(AllocationPlan&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"mode", [](AllocationPlan& p) { p.mode = ScalingMode::kAccuracy; }},
      {"expected_accuracy",
       [](AllocationPlan& p) {
         p.expected_accuracy = next_up(p.expected_accuracy);
       }},
      {"served_fraction",
       [](AllocationPlan& p) {
         p.served_fraction = next_up(p.served_fraction);
       }},
      {"servers_used", [](AllocationPlan& p) { ++p.servers_used; }},
      {"demand_qps",
       [](AllocationPlan& p) { p.demand_qps = next_up(p.demand_qps); }},
      {"solve_time_s",
       [](AllocationPlan& p) { p.solve_time_s = next_up(p.solve_time_s); }},
      {"feasible", [](AllocationPlan& p) { p.feasible = true; }},
      {"instance.task", [](AllocationPlan& p) { ++p.instances[0].task; }},
      {"instance.variant",
       [](AllocationPlan& p) { ++p.instances[0].variant; }},
      {"instance.batch", [](AllocationPlan& p) { ++p.instances[0].batch; }},
      {"instance.replicas",
       [](AllocationPlan& p) { ++p.instances[0].replicas; }},
      {"flow.sink", [](AllocationPlan& p) { ++p.flows[0].path.sink; }},
      {"flow.fraction",
       [](AllocationPlan& p) {
         p.flows[0].fraction = next_up(p.flows[0].fraction);
       }},
      {"flow.tasks", [](AllocationPlan& p) { ++p.flows[0].path.tasks[0]; }},
      {"flow.variants",
       [](AllocationPlan& p) { ++p.flows[0].path.variants[1]; }},
      {"budget.key",
       [](AllocationPlan& p) {
         const double v = p.latency_budget_s.at({2, 0});
         p.latency_budget_s.erase({2, 0});
         p.latency_budget_s[{2, 1}] = v;
       }},
      {"budget.value",
       [](AllocationPlan& p) {
         double& v = p.latency_budget_s.at({2, 0});
         v = next_up(v);
       }},
  };
  const std::string base = plan_to_text(hand_built_plan());
  for (const auto& [field, edit] : edits) {
    AllocationPlan p = hand_built_plan();
    edit(p);
    EXPECT_NE(plan_to_text(p), base) << field;
  }
}

}  // namespace
}  // namespace loki::serving
