// Load Balancer tests: MostAccurateFirst (Algorithm 1) saturation order,
// probability normalization, multiplicative-factor handling, and backup
// tables for opportunistic rerouting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/load_balancer.hpp"

namespace loki::serving {
namespace {

struct Fixture {
  pipeline::PipelineGraph graph = pipeline::traffic_analysis_two_task_pipeline();
  ProfileTable profiles;
  pipeline::MultFactorTable mult;
  LoadBalancer lb;

  Fixture()
      : profiles(build_profile_table(graph, profile::ModelProfiler())),
        mult(pipeline::default_mult_factors(graph)),
        lb(&graph, &profiles, /*utilization_target=*/1.0) {}

  /// Builds a plan hosting the given groups.
  AllocationPlan plan(std::vector<InstanceConfig> instances) {
    AllocationPlan p;
    p.instances = std::move(instances);
    p.servers_used = p.total_replicas();
    p.feasible = true;
    return p;
  }

  double group_capacity(const AllocationPlan& p, int gi) {
    const auto& ic = p.instances[static_cast<std::size_t>(gi)];
    return ic.replicas *
           profiles[static_cast<std::size_t>(ic.task)]
                   [static_cast<std::size_t>(ic.variant)]
                       .throughput_for(ic.batch);
  }
};

TEST(MostAccurateFirst, SingleGroupGetsAllTraffic) {
  Fixture f;
  // yolov5x (variant 4) + efficientnet-b7 (variant 10).
  auto p = f.plan({{0, 4, 8, 4}, {1, 10, 8, 16}});
  const auto r = f.lb.most_accurate_first(p, 50.0, f.mult);
  ASSERT_EQ(r.frontend.size(), 1u);
  EXPECT_EQ(r.frontend[0].group, 0);
  EXPECT_NEAR(r.frontend[0].probability, 1.0, 1e-9);
  // Worker table for the detection group routes to the classification group.
  const auto& table = r.group_routes[0].at(1);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].group, 1);
  EXPECT_NEAR(table[0].probability, 1.0, 1e-9);
}

TEST(MostAccurateFirst, SaturatesMostAccurateGroupFirst) {
  Fixture f;
  // Two detection groups: yolov5x (acc 1.0) with small capacity and
  // yolov5n (acc 0.56) with large capacity; one classification group.
  auto p = f.plan({{0, 4, 8, 1}, {0, 0, 8, 6}, {1, 0, 8, 13}});
  const double cap_x = f.group_capacity(p, 0);
  const double demand = cap_x * 2.0;  // x can hold half the demand
  const auto r = f.lb.most_accurate_first(p, demand, f.mult);
  ASSERT_EQ(r.frontend.size(), 2u);
  EXPECT_EQ(r.frontend[0].group, 0);  // accuracy-first
  EXPECT_NEAR(r.frontend[0].probability, 0.5, 1e-6);
  EXPECT_EQ(r.frontend[1].group, 1);
  EXPECT_NEAR(r.frontend[1].probability, 0.5, 1e-6);
}

TEST(MostAccurateFirst, ProbabilitiesNeverExceedOne) {
  Fixture f;
  auto p = f.plan({{0, 4, 8, 2}, {1, 10, 8, 8}});
  // Demand far beyond capacity: the frontend places what fits, sheds rest.
  const auto r = f.lb.most_accurate_first(p, 10000.0, f.mult);
  double sum = 0.0;
  for (const auto& e : r.frontend) sum += e.probability;
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_LT(sum, 0.5);  // most demand is unplaceable here
}

TEST(MostAccurateFirst, IntermediateDemandUsesMultFactor) {
  Fixture f;
  auto p = f.plan({{0, 4, 8, 2}, {1, 10, 8, 10}});
  const auto r = f.lb.most_accurate_first(p, 60.0, f.mult);
  // Incoming at classification = 60 * r(yolov5x) * branch(2/3) = 60*2.1*2/3.
  EXPECT_NEAR(r.group_incoming_qps[1], 60.0 * 2.10 * (2.0 / 3.0), 1e-6);
}

TEST(MostAccurateFirst, BackupTablesListLeftoverAccuracyOrdered) {
  Fixture f;
  // Plenty of classification capacity in two variants.
  auto p = f.plan({{0, 4, 8, 1}, {1, 10, 8, 6}, {1, 0, 8, 6}});
  const auto r = f.lb.most_accurate_first(p, 20.0, f.mult);
  const auto& backup = r.backup_per_task[1];
  ASSERT_GE(backup.size(), 1u);
  // Ordered by accuracy descending.
  for (std::size_t i = 1; i < backup.size(); ++i) {
    const auto& prev = p.instances[static_cast<std::size_t>(backup[i - 1].group)];
    const auto& cur = p.instances[static_cast<std::size_t>(backup[i].group)];
    EXPECT_GE(f.graph.task(1).catalog.at(prev.variant).accuracy,
              f.graph.task(1).catalog.at(cur.variant).accuracy);
  }
  for (const auto& be : backup) {
    EXPECT_GT(be.leftover_qps, 0.0);
    EXPECT_GT(be.exec_s, 0.0);
  }
}

TEST(MostAccurateFirst, FullySaturatedLeavesNoBackup) {
  Fixture f;
  auto p = f.plan({{0, 4, 8, 1}, {1, 10, 8, 1}});
  const double cap0 = f.group_capacity(p, 0);
  // Saturate both groups.
  const auto r = f.lb.most_accurate_first(p, cap0 * 10.0, f.mult);
  EXPECT_TRUE(r.backup_per_task[0].empty());
  EXPECT_TRUE(r.backup_per_task[1].empty());
}

TEST(MostAccurateFirst, ZeroDemandStillRoutable) {
  Fixture f;
  auto p = f.plan({{0, 4, 8, 1}, {1, 10, 8, 1}});
  const auto r = f.lb.most_accurate_first(p, 0.0, f.mult);
  ASSERT_EQ(r.frontend.size(), 1u);
  EXPECT_NEAR(r.frontend[0].probability, 1.0, 1e-9);
  // Child routes exist even with ~0 planned demand.
  ASSERT_TRUE(r.group_routes[0].count(1));
  EXPECT_FALSE(r.group_routes[0].at(1).empty());
}

TEST(MostAccurateFirst, UtilizationTargetDeratesCapacity) {
  Fixture f;
  LoadBalancer derated(&f.graph, &f.profiles, 0.5);
  auto p = f.plan({{0, 4, 8, 1}, {1, 10, 8, 4}});
  const double cap_full = f.group_capacity(p, 0);
  // At demand equal to the full capacity, the derated LB can only place
  // half at the detection group.
  const auto r = derated.most_accurate_first(p, cap_full, f.mult);
  double sum = 0.0;
  for (const auto& e : r.frontend) sum += e.probability;
  EXPECT_NEAR(sum, 0.5, 1e-6);
}

TEST(MostAccurateFirst, ExecTimesExposedPerGroup) {
  Fixture f;
  auto p = f.plan({{0, 4, 4, 1}, {1, 10, 2, 4}});
  const auto r = f.lb.most_accurate_first(p, 10.0, f.mult);
  EXPECT_NEAR(r.group_exec_s[0], f.profiles[0][4].latency_for(4), 1e-12);
  EXPECT_NEAR(r.group_exec_s[1], f.profiles[1][10].latency_for(2), 1e-12);
}

TEST(MostAccurateFirst, TreePipelineRoutesBothChildren) {
  pipeline::PipelineGraph g = pipeline::traffic_analysis_pipeline();
  ProfileTable profiles = build_profile_table(g, profile::ModelProfiler());
  auto mult = pipeline::default_mult_factors(g);
  LoadBalancer lb(&g, &profiles, 1.0);
  AllocationPlan p;
  p.instances = {{0, 4, 8, 3}, {1, 10, 8, 10}, {2, 3, 8, 5}};
  p.feasible = true;
  const auto r = lb.most_accurate_first(p, 100.0, mult);
  ASSERT_TRUE(r.group_routes[0].count(1));
  ASSERT_TRUE(r.group_routes[0].count(2));
  EXPECT_NEAR(r.group_incoming_qps[1], 100.0 * 2.10 * (2.0 / 3.0), 1e-6);
  EXPECT_NEAR(r.group_incoming_qps[2], 100.0 * 2.10 * (1.0 / 3.0), 1e-6);
}

// ---------------------------------------------------------------------------
// pick_route (the LB's cumulative-probability draw, §5.1)
// ---------------------------------------------------------------------------

TEST(PickRoute, DrawsByCumulativeProbability) {
  const std::vector<GroupRoute> routes = {{7, 0.3}, {9, 0.7}};
  EXPECT_EQ(pick_route(routes, 0.1), 7);
  EXPECT_EQ(pick_route(routes, 0.29), 7);
  EXPECT_EQ(pick_route(routes, 0.31), 9);
  EXPECT_EQ(pick_route(routes, 0.95), 9);
}

TEST(PickRoute, FloatingPointTailDoesNotShedExhaustiveTable) {
  // Regression: a table whose probabilities cover all demand but sum to
  // slightly under 1.0 in floating point (e.g. ten routes of ~0.1) used to
  // shed a draw landing in the fp tail gap. An exhaustive table (sum within
  // 1e-9 of 1) must fall back to the last route instead.
  const std::vector<GroupRoute> routes(10, GroupRoute{4, 0.09999999999});
  // sum = 1 - 1e-10; a draw inside the gap used to return -1 (spurious shed)
  EXPECT_EQ(pick_route(routes, 1.0 - 5e-11), 4);
}

TEST(PickRoute, DeliberateShedFractionStillSheds) {
  // Overload plans route only served_fraction of demand; draws beyond the
  // table's total probability are real sheds, and the fp-tail fallback must
  // not swallow them.
  const std::vector<GroupRoute> routes = {{3, 0.5}};
  EXPECT_EQ(pick_route(routes, 0.4), 3);
  EXPECT_EQ(pick_route(routes, 0.8), -1);
}

TEST(PickRoute, EmptyTableDropsEveryDraw) {
  EXPECT_EQ(pick_route({}, 0.0), -1);
}

// ---------------------------------------------------------------------------
// RoutingPlan dense route index
// ---------------------------------------------------------------------------

TEST(RoutingPlan, RoutesForDistinguishesMissingFromEmpty) {
  Fixture f;
  auto p = f.plan({{0, 4, 8, 1}, {1, 10, 8, 1}});
  const auto r = f.lb.most_accurate_first(p, 10.0, f.mult);
  // Group 0 routes to its child task 1: present and non-empty.
  const auto* routes = r.routes_for(0, 1);
  ASSERT_NE(routes, nullptr);
  EXPECT_FALSE(routes->empty());
  // Matches the map the index was built from.
  ASSERT_TRUE(r.group_routes[0].count(1));
  EXPECT_EQ(routes->size(), r.group_routes[0].at(1).size());
  // Out-of-range lookups mean "no table" (stale plan), not "drop".
  EXPECT_EQ(r.routes_for(5, 1), nullptr);
  EXPECT_EQ(r.routes_for(0, 99), nullptr);
  EXPECT_EQ(r.routes_for(-1, 0), nullptr);
}

// ---------------------------------------------------------------------------
// Flattened draw tables (differential vs. the linear pick_route reference)
// ---------------------------------------------------------------------------

/// Builds a finalized RoutingPlan whose frontend is `routes` (the table
/// under test); table draws go through frontend_table().
RoutingPlan table_plan(std::vector<GroupRoute> routes) {
  RoutingPlan r;
  r.frontend = std::move(routes);
  r.finalize(/*num_tasks=*/1);
  return r;
}

/// A 100-group table with uneven probabilities that sum to 0.9875, so the
/// draws past its sum shed.
std::vector<GroupRoute> hundred_routes() {
  std::vector<GroupRoute> routes;
  for (int g = 0; g < 100; ++g) routes.push_back({g, (g % 7 + 1) / 400.0});
  return routes;
}

TEST(DrawTable, MatchesLinearPickRouteOnDenseDrawSweep) {
  // Tables exercising every structural case: exhaustive, partial (sheds),
  // zero-probability routes (never drawn, but thresholds tie), singleton.
  const std::vector<std::vector<GroupRoute>> tables = {
      {{7, 1.0}},
      {{1, 0.25}, {2, 0.25}, {3, 0.25}, {4, 0.25}},
      {{1, 0.3}, {2, 0.0}, {3, 0.3}},                    // partial + zero-prob
      {{5, 0.0}, {6, 0.5}, {7, 0.5}},                    // leading zero-prob
      {{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.39999999}},   // fp-shy of 1
      {{9, 0.6}},                                        // partial singleton
      hundred_routes(),                                  // 100 groups
  };
  for (const auto& routes : tables) {
    const auto r = table_plan(routes);
    const auto table = r.frontend_table();
    ASSERT_EQ(table.size, routes.size());
    // Dense sweep across [0, 1) plus the exact threshold values (the
    // boundary draws are where an off-by-one in the counting scan shows).
    std::vector<double> draws;
    for (int i = 0; i < 2000; ++i) draws.push_back(i / 2000.0);
    double cum = 0.0;
    for (const auto& route : routes) {
      cum += route.probability;
      draws.push_back(cum);
      draws.push_back(std::nextafter(cum, 0.0));
      draws.push_back(std::nextafter(cum, 2.0));
    }
    for (double d : draws) {
      if (d < 0.0 || d >= 1.0 + 1e-9) continue;
      EXPECT_EQ(table.pick(d), pick_route(routes, d))
          << "draw " << d << " diverged on table of size " << routes.size();
    }
  }
}

TEST(DrawTable, FloatingPointTailDoesNotShedExhaustiveTable) {
  // Ten routes of 0.09999999999 sum to 0.9999999999: exhaustive up to fp
  // rounding. A draw landing past the accumulated tail must fall back to
  // the last route — in both the linear reference and the flat table.
  std::vector<GroupRoute> routes;
  for (int g = 0; g < 10; ++g) routes.push_back({g, 0.09999999999});
  const auto r = table_plan(routes);
  const double tail_draw = 1.0 - 5e-11;  // beyond the accumulated sum
  EXPECT_EQ(pick_route(routes, tail_draw), 9);
  EXPECT_EQ(r.frontend_table().pick(tail_draw), 9);
}

TEST(DrawTable, PartialTableStillShedsPastItsSum) {
  std::vector<GroupRoute> routes = {{0, 0.3}, {1, 0.3}};  // sums to 0.6
  const auto r = table_plan(routes);
  EXPECT_EQ(r.frontend_table().pick(0.61), -1);
  EXPECT_EQ(r.frontend_table().pick(0.59), 1);
  EXPECT_EQ(pick_route(routes, 0.61), -1);
}

TEST(DrawTable, GroupTablesMatchTheirLinearSource) {
  // End-to-end: tables produced by MostAccurateFirst must agree with their
  // linear source table for every draw (the runtime uses table_at/pick, the
  // reference uses route_tables via routes_for/pick_route).
  Fixture f;
  auto p = f.plan({{0, 4, 8, 2}, {0, 0, 8, 2}, {1, 10, 8, 4}, {1, 6, 8, 4}});
  const auto r = f.lb.most_accurate_first(p, 120.0, f.mult);
  for (int gi = 0; gi < 4; ++gi) {
    for (int task = 0; task < f.graph.num_tasks(); ++task) {
      const auto* linear = r.routes_for(gi, task);
      const std::int32_t k = r.table_index(gi, task);
      ASSERT_EQ(linear == nullptr, k < 0);
      if (linear == nullptr) continue;
      const auto table = r.table_at(k);
      ASSERT_EQ(table.size, linear->size());
      for (int i = 0; i < 4000; ++i) {
        const double d = i / 4000.0;
        ASSERT_EQ(table.pick(d), pick_route(*linear, d))
            << "group " << gi << " task " << task << " draw " << d;
      }
    }
  }
}

}  // namespace
}  // namespace loki::serving
