// Pipeline graph tests: rooted-tree invariants, traversal helpers, the
// augmented graph of §4.1, variant-path enumeration, path accuracy Â(p), and
// the request multipliers m(p, i, k) of Eq. 1.
#include <gtest/gtest.h>

#include "pipeline/paths.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/zoo.hpp"

namespace loki::pipeline {
namespace {

profile::VariantCatalog tiny_catalog(const std::string& kind, int n) {
  profile::VariantCatalog c(kind);
  for (int i = 0; i < n; ++i) {
    profile::ModelVariant v;
    v.family = kind;
    v.name = kind + std::to_string(i);
    v.accuracy = 0.5 + 0.5 * (i + 1) / n;
    v.latency = {0.01, 0.001};
    v.mult_factor_mean = 1.0 + 0.5 * i;
    c.add(v);
  }
  return c;
}

PipelineGraph chain3() {
  PipelineGraph g("chain3");
  const int a = g.add_task("a", tiny_catalog("a", 2));
  const int b = g.add_task("b", tiny_catalog("b", 3));
  const int c = g.add_task("c", tiny_catalog("c", 2));
  g.add_edge(a, b, 0.5);
  g.add_edge(b, c, 1.0);
  g.validate();
  return g;
}

TEST(PipelineGraph, BasicShape) {
  const auto g = chain3();
  EXPECT_EQ(g.num_tasks(), 3);
  EXPECT_EQ(g.root(), 0);
  EXPECT_EQ(g.parent(0), -1);
  EXPECT_EQ(g.parent(2), 1);
  EXPECT_TRUE(g.is_sink(2));
  EXPECT_FALSE(g.is_sink(0));
  EXPECT_EQ(g.sinks(), std::vector<int>{2});
  EXPECT_EQ(g.depth(2), 2);
  EXPECT_EQ(g.max_depth(), 2);
  EXPECT_DOUBLE_EQ(g.branch_ratio(0, 1), 0.5);
}

TEST(PipelineGraph, TopologicalOrderParentFirst) {
  const auto g = traffic_analysis_pipeline();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], g.root());
  std::vector<int> pos(3);
  for (int i = 0; i < 3; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  for (int t = 0; t < 3; ++t) {
    if (g.parent(t) != -1) {
      EXPECT_LT(pos[static_cast<std::size_t>(g.parent(t))],
                pos[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(PipelineGraph, TaskPathTo) {
  const auto g = chain3();
  EXPECT_EQ(g.task_path_to(2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.task_path_to(0), std::vector<int>{0});
}

TEST(PipelineGraph, SinksBelow) {
  const auto g = traffic_analysis_pipeline();
  const auto below_root = g.sinks_below(g.root());
  EXPECT_EQ(below_root.size(), 2u);
  EXPECT_EQ(g.sinks_below(TrafficTasks::kCarClassification),
            std::vector<int>{TrafficTasks::kCarClassification});
}

TEST(PipelineGraph, ValidateRejectsSecondParent) {
  PipelineGraph g("bad");
  const int a = g.add_task("a", tiny_catalog("a", 1));
  const int b = g.add_task("b", tiny_catalog("b", 1));
  const int c = g.add_task("c", tiny_catalog("c", 1));
  g.add_edge(a, c);
  EXPECT_THROW(g.add_edge(b, c), CheckFailure);  // c already has a parent
}

TEST(PipelineGraph, ValidateRejectsTwoRoots) {
  PipelineGraph g("two-roots");
  g.add_task("a", tiny_catalog("a", 1));
  g.add_task("b", tiny_catalog("b", 1));
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(PipelineGraph, ValidateRejectsSelfLoopAndEmpty) {
  PipelineGraph g("self");
  const int a = g.add_task("a", tiny_catalog("a", 1));
  EXPECT_THROW(g.add_edge(a, a), CheckFailure);
  PipelineGraph empty("empty");
  EXPECT_THROW(empty.validate(), CheckFailure);
}

TEST(PipelineGraph, ValidateRejectsEmptyCatalog) {
  PipelineGraph g("nocat");
  g.add_task("a", profile::VariantCatalog("a"));
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(Paths, EnumerationCountsAndOrder) {
  const auto g = chain3();
  const auto paths = enumerate_variant_paths(g, 2);
  EXPECT_EQ(paths.size(), 2u * 3u * 2u);
  // Lexicographic: first path all zeros, last all max.
  EXPECT_EQ(paths.front().variants, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(paths.back().variants, (std::vector<int>{1, 2, 1}));
  for (const auto& p : paths) {
    EXPECT_EQ(p.tasks, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(p.sink, 2);
  }
}

TEST(Paths, TrafficPipelinePathCounts) {
  const auto g = traffic_analysis_pipeline();
  EXPECT_EQ(enumerate_variant_paths(g, TrafficTasks::kCarClassification).size(),
            5u * 11u);
  EXPECT_EQ(
      enumerate_variant_paths(g, TrafficTasks::kFacialRecognition).size(),
      5u * 5u);
}

TEST(Paths, PrefixEnumeration) {
  const auto g = chain3();
  EXPECT_EQ(enumerate_variant_prefixes(g, 0).size(), 2u);
  EXPECT_EQ(enumerate_variant_prefixes(g, 1).size(), 6u);
}

TEST(Paths, AccuracyIsProductOfVariantAccuracies) {
  const auto g = chain3();
  const auto paths = enumerate_variant_paths(g, 2);
  for (const auto& p : paths) {
    double expect = 1.0;
    for (std::size_t i = 0; i < p.tasks.size(); ++i) {
      expect *= g.task(p.tasks[i]).catalog.at(p.variants[i]).accuracy;
    }
    EXPECT_DOUBLE_EQ(path_accuracy(g, p), expect);
  }
}

TEST(Paths, MultiplierMatchesEq1) {
  const auto g = chain3();
  const auto mult = default_mult_factors(g);
  VariantPath p;
  p.sink = 2;
  p.tasks = {0, 1, 2};
  p.variants = {1, 2, 0};
  // Position 0: 1. Position 1: r(a1)*br(0->1). Position 2: ... * r(b2)*br(1->2).
  EXPECT_DOUBLE_EQ(path_multiplier(g, mult, p, 0), 1.0);
  const double r_a1 = g.task(0).catalog.at(1).mult_factor_mean;
  EXPECT_DOUBLE_EQ(path_multiplier(g, mult, p, 1), r_a1 * 0.5);
  const double r_b2 = g.task(1).catalog.at(2).mult_factor_mean;
  EXPECT_DOUBLE_EQ(path_multiplier(g, mult, p, 2), r_a1 * 0.5 * r_b2 * 1.0);
}

TEST(Paths, MultiplierUsesOverrideTable) {
  const auto g = chain3();
  auto mult = default_mult_factors(g);
  mult[0][1] = 9.0;  // runtime-observed factor differs from profile
  VariantPath p;
  p.sink = 2;
  p.tasks = {0, 1, 2};
  p.variants = {1, 0, 0};
  EXPECT_DOUBLE_EQ(path_multiplier(g, mult, p, 1), 9.0 * 0.5);
}

TEST(Paths, ExtendsPredicate) {
  VariantPath p;
  p.tasks = {0, 1, 2};
  p.variants = {1, 2, 0};
  VariantPrefix good;
  good.tasks = {0, 1};
  good.variants = {1, 2};
  VariantPrefix bad = good;
  bad.variants = {1, 1};
  EXPECT_TRUE(path_extends(p, good));
  EXPECT_FALSE(path_extends(p, bad));
  VariantPrefix longer;
  longer.tasks = {0, 1, 2, 3};
  longer.variants = {1, 2, 0, 0};
  EXPECT_FALSE(path_extends(p, longer));
}

TEST(BuiltinPipelines, ValidateAndShape) {
  const auto traffic = traffic_analysis_pipeline();
  EXPECT_EQ(traffic.num_tasks(), 3);
  EXPECT_EQ(traffic.sinks().size(), 2u);
  const auto traffic2 = traffic_analysis_two_task_pipeline();
  EXPECT_EQ(traffic2.num_tasks(), 2);
  const auto social = social_media_pipeline();
  EXPECT_EQ(social.num_tasks(), 2);
  EXPECT_EQ(social.sinks(), std::vector<int>{SocialTasks::kCaptioning});
  EXPECT_EQ(social.max_depth(), 1);
}

TEST(BuiltinPipelines, DefaultMultFactorTableShape) {
  const auto g = traffic_analysis_pipeline();
  const auto mult = default_mult_factors(g);
  ASSERT_EQ(mult.size(), 3u);
  EXPECT_EQ(mult[0].size(), 5u);
  EXPECT_EQ(mult[1].size(), 11u);
  EXPECT_EQ(mult[2].size(), 5u);
  EXPECT_DOUBLE_EQ(mult[0][4], 2.10);  // yolov5x objects per frame
}

}  // namespace
}  // namespace loki::pipeline
