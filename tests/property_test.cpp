// Cross-module property tests over randomized inputs:
//   * random pipeline trees: structural invariants, path-count algebra,
//     multiplier composition;
//   * random allocation instances: plan validity under random profiles;
//   * end-to-end runs across seeds: accounting conservation and metric
//     sanity regardless of load regime.
//
// Reproducibility audit (PR 1): every Rng in this suite and the other
// randomized sweeps (solver_lp/milp/edge) is seeded from a fixed literal or
// a pure function of GetParam(); no std::random_device, time-based, or
// default-constructed generators remain.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "pipeline/paths.hpp"
#include "pipeline/pipelines.hpp"
#include "profile/profiler.hpp"
#include "serving/allocation.hpp"
#include "trace/generator.hpp"

namespace loki {
namespace {

profile::ModelVariant random_variant(Rng& rng, const std::string& name,
                                     double accuracy) {
  profile::ModelVariant v;
  v.family = "rand";
  v.name = name;
  v.accuracy = accuracy;
  v.latency = profile::LatencyModel::from_design_point(
      rng.uniform(40.0, 400.0), 4, rng.uniform(1.3, 2.5));
  v.mult_factor_mean = rng.uniform(0.5, 3.0);
  v.load_time_s = rng.uniform(0.05, 0.4);
  v.memory_mb = rng.uniform(5.0, 500.0);
  return v;
}

/// Random rooted tree with `n` tasks and 2-4 variants each.
pipeline::PipelineGraph random_tree(Rng& rng, int n) {
  pipeline::PipelineGraph g("random");
  for (int t = 0; t < n; ++t) {
    const int nv = 2 + static_cast<int>(rng.uniform_index(3));
    profile::VariantCatalog cat("task" + std::to_string(t));
    for (int k = 0; k < nv; ++k) {
      // Ascending accuracy, top normalized to 1.
      const double acc = 0.6 + 0.4 * (k + 1) / nv;
      cat.add(random_variant(rng, "t" + std::to_string(t) + "v" +
                                      std::to_string(k),
                             acc));
    }
    g.add_task("task" + std::to_string(t), std::move(cat));
  }
  for (int t = 1; t < n; ++t) {
    const int parent = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(t)));
    g.add_edge(parent, t, rng.uniform(0.2, 1.0));
  }
  g.validate();
  return g;
}

class RandomTree : public ::testing::TestWithParam<int> {};

TEST_P(RandomTree, StructuralInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n = 2 + static_cast<int>(rng.uniform_index(5));  // 2..6 tasks
  const auto g = random_tree(rng, n);

  // Topological order visits every task once, parents first.
  const auto order = g.topological_order();
  EXPECT_EQ(static_cast<int>(order.size()), n);
  std::vector<int> pos(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  for (int t = 0; t < n; ++t) {
    ASSERT_GE(pos[static_cast<std::size_t>(t)], 0);
    if (g.parent(t) != -1) {
      EXPECT_LT(pos[static_cast<std::size_t>(g.parent(t))],
                pos[static_cast<std::size_t>(t)]);
    }
  }
  // Sinks partition: every task has >= 1 sink below it; the root sees all.
  const auto all_sinks = g.sinks();
  EXPECT_EQ(g.sinks_below(g.root()), all_sinks);
  for (int t = 0; t < n; ++t) {
    EXPECT_GE(g.sinks_below(t).size(), 1u);
  }
  // Depth is consistent with parents.
  for (int t = 0; t < n; ++t) {
    if (g.parent(t) != -1) {
      EXPECT_EQ(g.depth(t), g.depth(g.parent(t)) + 1);
    }
  }
}

TEST_P(RandomTree, PathAlgebra) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  const int n = 2 + static_cast<int>(rng.uniform_index(4));
  const auto g = random_tree(rng, n);
  const auto mult = pipeline::default_mult_factors(g);

  for (int s : g.sinks()) {
    const auto paths = pipeline::enumerate_variant_paths(g, s);
    // Count = product of catalog sizes along the task path.
    std::size_t expect = 1;
    for (int t : g.task_path_to(s)) {
      expect *= static_cast<std::size_t>(g.task(t).catalog.size());
    }
    EXPECT_EQ(paths.size(), expect);
    for (const auto& p : paths) {
      // Multipliers compose: m(pos) = m(pos-1) * r * branch_ratio.
      for (std::size_t i = 1; i < p.tasks.size(); ++i) {
        const double prev = pipeline::path_multiplier(g, mult, p, i - 1);
        const double cur = pipeline::path_multiplier(g, mult, p, i);
        const double r =
            mult[static_cast<std::size_t>(p.tasks[i - 1])]
                [static_cast<std::size_t>(p.variants[i - 1])];
        EXPECT_NEAR(cur,
                    prev * r * g.branch_ratio(p.tasks[i - 1], p.tasks[i]),
                    1e-12);
      }
      // Accuracy within (0, 1].
      const double acc = pipeline::path_accuracy(g, p);
      EXPECT_GT(acc, 0.0);
      EXPECT_LE(acc, 1.0);
    }
  }
}

TEST_P(RandomTree, GreedyPlansAlwaysValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 29);
  const int n = 2 + static_cast<int>(rng.uniform_index(3));
  const auto g = random_tree(rng, n);
  serving::AllocatorConfig cfg;
  cfg.cluster_size = 16;
  cfg.slo_s = 0.5;  // generous: random latency models vary widely
  const auto profiles =
      serving::build_profile_table(g, profile::ModelProfiler());
  const auto mult = pipeline::default_mult_factors(g);
  serving::GreedyAllocator alloc(cfg, &g, profiles);
  for (double d : {0.0, 30.0, 200.0, 3000.0}) {
    const auto plan = alloc.plan({d, mult}).plan;
    EXPECT_TRUE(plan.feasible);
    EXPECT_LE(plan.total_replicas(), cfg.cluster_size);
    EXPECT_GE(plan.served_fraction, 0.0);
    EXPECT_LE(plan.served_fraction, 1.0);
    EXPECT_GT(plan.expected_accuracy, 0.0);
    EXPECT_LE(plan.expected_accuracy, 1.0 + 1e-9);
    // Every task hosted at least once.
    std::vector<int> hosted(static_cast<std::size_t>(n), 0);
    for (const auto& ic : plan.instances) {
      hosted[static_cast<std::size_t>(ic.task)] += ic.replicas;
    }
    for (int t = 0; t < n; ++t) EXPECT_GE(hosted[static_cast<std::size_t>(t)], 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTree, ::testing::Range(0, 25));

class EndToEndSeeds : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndSeeds, AccountingConservation) {
  const int seed = GetParam();
  const auto graph = pipeline::social_media_pipeline();
  trace::TraceConfig tcfg;
  tcfg.shape = seed % 2 ? trace::TraceShape::kTwitterBursty
                        : trace::TraceShape::kSine;
  tcfg.duration_s = 40.0;
  tcfg.peak_qps = 100.0 + 150.0 * (seed % 5);  // spans regimes
  tcfg.seed = static_cast<std::uint64_t>(seed) + 1;
  const auto curve = trace::generate_trace(tcfg);

  exp::ExperimentConfig cfg;
  cfg.system = "loki-milp";
  cfg.system_cfg.seed = static_cast<std::uint64_t>(seed) * 13 + 5;
  cfg.drain_s = 20.0;  // long drain: almost everything resolves
  const auto r = exp::run_experiment(graph, curve, cfg);

  // Conservation: every metered arrival terminates as exactly one of
  // completion or drop (shed included), up to queries still in flight at
  // the end of the drain window.
  const auto& m = r.metrics;
  EXPECT_LE(m.completions() + m.drops(), m.arrivals());
  EXPECT_GE(m.completions() + m.drops() + 200, m.arrivals());
  EXPECT_EQ(m.violations(), m.late() + m.drops());
  EXPECT_GE(m.mean_accuracy(), 0.0);
  EXPECT_LE(m.mean_accuracy(), 1.0 + 1e-9);
  EXPECT_GE(m.slo_violation_ratio(), 0.0);
  EXPECT_LE(m.slo_violation_ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndSeeds, ::testing::Range(0, 10));

}  // namespace
}  // namespace loki
