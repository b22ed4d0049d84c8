#include "serving/exact_milp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "solver/milp.hpp"

namespace loki::serving {

ExactMilpFormulation::ExactMilpFormulation(AllocatorConfig cfg,
                                           const pipeline::PipelineGraph* graph,
                                           ProfileTable profiles)
    : cfg_(cfg), graph_(graph), profiles_(std::move(profiles)) {
  LOKI_CHECK(graph_ != nullptr);
}

ExactMilpResult ExactMilpFormulation::solve_hardware(
    double demand_qps, const pipeline::MultFactorTable& mult) const {
  return solve(demand_qps, mult, /*hardware_only=*/true);
}

ExactMilpResult ExactMilpFormulation::solve_accuracy(
    double demand_qps, const pipeline::MultFactorTable& mult) const {
  return solve(demand_qps, mult, /*hardware_only=*/false);
}

ExactMilpResult ExactMilpFormulation::solve(
    double demand_qps, const pipeline::MultFactorTable& mult,
    bool hardware_only) const {
  using solver::Constraint;
  using solver::LpProblem;
  using solver::Relation;
  using solver::Sense;
  using solver::VarType;

  const auto& g = *graph_;
  ExactMilpResult out;

  // Allowed variants per task (hardware mode pins the most accurate one).
  std::vector<std::vector<int>> variants(static_cast<std::size_t>(g.num_tasks()));
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (hardware_only) {
      variants[static_cast<std::size_t>(t)] = {g.task(t).catalog.most_accurate()};
    } else {
      for (int k = 0; k < g.task(t).catalog.size(); ++k) {
        variants[static_cast<std::size_t>(t)].push_back(k);
      }
    }
  }

  LpProblem lp(Sense::kMinimize);
  const double S = static_cast<double>(cfg_.cluster_size);

  // z(t,k,b), n(t,k,b) and l(t,k) bookkeeping.
  struct Cfg {
    int variant;
    int batch;
    double q;    // derated throughput
    double lat;  // profiled latency
    int z = -1;
    int n = -1;
  };
  std::vector<std::vector<std::vector<Cfg>>> cfgs(
      static_cast<std::size_t>(g.num_tasks()));
  double max_lat_sum = 0.0;
  for (int t = 0; t < g.num_tasks(); ++t) {
    cfgs[static_cast<std::size_t>(t)].resize(
        static_cast<std::size_t>(g.task(t).catalog.size()));
    double task_max = 0.0;
    for (int k : variants[static_cast<std::size_t>(t)]) {
      const auto& prof =
          profiles_[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      for (int bi = 0; bi < prof.size(); ++bi) {
        Cfg c;
        c.variant = k;
        c.batch = prof.batches[static_cast<std::size_t>(bi)];
        c.q = prof.throughput_qps[static_cast<std::size_t>(bi)] *
              kUtilizationTarget;
        c.lat = prof.latency_s[static_cast<std::size_t>(bi)];
        c.z = lp.add_variable(
            "z_" + std::to_string(t) + "_" + std::to_string(k) + "_" +
                std::to_string(c.batch),
            0.0, 1.0, 0.0, VarType::kBinary);
        c.n = lp.add_variable(
            "n_" + std::to_string(t) + "_" + std::to_string(k) + "_" +
                std::to_string(c.batch),
            0.0, solver::kInf, 0.0, VarType::kInteger);
        // n <= S * z (only the selected batch hosts instances).
        lp.add_constraint(
            {{{c.n, 1.0}, {c.z, -S}}, Relation::kLe, 0.0, "link"});
        task_max = std::max(task_max, c.lat);
        cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]
            .push_back(c);
      }
      // Eq. 4: one batch size per variant.
      Constraint one;
      for (const auto& c :
           cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
        one.terms.push_back({c.z, 1.0});
      }
      one.rel = Relation::kLe;
      one.rhs = 1.0;
      one.name = "one_batch";
      lp.add_constraint(std::move(one));
    }
    max_lat_sum += task_max;
  }

  // Per-sink variant-level paths with flow c(p) and indicator I(p).
  const auto sinks = g.sinks();
  const double sink_weight = 1.0 / static_cast<double>(sinks.size());
  std::vector<std::vector<pipeline::VariantPath>> sink_paths;
  std::vector<std::vector<int>> c_var(sinks.size()), i_var(sinks.size());
  for (std::size_t si = 0; si < sinks.size(); ++si) {
    auto all = pipeline::enumerate_variant_paths(g, sinks[si]);
    // Restrict to allowed variants (hardware mode).
    std::vector<pipeline::VariantPath> kept;
    for (auto& p : all) {
      bool ok = true;
      for (std::size_t i = 0; i < p.tasks.size() && ok; ++i) {
        const auto& vs = variants[static_cast<std::size_t>(p.tasks[i])];
        ok = std::find(vs.begin(), vs.end(), p.variants[i]) != vs.end();
      }
      if (ok) kept.push_back(std::move(p));
    }
    sink_paths.push_back(std::move(kept));
    for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
      c_var[si].push_back(lp.add_variable(
          "c_" + std::to_string(si) + "_" + std::to_string(pi), 0.0,
          solver::kInf, 0.0));
      i_var[si].push_back(lp.add_variable(
          "I_" + std::to_string(si) + "_" + std::to_string(pi), 0.0, 1.0, 0.0,
          VarType::kBinary));
      // c(p) <= I(p): a path carries flow only if marked used.
      lp.add_constraint({{{c_var[si].back(), 1.0}, {i_var[si].back(), -1.0}},
                         Relation::kLe,
                         0.0,
                         "use"});
    }
    // Flow: all of the sink's demand is assigned.
    Constraint flow;
    for (int v : c_var[si]) flow.terms.push_back({v, 1.0});
    flow.rel = Relation::kEq;
    flow.rhs = 1.0;
    flow.name = "flow";
    lp.add_constraint(std::move(flow));
  }

  // Prefix consistency across sinks (same construction as the production
  // allocator, at variant level).
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto below = g.sinks_below(t);
    if (below.size() < 2) continue;
    std::vector<std::size_t> below_idx;
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      if (std::find(below.begin(), below.end(), sinks[si]) != below.end()) {
        below_idx.push_back(si);
      }
    }
    for (const auto& prefix : pipeline::enumerate_variant_prefixes(g, t)) {
      const std::size_t s0 = below_idx[0];
      for (std::size_t bi = 1; bi < below_idx.size(); ++bi) {
        const std::size_t si = below_idx[bi];
        Constraint c;
        for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
          if (pipeline::path_extends(sink_paths[si][pi], prefix)) {
            c.terms.push_back({c_var[si][pi], 1.0});
          }
        }
        for (std::size_t pi = 0; pi < sink_paths[s0].size(); ++pi) {
          if (pipeline::path_extends(sink_paths[s0][pi], prefix)) {
            c.terms.push_back({c_var[s0][pi], -1.0});
          }
        }
        if (c.terms.empty()) continue;
        c.rel = Relation::kEq;
        c.rhs = 0.0;
        c.name = "consistency";
        lp.add_constraint(std::move(c));
      }
    }
  }

  // Capacity (Eq. 2), counted once via the canonical sink below each task.
  for (int t = 0; t < g.num_tasks(); ++t) {
    const auto below = g.sinks_below(t);
    std::size_t s0 = 0;
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      if (sinks[si] == below.front()) s0 = si;
    }
    const auto tpath = g.task_path_to(sinks[s0]);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < tpath.size(); ++i) {
      if (tpath[i] == t) pos = i;
    }
    for (int k : variants[static_cast<std::size_t>(t)]) {
      Constraint c;
      for (std::size_t pi = 0; pi < sink_paths[s0].size(); ++pi) {
        const auto& p = sink_paths[s0][pi];
        if (p.variants[pos] != k) continue;
        const double m = pipeline::path_multiplier(g, mult, p, pos);
        c.terms.push_back({c_var[s0][pi], demand_qps * m});
      }
      for (const auto& cf :
           cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
        c.terms.push_back({cf.n, -cf.q});
      }
      c.rel = Relation::kLe;
      c.rhs = 0.0;
      c.name = "cap";
      lp.add_constraint(std::move(c));
    }
  }

  // Latency (Eq. 5-7): big-M over used paths, l(t,k) = sum_b z*lat.
  const double budget = cfg_.slo_s * kQueueFactor;
  const double kBigM = max_lat_sum + budget;
  for (std::size_t si = 0; si < sinks.size(); ++si) {
    const auto tpath = g.task_path_to(sinks[si]);
    const double hops = static_cast<double>(tpath.size()) + 1.0;
    const double limit = budget - kCommLatencyS * hops;
    for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
      const auto& p = sink_paths[si][pi];
      Constraint c;  // sum l(t,k) + M*I(p) <= limit + M
      for (std::size_t i = 0; i < p.tasks.size(); ++i) {
        for (const auto& cf : cfgs[static_cast<std::size_t>(p.tasks[i])]
                                  [static_cast<std::size_t>(p.variants[i])]) {
          c.terms.push_back({cf.z, cf.lat});
        }
      }
      c.terms.push_back({i_var[si][pi], kBigM});
      c.rel = Relation::kLe;
      c.rhs = limit + kBigM;
      c.name = "latency";
      lp.add_constraint(std::move(c));
      // A used path needs a configured batch for each of its variants.
      for (std::size_t i = 0; i < p.tasks.size(); ++i) {
        Constraint need;
        for (const auto& cf : cfgs[static_cast<std::size_t>(p.tasks[i])]
                                  [static_cast<std::size_t>(p.variants[i])]) {
          need.terms.push_back({cf.z, 1.0});
        }
        need.terms.push_back({i_var[si][pi], -1.0});
        need.rel = Relation::kGe;
        need.rhs = 0.0;
        need.name = "configured";
        lp.add_constraint(std::move(need));
      }
    }
  }

  // Cluster size (Eq. 3) + one instance per task.
  {
    Constraint c;
    for (int t = 0; t < g.num_tasks(); ++t) {
      for (int k : variants[static_cast<std::size_t>(t)]) {
        for (const auto& cf :
             cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
          c.terms.push_back({cf.n, 1.0});
        }
      }
    }
    c.rel = Relation::kLe;
    c.rhs = S;
    c.name = "cluster";
    lp.add_constraint(std::move(c));
  }
  for (int t = 0; t < g.num_tasks(); ++t) {
    Constraint c;
    for (int k : variants[static_cast<std::size_t>(t)]) {
      for (const auto& cf :
           cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
        c.terms.push_back({cf.n, 1.0});
      }
    }
    c.rel = Relation::kGe;
    c.rhs = 1.0;
    c.name = "host";
    lp.add_constraint(std::move(c));
  }

  // Objective.
  if (hardware_only) {
    for (int t = 0; t < g.num_tasks(); ++t) {
      for (int k : variants[static_cast<std::size_t>(t)]) {
        for (const auto& cf :
             cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
          lp.set_objective_coeff(cf.n, 1.0);
        }
      }
    }
  } else {
    lp.set_sense(Sense::kMaximize);
    for (std::size_t si = 0; si < sinks.size(); ++si) {
      for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
        lp.set_objective_coeff(
            c_var[si][pi],
            sink_weight * pipeline::path_accuracy(g, sink_paths[si][pi]));
      }
    }
  }

  solver::MilpOptions opts;
  opts.max_nodes = 60000;
  opts.gap_tol = 1e-6;
  solver::BranchAndBound bnb(opts);
  const auto sol = bnb.solve(lp);
  out.status = sol.status;
  out.stats.add(sol);
  if (sol.status != solver::MilpStatus::kOptimal &&
      sol.status != solver::MilpStatus::kFeasible) {
    return out;
  }
  out.feasible = true;
  out.mode = hardware_only ? ScalingMode::kHardware : ScalingMode::kAccuracy;
  out.objective = sol.objective;
  int servers = 0;
  for (int t = 0; t < g.num_tasks(); ++t) {
    for (int k : variants[static_cast<std::size_t>(t)]) {
      for (const auto& cf :
           cfgs[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]) {
        servers += static_cast<int>(
            std::lround(sol.values[static_cast<std::size_t>(cf.n)]));
      }
    }
  }
  out.servers_used = servers;
  double acc = 0.0;
  for (std::size_t si = 0; si < sinks.size(); ++si) {
    for (std::size_t pi = 0; pi < sink_paths[si].size(); ++pi) {
      acc += sink_weight * sol.values[static_cast<std::size_t>(c_var[si][pi])] *
             pipeline::path_accuracy(g, sink_paths[si][pi]);
    }
  }
  out.expected_accuracy = acc;
  return out;
}

}  // namespace loki::serving
