#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace loki::solver {

std::string to_string(MilpStatus s) {
  switch (s) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnbounded: return "unbounded";
    case MilpStatus::kNoSolution: return "no-solution";
  }
  return "?";
}

namespace {

constexpr double kIntTol = 1e-6;  // |x - round(x)| below this is integral

struct BoundDelta {
  int var;
  double lo;
  double hi;
};

struct Node {
  double bound;  // parent LP objective in *minimization* terms
  int depth;
  std::vector<BoundDelta> deltas;
  std::uint64_t seq;  // insertion order, deterministic tie-break
};

struct NodeCompare {
  // kBestFirst: smaller bound first (minimization), FIFO on ties.
  // kDepthFirst: most recent node first (LIFO dive).
  bool depth_first = false;
  bool operator()(const Node& a, const Node& b) const {
    if (depth_first) return a.seq < b.seq;
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.seq > b.seq;
  }
};

// Round near-integral entries exactly; returns false if any integer variable
// is materially fractional.
bool snap_integral(const LpProblem& p, std::vector<double>& x, double tol) {
  for (int j = 0; j < p.num_variables(); ++j) {
    if (p.var_type(j) == VarType::kContinuous) continue;
    const double r = std::round(x[j]);
    if (std::abs(x[j] - r) > tol) return false;
    x[j] = r;
  }
  return true;
}

// The near-identical tier requires the old and new *reduced* problems to
// live in the same combinatorial space: identical original->reduced
// variable mapping and surviving-row list, identical variable types, and
// identical constraint relations + sparsity. Coefficient values, bounds
// and objectives may all differ — a basis carries over regardless.
bool reductions_compatible(const PresolveResult& a, const PresolveResult& b) {
  if (a.post.reduced_index() != b.post.reduced_index()) return false;
  if (a.post.kept_rows() != b.post.kept_rows()) return false;
  const LpProblem& pa = a.problem;
  const LpProblem& pb = b.problem;
  if (pa.num_variables() != pb.num_variables()) return false;
  for (int j = 0; j < pa.num_variables(); ++j) {
    if (pa.var_type(j) != pb.var_type(j)) return false;
  }
  return same_constraint_sparsity(pa, pb);
}

}  // namespace

MilpSolution BranchAndBound::solve(
    const LpProblem& base,
    const std::optional<std::vector<double>>& warm_start) const {
  return search(base, warm_start, nullptr, WarmTier::kCold, false);
}

MilpSolution BranchAndBound::solve(
    const LpProblem& base, const std::optional<std::vector<double>>& warm_start,
    ResolveSession* session, WarmTier tier) const {
  return search(base, warm_start, session, tier, false);
}

MilpSolution BranchAndBound::find_feasible(
    const LpProblem& base,
    const std::optional<std::vector<double>>& warm_start) const {
  return search(base, warm_start, nullptr, WarmTier::kCold, true);
}

MilpSolution BranchAndBound::search(
    const LpProblem& base, const std::optional<std::vector<double>>& warm_start,
    ResolveSession* session, WarmTier tier,
    bool stop_at_first_incumbent) const {
  MilpSolution out;
  const double sense_sign = base.sense() == Sense::kMinimize ? 1.0 : -1.0;
  const int nv_orig = base.num_variables();

  // Presolve the model once per run; the whole search operates in the
  // reduced space and maps solutions back through the postsolve record.
  PresolveResult pre_local;
  const bool use_pre = options_.presolve;
  if (use_pre) {
    pre_local = presolve(base);
    out.presolve_rows_removed = pre_local.stats.rows_removed;
    out.presolve_cols_removed = pre_local.stats.cols_removed;
    if (pre_local.infeasible) {
      if (session != nullptr) session->reset();
      out.status = MilpStatus::kInfeasible;
      return out;
    }
    if (pre_local.problem.num_variables() == 0) {
      // Every variable was fixed: the model is solved (or refuted) outright.
      if (session != nullptr) session->reset();
      std::vector<double> x = pre_local.post.restore_point({});
      if (base.is_feasible(x, 1e-6)) {
        out.status = MilpStatus::kOptimal;
        out.values = std::move(x);
        out.objective = base.objective_value(out.values);
      } else {
        out.status = MilpStatus::kInfeasible;
      }
      return out;
    }
  }

  // Near-identical tier: capture the retained root basis and incumbent
  // before the session is reset, and validate that the old and new reduced
  // spaces are combinatorially the same.
  SimplexContext::BasisSnapshot near_basis;
  std::vector<double> near_incumbent;
  if (session != nullptr && tier == WarmTier::kNearIdentical &&
      session->root_basis.valid() && !session->incumbent.empty() &&
      session->has_pre == use_pre &&
      (!use_pre || reductions_compatible(session->pre, pre_local))) {
    near_basis = std::move(session->root_basis);
    near_incumbent = std::move(session->incumbent);  // original space
  }

  PresolveResult* pre = &pre_local;
  if (session != nullptr) {
    session->reset();
    session->pre = std::move(pre_local);
    session->has_pre = use_pre;
    pre = &session->pre;
  }
  const LpProblem& red = use_pre ? pre->problem : base;
  const int nv = red.num_variables();

  // Incumbent tracked in the ORIGINAL space and in minimization terms;
  // candidates are the caller's warm start and, on the near tier, the
  // previous run's solution (still integer-feasible under small demand
  // drift more often than not).
  double incumbent_obj = kInf;
  std::vector<double> incumbent;
  auto offer_incumbent = [&](const std::vector<double>& cand) {
    if (static_cast<int>(cand.size()) != nv_orig) return;
    std::vector<double> x = cand;
    if (base.is_feasible(x, 1e-6) && snap_integral(base, x, 1e-6) &&
        base.is_feasible(x, 1e-6)) {
      const double obj = sense_sign * base.objective_value(x);
      if (obj < incumbent_obj) {
        incumbent_obj = obj;
        incumbent = std::move(x);
      }
    }
  };
  if (warm_start) offer_incumbent(*warm_start);
  if (near_basis.valid()) offer_incumbent(near_incumbent);

  // One shared standard-form instance for every node: nodes are pure bound
  // overlays, and each LP warm-starts from the last solved basis.
  SimplexContext ctx(red, options_.lp);
  std::vector<double> base_lo(static_cast<std::size_t>(nv));
  std::vector<double> base_hi(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    base_lo[j] = red.lower_bound(j);
    base_hi[j] = red.upper_bound(j);
  }
  std::vector<double> node_lo(static_cast<std::size_t>(nv));
  std::vector<double> node_hi(static_cast<std::size_t>(nv));

  // The open list is a binary heap kept with the same push_heap/pop_heap
  // calls std::priority_queue makes, so nodes come out in the same order;
  // owning the vector lets a node be moved out instead of copied.
  const NodeCompare node_cmp{options_.node_order == NodeOrder::kDepthFirst};
  std::vector<Node> open;
  const auto push_node = [&](Node&& n) {
    open.push_back(std::move(n));
    std::push_heap(open.begin(), open.end(), node_cmp);
  };
  std::uint64_t seq = 0;
  push_node(Node{-kInf, 0, {}, seq++});

  double best_open_bound = -kInf;  // for gap reporting
  bool truncated = false;
  bool root_unbounded = false;
  bool root_lp_pending = true;  // the first LP solved is always the root
  // Post-root tableau for node re-anchoring: when a node leaves the shared
  // context without a dual-feasible basis (a cost-shifted infeasibility
  // verdict, a cycling-guard trip), the next node restores this snapshot
  // and warm-starts from the root basis — one O(m*n) copy instead of a
  // full two-phase cold solve, which used to be the dominant pivot cost of
  // the search on the overload LPs.
  SimplexContext::Snapshot root_anchor;

  while (!open.empty()) {
    if (out.nodes_explored >= options_.max_nodes ||
        (stop_at_first_incumbent && !incumbent.empty())) {
      truncated = true;
      break;
    }
    std::pop_heap(open.begin(), open.end(), node_cmp);
    Node node = std::move(open.back());
    open.pop_back();

    // Prune by bound before paying for the LP.
    if (node.bound >= incumbent_obj - options_.gap_tol) {
      ++out.nodes_pruned;
      continue;
    }

    // Overlay the node's bound deltas on the base box — no LpProblem copy.
    // An empty intersection prunes the node before any LP work.
    node_lo = base_lo;
    node_hi = base_hi;
    bool empty_box = false;
    for (const auto& d : node.deltas) {
      double& lo = node_lo[static_cast<std::size_t>(d.var)];
      double& hi = node_hi[static_cast<std::size_t>(d.var)];
      lo = std::max(lo, d.lo);
      hi = std::min(hi, d.hi);
      if (lo > hi) {
        empty_box = true;
        break;
      }
    }
    if (empty_box) {
      ++out.nodes_pruned;
      continue;
    }

    LpSolution rel;
    if (root_lp_pending && near_basis.valid()) {
      // Near-identical tier: crash the previous run's root basis into the
      // fresh tableau instead of cold-solving — typically a handful of
      // dual-repair pivots instead of a full phase-1 + phase-2 run.
      rel = ctx.solve_from_basis(near_basis);
      out.root_near_warm = rel.warm_started;
    } else {
      if (!root_lp_pending && !ctx.has_warm_basis() && root_anchor.valid()) {
        ctx.restore(root_anchor);
      }
      // Node LPs only need to prove their bound relative to the incumbent:
      // the dual re-solve may stop early (kCutoff) once its objective
      // crosses the pruning threshold. The root always solves to optimality
      // — its basis anchors the search and the session.
      const double cutoff =
          root_lp_pending || incumbent_obj >= kInf
              ? kInf
              : incumbent_obj - options_.gap_tol;
      rel = ctx.solve_with_bounds(node_lo, node_hi, cutoff);
    }
    if (root_lp_pending) {
      // Retain the post-root tableau: node re-anchoring resumes from this
      // state, and its combinatorial basis feeds the next run's
      // near-identical tier.
      root_lp_pending = false;
      if (rel.status == LpStatus::kOptimal) {
        root_anchor = ctx.snapshot();
        if (session != nullptr) session->root_basis = ctx.basis_snapshot();
        // Reduced-cost fixing: with an incumbent in hand, a nonbasic
        // integer variable whose root reduced cost alone pushes past the
        // incumbent (minus the pruning slack) can never take a different
        // value in a solution the search would keep — any such node is
        // bound-dominated. Fixing it in the search box up front removes
        // the variable from branching and shortens every node's dual
        // repair. Purely a pruning device: the same solutions survive that
        // bound-pruning would keep, deterministically.
        if (incumbent_obj < kInf) {
          const double root_min = sense_sign * rel.objective;
          for (int j = 0; j < nv; ++j) {
            if (red.var_type(j) == VarType::kContinuous) continue;
            const double dj = ctx.reduced_cost(j);
            if (ctx.nonbasic_at_lower(j)) {
              if (root_min + dj >= incumbent_obj - options_.gap_tol &&
                  std::isfinite(base_lo[j])) {
                base_hi[j] = base_lo[j];
              }
            } else if (ctx.nonbasic_at_upper(j)) {
              if (root_min - dj >= incumbent_obj - options_.gap_tol &&
                  std::isfinite(base_hi[j])) {
                base_lo[j] = base_hi[j];
              }
            }
          }
        }
      }
    }
    ++out.nodes_explored;
    out.lp_iterations += rel.iterations;
    out.lp_phase1_iterations += rel.phase1_iterations;
    out.devex_resets += rel.devex_resets;
    if (rel.warm_started) {
      ++out.warm_start_hits;
    } else {
      ++out.cold_solves;
    }

    if (rel.status == LpStatus::kInfeasible) continue;
    if (rel.status == LpStatus::kCutoff) continue;  // bound-dominated node
    if (rel.status == LpStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MILP itself is
      // unbounded or needs bounds we don't have; report and stop.
      if (node.depth == 0) root_unbounded = true;
      truncated = true;
      break;
    }
    if (rel.status == LpStatus::kIterLimit) {
      truncated = true;
      continue;  // cannot trust this node's bound; drop it conservatively
    }

    const double node_obj = sense_sign * rel.objective;
    if (node_obj >= incumbent_obj - options_.gap_tol) continue;

    // Find the most fractional integer variable (reduced space).
    int branch_var = -1;
    double branch_frac_dist = -1.0;
    for (int j = 0; j < nv; ++j) {
      if (red.var_type(j) == VarType::kContinuous) continue;
      const double v = rel.values[j];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > kIntTol && dist > branch_frac_dist) {
        branch_frac_dist = dist;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integer feasible: new incumbent. Snap in the reduced space (the
      // postsolve copies values, so snapped ones survive it exactly), then
      // validate against the original model.
      std::vector<double> xr = rel.values;
      snap_integral(red, xr, kIntTol * 4 + 1e-9);
      std::vector<double> x =
          use_pre ? pre->post.restore_point(xr) : std::move(xr);
      if (base.is_feasible(x, 1e-5)) {
        const double obj = sense_sign * base.objective_value(x);
        if (obj < incumbent_obj - options_.gap_tol) {
          incumbent_obj = obj;
          incumbent = std::move(x);
        }
      }
      continue;
    }

    const double v = rel.values[branch_var];
    // Down child: x <= floor(v); up child: x >= ceil(v).
    Node down{node_obj, node.depth + 1, node.deltas, seq++};
    down.deltas.push_back({branch_var, -kInf, std::floor(v)});
    Node up{node_obj, node.depth + 1, std::move(node.deltas), seq++};
    up.deltas.push_back({branch_var, std::ceil(v), kInf});
    push_node(std::move(down));
    push_node(std::move(up));
  }

  // Gap: distance between incumbent and the best still-open bound. Under
  // depth-first order the heap top is the NEWEST node, not the best bound,
  // so scan the whole remaining frontier.
  best_open_bound = incumbent_obj;
  if (truncated && !open.empty()) {
    best_open_bound = open.front().bound;
    for (const Node& n : open) {
      best_open_bound = std::min(best_open_bound, n.bound);
    }
  }

  if (incumbent.empty()) {
    if (root_unbounded) {
      out.status = MilpStatus::kUnbounded;
    } else if (truncated) {
      out.status = MilpStatus::kNoSolution;
    } else {
      out.status = MilpStatus::kInfeasible;
    }
    return out;
  }

  out.values = std::move(incumbent);
  out.objective = base.objective_value(out.values);
  if (!truncated) {
    out.gap = 0.0;
    out.status = MilpStatus::kOptimal;
  } else {
    out.gap = std::max(0.0, incumbent_obj - best_open_bound);
    out.status = out.gap <= options_.gap_tol ? MilpStatus::kOptimal
                                             : MilpStatus::kFeasible;
  }
  // Retain the incumbent for the next run's near-identical tier.
  if (session != nullptr && session->root_basis.valid()) {
    session->incumbent = out.values;
  }
  return out;
}

}  // namespace loki::solver
