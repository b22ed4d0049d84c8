// Additional solver hardening tests: numerically awkward LPs, structured
// MILPs shaped like the Resource Manager's models, solver-option behaviour
// (iteration limits, Bland switch, gap reporting), and a seeded randomized
// differential suite checking the bounded-variable solver against an
// embedded copy of the seed dense two-phase simplex.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "solver/milp.hpp"
#include "solver/presolve.hpp"
#include "solver/simplex.hpp"

namespace loki::solver {
namespace {

TEST(SimplexEdge, WideDynamicRangeCoefficients) {
  // Coefficients spanning 1e-4 .. 1e4 — the allocation models mix path
  // accuracies (~1) with demand-scaled multipliers (~1e3).
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1e-4);
  const int y = p.add_variable("y", 0, kInf, 1e4);
  p.add_constraint({{{x, 1e4}, {y, 1e-4}}, Relation::kLe, 1e4, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Relation::kLe, 10.0, ""});
  const auto s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.values[y], 10.0, 1e-5);  // y dominates the objective
}

TEST(SimplexEdge, ManyRedundantRows) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  for (int i = 0; i < 50; ++i) {
    p.add_constraint({{{x, 1.0 + i * 1e-12}}, Relation::kLe, 7.0, ""});
  }
  const auto s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-6);
}

TEST(SimplexEdge, IterationLimitReported) {
  SimplexOptions opt;
  opt.max_iterations = 1;  // absurdly low
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, 5.0, 1.0);
  const int y = p.add_variable("y", 0, 5.0, 1.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kLe, 8.0, ""});
  p.add_constraint({{{x, 2}, {y, 1}}, Relation::kLe, 10.0, ""});
  const auto s = SimplexSolver(opt).solve(p);
  EXPECT_TRUE(s.status == LpStatus::kIterLimit ||
              s.status == LpStatus::kOptimal);
}

TEST(SimplexEdge, AllEqualityFullRankSystem) {
  // x + y = 5, x - y = 1 -> (3, 2); objective irrelevant to feasibility.
  LpProblem p(Sense::kMinimize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  const int y = p.add_variable("y", 0, kInf, 1.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kEq, 5.0, ""});
  p.add_constraint({{{x, 1}, {y, -1}}, Relation::kEq, 1.0, ""});
  const auto s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 3.0, 1e-7);
  EXPECT_NEAR(s.values[y], 2.0, 1e-7);
}

TEST(SimplexEdge, NegativeRhsNormalization) {
  // -x <= -4  (i.e. x >= 4) exercises the row sign-flip path.
  LpProblem p(Sense::kMinimize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  p.add_constraint({{{x, -1.0}}, Relation::kLe, -4.0, ""});
  const auto s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(SimplexEdge, ZeroObjectiveReturnsFeasiblePoint) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 0.0);
  p.add_constraint({{{x, 1.0}}, Relation::kGe, 2.0, ""});
  p.add_constraint({{{x, 1.0}}, Relation::kLe, 9.0, ""});
  const auto s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_TRUE(p.is_feasible(s.values, 1e-7));
}

// ---------------------------------------------------------------------------
// Anti-cycling: Bland's-rule fallback after a stall of degenerate pivots.
// ---------------------------------------------------------------------------

// Beale's classic cycling LP: under naive most-negative-reduced-cost
// pricing with unlucky tie-breaks the simplex revisits bases forever. The
// stall guard (degenerate_switch consecutive degenerate pivots -> Bland's
// rule) must terminate it at the true optimum, at the default guard and
// with the guard wound down to trip almost immediately.
TEST(SimplexAntiCycling, BealeCycleTerminatesUnderBothStallGuards) {
  for (int degenerate_switch : {2, 64}) {
    LpProblem p(Sense::kMinimize);
    const int x4 = p.add_variable("x4", 0, kInf, -0.75);
    const int x5 = p.add_variable("x5", 0, kInf, 150.0);
    const int x6 = p.add_variable("x6", 0, kInf, -0.02);
    const int x7 = p.add_variable("x7", 0, kInf, 6.0);
    p.add_constraint({{{x4, 0.25}, {x5, -60.0}, {x6, -0.04}, {x7, 9.0}},
                      Relation::kLe, 0.0, ""});
    p.add_constraint({{{x4, 0.5}, {x5, -90.0}, {x6, -0.02}, {x7, 3.0}},
                      Relation::kLe, 0.0, ""});
    p.add_constraint({{{x6, 1.0}}, Relation::kLe, 1.0, ""});
    SimplexOptions opt;
    opt.degenerate_switch = degenerate_switch;
    const auto s = SimplexSolver(opt).solve(p);
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "switch=" << degenerate_switch;
    EXPECT_NEAR(s.objective, -0.05, 1e-9);
    EXPECT_TRUE(p.is_feasible(s.values, 1e-7));
  }
}

// A vertex shared by many redundant rows: every pivot at the optimum is
// degenerate, which is where a stalled pricing rule would spin.
TEST(SimplexAntiCycling, MassivelyDegenerateVertexTerminates) {
  LpProblem p(Sense::kMaximize);
  const int n = 6;
  for (int j = 0; j < n; ++j) {
    p.add_variable("x" + std::to_string(j), 0, kInf, 1.0 + 0.01 * j);
  }
  // All rows active at the origin-adjacent optimum vertex: sum x <= 1
  // duplicated with scalings, plus per-variable caps that are tight at
  // the same point.
  for (int r = 0; r < 12; ++r) {
    Constraint c;
    const double scale = 1.0 + 0.5 * (r % 3);
    for (int j = 0; j < n; ++j) c.terms.push_back({j, scale});
    c.rel = Relation::kLe;
    c.rhs = scale;
    p.add_constraint(std::move(c));
  }
  SimplexOptions opt;
  opt.degenerate_switch = 4;
  const auto s = SimplexSolver(opt).solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  // Everything into the highest-coefficient variable.
  EXPECT_NEAR(s.objective, 1.05, 1e-7);
}

// A miniature resource-allocation MILP shaped exactly like the Resource
// Manager's step-2 model: integer instance counts, flow split over paths,
// capacity coupling.
TEST(MilpStructured, MiniAllocationModel) {
  LpProblem p(Sense::kMaximize);
  // Two variants: accurate (q=10/srv) and cheap (q=25/srv); demand 100;
  // cluster 6 servers. acc weights 1.0 / 0.8.
  const int n_acc = p.add_variable("n_acc", 0, kInf, 0.0, VarType::kInteger);
  const int n_cheap =
      p.add_variable("n_cheap", 0, kInf, 0.0, VarType::kInteger);
  const int c_acc = p.add_variable("c_acc", 0, kInf, 1.0);
  const int c_cheap = p.add_variable("c_cheap", 0, kInf, 0.8);
  p.add_constraint({{{c_acc, 1}, {c_cheap, 1}}, Relation::kEq, 1.0, "flow"});
  p.add_constraint({{{c_acc, 100.0}, {n_acc, -10.0}}, Relation::kLe, 0.0,
                    "cap_acc"});
  p.add_constraint({{{c_cheap, 100.0}, {n_cheap, -25.0}}, Relation::kLe, 0.0,
                    "cap_cheap"});
  p.add_constraint({{{n_acc, 1}, {n_cheap, 1}}, Relation::kLe, 6.0,
                    "cluster"});
  const auto s = BranchAndBound().solve(p);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  // Best: 5 accurate servers serve 50%, 2 cheap serve 50%? 5+2=7 > 6.
  // With 6 servers: n_acc=5 (c_acc=0.5) + n_cheap=1 (0.25) covers 0.75<1.
  // Optimum mixes to exactly cover demand; verify feasibility + bounds.
  EXPECT_TRUE(p.is_feasible(s.values, 1e-6));
  EXPECT_GT(s.objective, 0.85);   // better than all-cheap
  EXPECT_LT(s.objective, 1.0);    // cannot serve all with accurate only
}

TEST(MilpStructured, EqualObjectiveAlternativesTerminate) {
  // Symmetric variables: many optima with identical objective. The solver
  // must terminate and return one of them, not wander.
  LpProblem p(Sense::kMaximize);
  std::vector<int> xs;
  Constraint sum;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(p.add_variable("x" + std::to_string(i), 0, 3,
                                1.0, VarType::kInteger));
    sum.terms.push_back({xs.back(), 1.0});
  }
  sum.rel = Relation::kLe;
  sum.rhs = 10.0;
  p.add_constraint(std::move(sum));
  const auto s = BranchAndBound().solve(p);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(MilpStructured, GapReportedOnTruncation) {
  // Hard knapsack truncated at 3 nodes: status kFeasible with a gap.
  Rng rng(17);
  LpProblem p(Sense::kMaximize);
  Constraint cap;
  for (int i = 0; i < 16; ++i) {
    const int v = p.add_variable("x" + std::to_string(i), 0, 1,
                                 rng.uniform(1.0, 2.0), VarType::kBinary);
    cap.terms.push_back({v, rng.uniform(1.0, 2.0)});
  }
  cap.rel = Relation::kLe;
  cap.rhs = 8.0;
  p.add_constraint(std::move(cap));
  MilpOptions opts;
  opts.max_nodes = 3;
  std::vector<double> warm(16, 0.0);
  const auto s = BranchAndBound(opts).solve(p, warm);
  ASSERT_TRUE(s.status == MilpStatus::kFeasible ||
              s.status == MilpStatus::kOptimal);
  if (s.status == MilpStatus::kFeasible) {
    EXPECT_GT(s.gap, 0.0);
  }
}

TEST(MilpStructured, ContinuousTieBreakDoesNotBranch) {
  // Only continuous variables fractional: must not branch at all.
  LpProblem p(Sense::kMaximize);
  const int n = p.add_variable("n", 0, 10, 1.0, VarType::kInteger);
  const int c = p.add_variable("c", 0, 1, 10.0);
  p.add_constraint({{{n, 1.0}, {c, 2.0}}, Relation::kLe, 4.5, ""});
  const auto s = BranchAndBound().solve(p);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_LE(s.nodes_explored, 3);
  // c = 1 (coeff 10 dominates), n = floor(4.5 - 2) = 2 -> obj 12.
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
}

class SimplexRandom3D : public ::testing::TestWithParam<int> {};

// 3-variable grid-reference property test (complements the 2-D sweep in
// solver_lp_test.cpp).
TEST_P(SimplexRandom3D, FeasibleAndNoWorseThanGrid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 523 + 11);
  LpProblem p(Sense::kMaximize);
  for (int j = 0; j < 3; ++j) {
    p.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 6.0),
                   rng.uniform(-2.0, 2.0));
  }
  const int rows = 1 + static_cast<int>(rng.uniform_index(3));
  for (int c = 0; c < rows; ++c) {
    Constraint con;
    for (int j = 0; j < 3; ++j) con.terms.push_back({j, rng.uniform(-1.5, 2.5)});
    con.rel = rng.bernoulli(0.6) ? Relation::kLe : Relation::kGe;
    con.rhs = rng.uniform(-3.0, 6.0);
    p.add_constraint(std::move(con));
  }
  // Coarse 40^3 grid reference.
  double best = -1e300;
  bool feasible = false;
  const int kGrid = 40;
  std::vector<double> x(3);
  for (int i = 0; i <= kGrid; ++i) {
    for (int j = 0; j <= kGrid; ++j) {
      for (int k = 0; k <= kGrid; ++k) {
        x[0] = p.upper_bound(0) * i / kGrid;
        x[1] = p.upper_bound(1) * j / kGrid;
        x[2] = p.upper_bound(2) * k / kGrid;
        if (!p.is_feasible(x, 1e-9)) continue;
        feasible = true;
        best = std::max(best, p.objective_value(x));
      }
    }
  }
  const auto s = SimplexSolver().solve(p);
  if (!feasible) {
    if (s.status == LpStatus::kOptimal) {
      EXPECT_TRUE(p.is_feasible(s.values, 1e-5));
    }
    return;
  }
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_TRUE(p.is_feasible(s.values, 1e-5));
  EXPECT_GE(s.objective, best - 0.4);  // coarse-grid slack
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom3D, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Seeded randomized differential suite: the bounded-variable solver vs an
// embedded copy of the seed dense two-phase simplex (upper bounds
// materialized as rows, full reduced-cost rescan per pivot). The reference
// is slow but was validated by the seed test matrix; the production solver
// must match its status and optimal objective on every generated problem.
// ---------------------------------------------------------------------------

namespace seedref {

constexpr double kTol = 1e-9;      // the seed solver's pivot / zero tolerance
constexpr double kFeasTol = 1e-7;  // and its phase-1 infeasibility slack

struct Tableau {
  int m = 0;
  int n = 0;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<int> basis;
  std::vector<bool> artificial;
  std::vector<bool> row_active;

  double& at(int i, int j) { return a[static_cast<std::size_t>(i) * n + j]; }
  double at(int i, int j) const {
    return a[static_cast<std::size_t>(i) * n + j];
  }
};

struct PivotResult {
  bool moved = false;
  bool unbounded = false;
  bool degenerate = false;
};

inline PivotResult pivot_step(Tableau& t, const std::vector<double>& cost,
                              bool bland, double tol) {
  int enter = -1;
  double best = -tol;
  for (int j = 0; j < t.n; ++j) {
    if (t.artificial[j]) continue;
    bool is_basic = false;
    double d = cost[j];
    for (int i = 0; i < t.m; ++i) {
      if (!t.row_active[i]) continue;
      const double aij = t.at(i, j);
      if (aij != 0.0) d -= cost[t.basis[i]] * aij;
      if (t.basis[i] == j) is_basic = true;
    }
    if (is_basic) continue;
    if (bland) {
      if (d < -tol) {
        enter = j;
        break;
      }
    } else if (d < best) {
      best = d;
      enter = j;
    }
  }
  if (enter < 0) return {};

  int leave_row = -1;
  double best_ratio = 0.0;
  for (int i = 0; i < t.m; ++i) {
    if (!t.row_active[i]) continue;
    const double aij = t.at(i, enter);
    if (aij > tol) {
      const double ratio = t.b[i] / aij;
      if (leave_row < 0 || ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && t.basis[i] < t.basis[leave_row])) {
        leave_row = i;
        best_ratio = ratio;
      }
    }
  }
  if (leave_row < 0) return {.moved = false, .unbounded = true};

  const bool degenerate = best_ratio < tol;
  const double inv = 1.0 / t.at(leave_row, enter);
  for (int j = 0; j < t.n; ++j) t.at(leave_row, j) *= inv;
  t.b[leave_row] *= inv;
  t.at(leave_row, enter) = 1.0;
  for (int i = 0; i < t.m; ++i) {
    if (i == leave_row || !t.row_active[i]) continue;
    const double factor = t.at(i, enter);
    if (factor == 0.0) continue;
    for (int j = 0; j < t.n; ++j) t.at(i, j) -= factor * t.at(leave_row, j);
    t.at(i, enter) = 0.0;
    t.b[i] -= factor * t.b[leave_row];
    if (t.b[i] < 0.0 && t.b[i] > -tol) t.b[i] = 0.0;
  }
  t.basis[leave_row] = enter;
  return {.moved = true, .unbounded = false, .degenerate = degenerate};
}

inline LpStatus run_simplex(Tableau& t, const std::vector<double>& cost,
                            const SimplexOptions& opt, int& iterations) {
  int degenerate_run = 0;
  bool bland = false;
  while (iterations < opt.max_iterations) {
    PivotResult r = pivot_step(t, cost, bland, kTol);
    if (r.unbounded) return LpStatus::kUnbounded;
    if (!r.moved) return LpStatus::kOptimal;
    ++iterations;
    if (r.degenerate) {
      if (++degenerate_run >= opt.degenerate_switch) bland = true;
    } else {
      degenerate_run = 0;
      bland = false;
    }
  }
  return LpStatus::kIterLimit;
}

inline LpSolution solve(const LpProblem& p, SimplexOptions options = {}) {
  const int nv = p.num_variables();
  LpSolution out;
  out.values.assign(nv, 0.0);

  std::vector<double> shift(nv);
  for (int j = 0; j < nv; ++j) shift[j] = p.lower_bound(j);

  struct Row {
    std::vector<std::pair<int, double>> terms;
    Relation rel;
    double rhs;
  };
  std::vector<Row> rows;
  for (const auto& c : p.constraints()) {
    double rhs = c.rhs;
    for (const auto& [var, coeff] : c.terms) rhs -= coeff * shift[var];
    rows.push_back({c.terms, c.rel, rhs});
  }
  for (int j = 0; j < nv; ++j) {
    const double hi = p.upper_bound(j);
    if (std::isfinite(hi)) {
      const double range = hi - shift[j];
      if (range < 0.0) {
        out.status = LpStatus::kInfeasible;
        return out;
      }
      rows.push_back({{{j, 1.0}}, Relation::kLe, range});
    }
  }

  const int m = static_cast<int>(rows.size());
  for (auto& r : rows) {
    if (r.rhs < 0.0) {
      r.rhs = -r.rhs;
      for (auto& [var, coeff] : r.terms) coeff = -coeff;
      r.rel = r.rel == Relation::kLe ? Relation::kGe
              : r.rel == Relation::kGe ? Relation::kLe
                                       : Relation::kEq;
    }
  }
  int n_slack = 0;
  int n_art = 0;
  for (const auto& r : rows) {
    if (r.rel != Relation::kEq) ++n_slack;
    if (r.rel != Relation::kLe) ++n_art;
  }

  Tableau t;
  t.m = m;
  t.n = nv + n_slack + n_art;
  t.a.assign(static_cast<std::size_t>(t.m) * t.n, 0.0);
  t.b.assign(m, 0.0);
  t.basis.assign(m, -1);
  t.artificial.assign(t.n, false);
  t.row_active.assign(m, true);

  int slack_col = nv;
  int art_col = nv + n_slack;
  for (int i = 0; i < m; ++i) {
    const Row& r = rows[i];
    for (const auto& [var, coeff] : r.terms) t.at(i, var) += coeff;
    t.b[i] = r.rhs;
    switch (r.rel) {
      case Relation::kLe:
        t.at(i, slack_col) = 1.0;
        t.basis[i] = slack_col;
        ++slack_col;
        break;
      case Relation::kGe:
        t.at(i, slack_col) = -1.0;
        ++slack_col;
        t.at(i, art_col) = 1.0;
        t.artificial[art_col] = true;
        t.basis[i] = art_col;
        ++art_col;
        break;
      case Relation::kEq:
        t.at(i, art_col) = 1.0;
        t.artificial[art_col] = true;
        t.basis[i] = art_col;
        ++art_col;
        break;
    }
  }

  out.iterations = 0;
  if (n_art > 0) {
    std::vector<double> phase1_cost(t.n, 0.0);
    for (int j = nv + n_slack; j < t.n; ++j) phase1_cost[j] = 1.0;
    int iters = out.iterations;
    LpStatus s = run_simplex(t, phase1_cost, options, iters);
    out.iterations = iters;
    if (s == LpStatus::kIterLimit) {
      out.status = LpStatus::kIterLimit;
      return out;
    }
    LOKI_CHECK(s != LpStatus::kUnbounded);
    double art_sum = 0.0;
    for (int i = 0; i < m; ++i) {
      if (t.artificial[t.basis[i]]) art_sum += t.b[i];
    }
    if (art_sum > kFeasTol) {
      out.status = LpStatus::kInfeasible;
      return out;
    }
    for (int i = 0; i < m; ++i) {
      if (!t.artificial[t.basis[i]]) continue;
      int enter = -1;
      for (int j = 0; j < nv + n_slack; ++j) {
        if (std::abs(t.at(i, j)) > kTol) {
          enter = j;
          break;
        }
      }
      if (enter < 0) {
        t.row_active[i] = false;
        continue;
      }
      const double inv = 1.0 / t.at(i, enter);
      for (int j = 0; j < t.n; ++j) t.at(i, j) *= inv;
      t.b[i] *= inv;
      for (int i2 = 0; i2 < m; ++i2) {
        if (i2 == i || !t.row_active[i2]) continue;
        const double factor = t.at(i2, enter);
        if (factor == 0.0) continue;
        for (int j = 0; j < t.n; ++j) t.at(i2, j) -= factor * t.at(i, j);
        t.b[i2] -= factor * t.b[i];
      }
      t.basis[i] = enter;
    }
  }

  const double sign = p.sense() == Sense::kMinimize ? 1.0 : -1.0;
  std::vector<double> cost(t.n, 0.0);
  for (int j = 0; j < nv; ++j) cost[j] = sign * p.objective_coeff(j);

  int iters = out.iterations;
  LpStatus s = run_simplex(t, cost, options, iters);
  out.iterations = iters;
  if (s != LpStatus::kOptimal) {
    out.status = s;
    return out;
  }

  std::vector<double> u(t.n, 0.0);
  for (int i = 0; i < m; ++i) {
    if (t.row_active[i]) u[t.basis[i]] = t.b[i];
  }
  for (int j = 0; j < nv; ++j) {
    double v = shift[j] + u[j];
    v = std::max(v, p.lower_bound(j));
    if (std::isfinite(p.upper_bound(j))) v = std::min(v, p.upper_bound(j));
    out.values[j] = v;
  }
  out.objective = p.objective_value(out.values);
  out.status = LpStatus::kOptimal;
  return out;
}

}  // namespace seedref

// Random LP generator shared by the differential tests: mixed relations,
// finite/infinite boxes, nonzero lower bounds, occasional duplicated rows
// (degeneracy) and over-constrained systems (infeasibility).
LpProblem random_lp(Rng& rng) {
  LpProblem p(rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int nvars = 2 + static_cast<int>(rng.uniform_index(4));  // 2..5
  for (int j = 0; j < nvars; ++j) {
    const double lo = rng.bernoulli(0.3) ? rng.uniform(-4.0, 2.0) : 0.0;
    const double hi =
        rng.bernoulli(0.35) ? kInf : lo + rng.uniform(0.5, 10.0);
    p.add_variable("x" + std::to_string(j), lo, hi, rng.uniform(-4.0, 4.0));
  }
  const int rows = 1 + static_cast<int>(rng.uniform_index(4));  // 1..4
  for (int c = 0; c < rows; ++c) {
    Constraint con;
    for (int j = 0; j < nvars; ++j) {
      if (rng.bernoulli(0.8)) con.terms.push_back({j, rng.uniform(-3.0, 3.0)});
    }
    if (con.terms.empty()) con.terms.push_back({0, 1.0});
    const double u = rng.uniform();
    con.rel = u < 0.5 ? Relation::kLe : u < 0.85 ? Relation::kGe
                                                 : Relation::kEq;
    con.rhs = rng.uniform(-6.0, 10.0);
    p.add_constraint(con);
    if (rng.bernoulli(0.15)) {
      // Duplicate the row (possibly scaled) to manufacture degeneracy /
      // redundant equalities.
      Constraint dup = con;
      const double scale = rng.bernoulli(0.5) ? 1.0 : 2.0;
      for (auto& [var, coeff] : dup.terms) coeff *= scale;
      dup.rhs *= scale;
      p.add_constraint(std::move(dup));
    }
  }
  return p;
}

class SolverDifferentialLp : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialLp, MatchesSeedReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  LpProblem p = random_lp(rng);
  const auto ref = seedref::solve(p);
  const auto got = SimplexSolver().solve(p);
  ASSERT_NE(ref.status, LpStatus::kIterLimit) << p.to_string();
  ASSERT_EQ(got.status, ref.status)
      << "new=" << to_string(got.status) << " seed=" << to_string(ref.status)
      << "\n" << p.to_string();
  if (ref.status != LpStatus::kOptimal) return;
  EXPECT_TRUE(p.is_feasible(got.values, 1e-5)) << p.to_string();
  // LP optima are unique in value: the new solver must be equal-or-better
  // (in the problem's sense) and cannot beat a true optimum materially.
  const double tol = 1e-5 * std::max(1.0, std::abs(ref.objective));
  if (p.sense() == Sense::kMaximize) {
    EXPECT_GE(got.objective, ref.objective - tol) << p.to_string();
    EXPECT_LE(got.objective, ref.objective + tol) << p.to_string();
  } else {
    EXPECT_LE(got.objective, ref.objective + tol) << p.to_string();
    EXPECT_GE(got.objective, ref.objective - tol) << p.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialLp, ::testing::Range(0, 110));

// Warm-start differential: a SimplexContext re-solved under a sequence of
// tightening bound overlays (exactly the branch-and-bound access pattern)
// must agree with a cold solve of the equivalent problem at every step.
class SolverDifferentialWarm : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialWarm, BoundOverlayResolvesMatchColdSolves) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271 + 17);
  LpProblem p = random_lp(rng);
  const int nv = p.num_variables();
  SimplexContext ctx(p);
  std::vector<double> lo(nv), hi(nv);
  for (int j = 0; j < nv; ++j) {
    lo[j] = p.lower_bound(j);
    hi[j] = p.upper_bound(j);
  }
  auto first = ctx.solve();
  {
    const auto cold = seedref::solve(p);
    ASSERT_EQ(first.status, cold.status) << p.to_string();
  }
  for (int step = 0; step < 6; ++step) {
    // Tighten a random variable the way branching does: floor the upper
    // bound or raise the lower bound around a point in the current box.
    const int j = static_cast<int>(rng.uniform_index(nv));
    const double span = std::isfinite(hi[j]) ? hi[j] - lo[j] : 4.0;
    const double cut = lo[j] + rng.uniform(0.0, span);
    if (rng.bernoulli(0.5)) {
      hi[j] = std::floor(cut);
      if (hi[j] < lo[j]) hi[j] = lo[j];
    } else {
      lo[j] = std::min(std::ceil(cut), hi[j]);
    }
    LpProblem q = p;
    for (int v = 0; v < nv; ++v) q.set_bounds(v, lo[v], hi[v]);
    const auto cold = seedref::solve(q);
    const auto warm = ctx.solve_with_bounds(lo, hi);
    ASSERT_NE(cold.status, LpStatus::kIterLimit) << q.to_string();
    ASSERT_EQ(warm.status, cold.status)
        << "step " << step << " warm=" << to_string(warm.status)
        << " cold=" << to_string(cold.status) << "\n" << q.to_string();
    if (cold.status != LpStatus::kOptimal) continue;
    EXPECT_TRUE(q.is_feasible(warm.values, 1e-5)) << q.to_string();
    const double tol = 1e-5 * std::max(1.0, std::abs(cold.objective));
    EXPECT_NEAR(warm.objective, cold.objective, tol)
        << "step " << step << "\n" << q.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialWarm,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Both column regimes of SimplexContext. The artificial columns are live
// only after a cold start that ran the artificial phase 1; every other
// tableau (dual cold start, crashed basis) skips them. These tests drive
// warm re-solves and snapshot restores from each regime and check them
// against the seed reference and the dual-start path.
// ---------------------------------------------------------------------------

/// Objectives agree to the differential tolerance.
void expect_same_objective(const LpSolution& got, const LpSolution& ref,
                           const LpProblem& q) {
  const double tol = 1e-5 * std::max(1.0, std::abs(ref.objective));
  EXPECT_NEAR(got.objective, ref.objective, tol) << q.to_string();
}

/// Bit-identical replay: same status, work counts, objective and values.
void expect_bit_identical(const LpSolution& a, const LpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.bound_flips, b.bound_flips);
  EXPECT_EQ(a.devex_resets, b.devex_resets);
  EXPECT_EQ(a.warm_started, b.warm_started);
  if (a.status != LpStatus::kOptimal) return;
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.values, b.values);
}

/// The tightening sequence of SolverDifferentialWarm, drawn up front so
/// several contexts can replay it.
std::vector<std::pair<std::vector<double>, std::vector<double>>>
branching_overlays(const LpProblem& p, Rng& rng, int steps) {
  const int nv = p.num_variables();
  std::vector<double> lo(nv), hi(nv);
  for (int j = 0; j < nv; ++j) {
    lo[j] = p.lower_bound(j);
    hi[j] = p.upper_bound(j);
  }
  std::vector<std::pair<std::vector<double>, std::vector<double>>> out;
  for (int step = 0; step < steps; ++step) {
    const int j = static_cast<int>(rng.uniform_index(nv));
    const double span = std::isfinite(hi[j]) ? hi[j] - lo[j] : 4.0;
    const double cut = lo[j] + rng.uniform(0.0, span);
    if (rng.bernoulli(0.5)) {
      hi[j] = std::max(std::floor(cut), lo[j]);
    } else {
      lo[j] = std::min(std::ceil(cut), hi[j]);
    }
    out.emplace_back(lo, hi);
  }
  return out;
}

LpProblem with_bounds(LpProblem p, const std::vector<double>& lo,
                      const std::vector<double>& hi) {
  for (int v = 0; v < p.num_variables(); ++v) p.set_bounds(v, lo[v], hi[v]);
  return p;
}

TEST(SimplexColumnRegimes, ArtificialPhaseOneThenWarmOverlays) {
  // dual_cold_start = false sends every cold solve whose slack basis is
  // infeasible through the artificial phase 1, so the warm overlays that
  // follow run with the artificial columns live; the default context takes
  // the dual start wherever it can and runs them dead.
  SimplexOptions two_phase;
  two_phase.dual_cold_start = false;
  int live = 0;
  for (int seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 5443 + 71);
    const LpProblem p = random_lp(rng);
    SimplexContext art(p, two_phase);
    SimplexContext dual(p);
    const auto ref = seedref::solve(p);
    const auto a0 = art.solve();
    const auto d0 = dual.solve();
    ASSERT_NE(ref.status, LpStatus::kIterLimit) << p.to_string();
    ASSERT_EQ(a0.status, ref.status) << p.to_string();
    ASSERT_EQ(d0.status, ref.status) << p.to_string();
    if (ref.status != LpStatus::kOptimal) continue;
    expect_same_objective(a0, ref, p);
    expect_same_objective(d0, ref, p);
    if (a0.phase1_iterations > 0) ++live;

    for (const auto& [lo, hi] : branching_overlays(p, rng, 6)) {
      const LpProblem q = with_bounds(p, lo, hi);
      const auto cold = seedref::solve(q);
      const auto aw = art.solve_with_bounds(lo, hi);
      const auto dw = dual.solve_with_bounds(lo, hi);
      ASSERT_NE(cold.status, LpStatus::kIterLimit) << q.to_string();
      ASSERT_EQ(aw.status, cold.status) << q.to_string();
      ASSERT_EQ(dw.status, cold.status) << q.to_string();
      if (cold.status != LpStatus::kOptimal) continue;
      EXPECT_TRUE(q.is_feasible(aw.values, 1e-5)) << q.to_string();
      expect_same_objective(aw, cold, q);
      expect_same_objective(dw, cold, q);
    }
  }
  // The artificial regime was actually exercised.
  EXPECT_GE(live, 10);
}

TEST(SimplexColumnRegimes, SnapshotRestoreAcrossColdRebuild) {
  // A snapshot taken with the artificial columns live, restored after a
  // rebuild left them dead (and the other way round), must resume exactly
  // where it was taken: replaying the same overlays gives the bits an
  // untouched twin context gives.
  SimplexOptions two_phase;
  two_phase.dual_cold_start = false;
  int covered = 0;
  for (int seed = 0; seed < 80; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 3307 + 29);
    const LpProblem p = random_lp(rng);
    SimplexContext ctx(p, two_phase);
    const auto first = ctx.solve();
    if (first.status != LpStatus::kOptimal || first.phase1_iterations == 0) {
      continue;  // no artificial phase 1 ran: nothing live to snapshot
    }
    const auto basis = ctx.basis_snapshot();
    if (!basis.valid()) continue;
    ++covered;
    const auto overlays = branching_overlays(p, rng, 5);

    // Twins that never restore: the live one keeps the phase-1 tableau, the
    // dead one rebuilds from the recorded basis (artificials zero again).
    SimplexContext live_twin(p, two_phase);
    live_twin.solve();
    SimplexContext dead_twin(p, two_phase);
    dead_twin.solve();
    const auto dead_root = dead_twin.solve_from_basis(basis);
    ASSERT_EQ(dead_root.status, LpStatus::kOptimal);
    expect_same_objective(dead_root, first, p);

    const auto live_state = ctx.snapshot();
    // Cold rebuild from the recorded basis: the artificial columns go dead.
    const auto rebuilt = ctx.solve_from_basis(basis);
    expect_bit_identical(rebuilt, dead_root);
    const auto dead_state = ctx.snapshot();

    std::vector<LpSolution> live_runs, dead_runs;
    for (const auto& [lo, hi] : overlays) {
      live_runs.push_back(live_twin.solve_with_bounds(lo, hi));
      dead_runs.push_back(dead_twin.solve_with_bounds(lo, hi));
    }
    // Live snapshot restored over the dead tableau, then the dead one over
    // whatever the live replay left behind.
    for (const auto* state : {&live_state, &dead_state}) {
      ASSERT_TRUE(ctx.restore(*state));
      const auto& expected = state == &live_state ? live_runs : dead_runs;
      for (std::size_t k = 0; k < overlays.size(); ++k) {
        SCOPED_TRACE("overlay " + std::to_string(k));
        const auto& [lo, hi] = overlays[k];
        const auto got = ctx.solve_with_bounds(lo, hi);
        expect_bit_identical(got, expected[k]);
        // And the answer is right: the reference and a fresh dual-start
        // context on the overlaid problem agree with it.
        const LpProblem q = with_bounds(p, lo, hi);
        const auto cold = seedref::solve(q);
        const auto fresh = SimplexSolver().solve(q);
        ASSERT_EQ(got.status, cold.status) << q.to_string();
        ASSERT_EQ(fresh.status, cold.status) << q.to_string();
        if (cold.status != LpStatus::kOptimal) continue;
        expect_same_objective(got, cold, q);
        expect_same_objective(fresh, cold, q);
      }
    }
  }
  EXPECT_GE(covered, 10);
}

// Random MILP generator: 2-3 variables in [0, 2..5], mostly integer, and
// 1-3 dense rows, some of which make the model infeasible.
LpProblem random_milp(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 4409 + 23);
  const int nvars = 2 + static_cast<int>(rng.uniform_index(2));  // 2..3
  const int ub = 2 + static_cast<int>(rng.uniform_index(4));     // 2..5
  LpProblem p(rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize);
  for (int j = 0; j < nvars; ++j) {
    p.add_variable("x" + std::to_string(j), 0, ub, rng.uniform(-5.0, 5.0),
                   rng.bernoulli(0.8) ? VarType::kInteger
                                      : VarType::kContinuous);
  }
  const int rows = 1 + static_cast<int>(rng.uniform_index(3));
  for (int c = 0; c < rows; ++c) {
    Constraint con;
    for (int j = 0; j < nvars; ++j) {
      con.terms.push_back({j, rng.uniform(-3.0, 3.0)});
    }
    const double u = rng.uniform();
    con.rel = u < 0.6 ? Relation::kLe : u < 0.9 ? Relation::kGe
                                                : Relation::kEq;
    con.rhs = rng.uniform(-5.0, 12.0);
    p.add_constraint(std::move(con));
  }
  return p;
}

// Random MILP generator + exhaustive integer-box enumeration reference.
class SolverDifferentialMilp : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialMilp, MatchesExhaustiveEnumeration) {
  const LpProblem p = random_milp(GetParam());
  const int nvars = p.num_variables();
  const int ub = static_cast<int>(p.upper_bound(0));

  // Reference: enumerate integer assignments; for each, solve the remaining
  // continuous variables with the (already differentially validated) seed
  // LP reference by fixing the integer bounds.
  bool any = false;
  double ref = 0.0;
  std::vector<int> ivars, cvars;
  for (int j = 0; j < nvars; ++j) {
    (p.var_type(j) == VarType::kInteger ? ivars : cvars).push_back(j);
  }
  const int total = static_cast<int>(
      std::pow(ub + 1, static_cast<double>(ivars.size())));
  for (int code = 0; code < total; ++code) {
    LpProblem q = p;
    int rem = code;
    for (int idx : ivars) {
      const double v = rem % (ub + 1);
      rem /= (ub + 1);
      q.set_bounds(idx, v, v);
    }
    const auto sub = seedref::solve(q);
    if (sub.status != LpStatus::kOptimal) continue;
    const double v = sub.objective;
    const bool better = p.sense() == Sense::kMaximize ? v > ref : v < ref;
    if (!any || better) ref = v;
    any = true;
  }

  const auto s = BranchAndBound().solve(p);
  if (!any) {
    EXPECT_EQ(s.status, MilpStatus::kInfeasible) << p.to_string();
    return;
  }
  ASSERT_EQ(s.status, MilpStatus::kOptimal)
      << to_string(s.status) << "\n" << p.to_string();
  EXPECT_TRUE(p.is_feasible(s.values, 1e-5)) << p.to_string();
  EXPECT_NEAR(s.objective, ref, 1e-5 * std::max(1.0, std::abs(ref)))
      << p.to_string();
  // The warm-start machinery must actually engage: every explored node
  // after the first re-uses the shared basis unless it had to cold-solve.
  EXPECT_EQ(s.nodes_explored, s.warm_start_hits + s.cold_solves);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialMilp,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------------
// Presolve differential suite: every random LP of the seeded generator runs
// through presolve -> reduced solve -> postsolve against a direct solve —
// statuses must match, optimal objectives must agree, and postsolved points
// must be feasible for the ORIGINAL model.
// ---------------------------------------------------------------------------

class SolverDifferentialPresolve : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialPresolve, PostsolvedSolutionMatchesDirectSolve) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  LpProblem p = random_lp(rng);  // same problems as the seedref suite
  const auto direct = SimplexSolver().solve(p);
  ASSERT_NE(direct.status, LpStatus::kIterLimit) << p.to_string();

  const auto pr = presolve(p);
  if (pr.infeasible) {
    // Presolve may prove infeasibility outright, but never invent it.
    EXPECT_EQ(direct.status, LpStatus::kInfeasible) << p.to_string();
    return;
  }
  EXPECT_EQ(pr.post.original_variables(), p.num_variables());
  EXPECT_EQ(pr.post.reduced_variables(), pr.problem.num_variables());

  if (pr.problem.num_variables() == 0) {
    // Fully solved by presolve: the fixed point must be the optimum.
    ASSERT_EQ(direct.status, LpStatus::kOptimal) << p.to_string();
    const auto x = pr.post.restore_point({});
    EXPECT_TRUE(p.is_feasible(x, 1e-5)) << p.to_string();
    EXPECT_NEAR(p.objective_value(x), direct.objective,
                1e-5 * std::max(1.0, std::abs(direct.objective)));
    return;
  }

  const auto reduced = SimplexSolver().solve(pr.problem);
  ASSERT_EQ(reduced.status, direct.status)
      << "reduced=" << to_string(reduced.status)
      << " direct=" << to_string(direct.status) << "\n" << p.to_string()
      << "reduced model:\n" << pr.problem.to_string();
  if (direct.status != LpStatus::kOptimal) return;

  const auto x = pr.post.restore_point(reduced.values);
  EXPECT_TRUE(p.is_feasible(x, 1e-5)) << p.to_string();
  const double tol = 1e-5 * std::max(1.0, std::abs(direct.objective));
  EXPECT_NEAR(p.objective_value(x), direct.objective, tol) << p.to_string();
  // The reduced problem's own objective (the offset absorbs fixed
  // variables) must agree too.
  EXPECT_NEAR(reduced.objective, direct.objective, tol) << p.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialPresolve,
                         ::testing::Range(0, 110));

// Two chains of equalities (v0 = 1, v0 + v1 = 3, v1 + v2 = 3, v2 + v3 = 3)
// turn singleton one row per pass, so the passes run out with v3 fixed in
// the last one and still in the row that couples the chains: the fold after
// the passes substitutes it, and that row, now empty, is checked there.
TEST(Presolve, ChainsLongerThanThePassesAreFoldedAfterThem) {
  for (const double cap : {10.0, 3.0}) {  // a3 + b3 = 4 fits 10, not 3
    SCOPED_TRACE("cap " + std::to_string(cap));
    LpProblem p(Sense::kMinimize);
    int last[2] = {-1, -1};
    for (int chain = 0; chain < 2; ++chain) {
      for (int k = 0; k < 4; ++k) {
        const int v = p.add_variable(std::string(1, "ab"[chain]) +
                                         std::to_string(k),
                                     0.0, 10.0, 1.0);
        if (k == 0) {
          p.add_constraint({{{v, 1.0}}, Relation::kEq, 1.0, ""});
        } else {
          p.add_constraint({{{v - 1, 1.0}, {v, 1.0}}, Relation::kEq, 3.0, ""});
        }
        last[chain] = v;
      }
    }
    p.add_constraint(
        {{{last[0], 1.0}, {last[1], 1.0}}, Relation::kLe, cap, "couple"});
    const auto pr = presolve(p);
    if (cap < 4.0) {
      EXPECT_TRUE(pr.infeasible);
      EXPECT_EQ(SimplexSolver().solve(p).status, LpStatus::kInfeasible);
      continue;
    }
    ASSERT_FALSE(pr.infeasible);
    EXPECT_EQ(pr.problem.num_variables(), 0);
    EXPECT_EQ(pr.problem.num_constraints(), 0);
    EXPECT_EQ(pr.stats.cols_removed, 8);
    EXPECT_EQ(pr.stats.rows_removed, 9);
    const std::vector<double> want = {1, 2, 1, 2, 1, 2, 1, 2};
    EXPECT_EQ(pr.post.restore_point({}), want);
  }
}

// A singleton row that crosses a continuous variable's other bound by less
// than presolve's slack fixes the variable at the row's value instead of
// proving the model infeasible.
TEST(Presolve, SingletonWithinSlackOfTheOtherBoundFixesTheVariable) {
  LpProblem p(Sense::kMinimize);
  const int x = p.add_variable("x", 0.0, 1.0, 1.0);
  const int y = p.add_variable("y", 0.0, 4.0, 1.0);
  const double v = 1.0 + 5e-10;
  p.add_constraint({{{x, 1.0}}, Relation::kGe, v, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Relation::kGe, 2.0, ""});
  const auto pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.stats.cols_removed, 1);
  EXPECT_EQ(pr.post.reduced_index()[x], -1);
  ASSERT_EQ(pr.problem.num_variables(), 1);
  const auto reduced = SimplexSolver().solve(pr.problem);
  ASSERT_EQ(reduced.status, LpStatus::kOptimal);
  const auto point = pr.post.restore_point(reduced.values);
  EXPECT_EQ(point[x], v);
  EXPECT_NEAR(point[y], 2.0 - v, 1e-9);
}

// Branch-and-bound with presolve on vs off over the random MILPs: equal
// statuses and objectives, feasible values either way.
class SolverDifferentialMilpPresolve : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialMilpPresolve, PresolveOnOffAgree) {
  const LpProblem p = random_milp(GetParam());

  MilpOptions with;
  with.presolve = true;
  MilpOptions without;
  without.presolve = false;
  const auto a = BranchAndBound(with).solve(p);
  const auto b = BranchAndBound(without).solve(p);
  ASSERT_EQ(a.status, b.status)
      << "presolve-on=" << to_string(a.status)
      << " presolve-off=" << to_string(b.status) << "\n" << p.to_string();
  if (a.status != MilpStatus::kOptimal) return;
  EXPECT_TRUE(p.is_feasible(a.values, 1e-5)) << p.to_string();
  EXPECT_TRUE(p.is_feasible(b.values, 1e-5)) << p.to_string();
  EXPECT_NEAR(a.objective, b.objective,
              1e-5 * std::max(1.0, std::abs(a.objective)))
      << p.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialMilpPresolve,
                         ::testing::Range(0, 50));

bool has_incumbent(const MilpSolution& s) {
  return s.status == MilpStatus::kOptimal || s.status == MilpStatus::kFeasible;
}

// find_feasible, the search stopped at its first incumbent, ends feasible
// exactly when the full search does on the random MILPs above: with the
// default node budget, and with budgets of 1-3 nodes that truncate the full
// search before or after its first incumbent. It explores a prefix of the
// full search's nodes, all of them when it never finds an incumbent. It has
// no ResolveSession to touch.
TEST(MilpFirstIncumbent, FeasibleExactlyWhenTheFullSearchIs) {
  int infeasible = 0, truncated_empty = 0, truncated_feasible = 0;
  int stopped_early = 0;
  for (int seed = 0; seed < 50; ++seed) {
    const LpProblem p = random_milp(seed);
    for (const int max_nodes : {200000, 3, 2, 1}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", max_nodes " +
                   std::to_string(max_nodes));
      MilpOptions opts;
      opts.max_nodes = max_nodes;
      const BranchAndBound bnb(opts);
      const MilpSolution full = bnb.solve(p);
      const MilpSolution stopped = bnb.find_feasible(p);
      ASSERT_EQ(has_incumbent(stopped), has_incumbent(full))
          << to_string(stopped.status) << " vs " << to_string(full.status)
          << "\n" << p.to_string();
      EXPECT_LE(stopped.nodes_explored, full.nodes_explored);
      infeasible += full.status == MilpStatus::kInfeasible;
      truncated_empty += full.status == MilpStatus::kNoSolution;
      truncated_feasible += full.status == MilpStatus::kFeasible;
      if (!has_incumbent(full)) {
        EXPECT_EQ(stopped.status, full.status);
        EXPECT_EQ(stopped.nodes_explored, full.nodes_explored);
        EXPECT_EQ(stopped.lp_iterations, full.lp_iterations);
        continue;
      }
      stopped_early += stopped.nodes_explored < full.nodes_explored;
      std::vector<double> x = stopped.values;
      EXPECT_TRUE(p.is_feasible(x, 1e-5)) << p.to_string();
      for (int j = 0; j < p.num_variables(); ++j) {
        if (p.var_type(j) == VarType::kContinuous) continue;
        EXPECT_EQ(x[j], std::round(x[j])) << p.to_string();
      }
      // A feasible warm start is the first incumbent: no node LP runs.
      const MilpSolution warm = bnb.find_feasible(p, full.values);
      EXPECT_TRUE(has_incumbent(warm));
      EXPECT_EQ(warm.nodes_explored, 0);
    }
  }
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(truncated_empty, 0);
  EXPECT_GT(truncated_feasible, 0);
  EXPECT_GT(stopped_early, 0);
}

}  // namespace
}  // namespace loki::solver
