// Simplex solver tests: known LPs, edge cases (infeasible / unbounded /
// degenerate / equality-only), a property sweep comparing against a
// brute-force active-set reference on random 2- and 3-variable problems,
// and the row kernels' AVX2 build against the portable one, bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "solver/kernels.hpp"
#include "solver/simplex.hpp"

namespace loki::solver {
namespace {

LpSolution solve(const LpProblem& p) { return SimplexSolver().solve(p); }

TEST(Simplex, SimpleMaximize) {
  // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6; opt at (4, 0): 12.
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 3.0);
  const int y = p.add_variable("y", 0, kInf, 2.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kLe, 4.0, "c1"});
  p.add_constraint({{{x, 1}, {y, 3}}, Relation::kLe, 6.0, "c2"});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.values[x], 4.0, 1e-7);
  EXPECT_NEAR(s.values[y], 0.0, 1e-7);
}

TEST(Simplex, SimpleMinimizeWithGe) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2; opt (10, 0) -> wait y can be 0,
  // x = 10: obj 20. But x cheaper so all x.
  LpProblem p(Sense::kMinimize);
  const int x = p.add_variable("x", 2.0, kInf, 2.0);
  const int y = p.add_variable("y", 0, kInf, 3.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kGe, 10.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-7);
  EXPECT_NEAR(s.values[x], 10.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y  s.t. x + 2y == 6, x <= 4: opt x=4, y=1 -> 5.
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, 4.0, 1.0);
  const int y = p.add_variable("y", 0, kInf, 1.0);
  p.add_constraint({{{x, 1}, {y, 2}}, Relation::kEq, 6.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 4.0, 1e-7);
  EXPECT_NEAR(s.values[y], 1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  p.add_constraint({{{x, 1}}, Relation::kGe, 5.0, ""});
  p.add_constraint({{{x, 1}}, Relation::kLe, 3.0, ""});
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsEmptyBoundBox) {
  // Bounds and constraints that cannot intersect.
  LpProblem q(Sense::kMaximize);
  const int y = q.add_variable("y", 0, 1.0, 1.0);
  q.add_constraint({{{y, 1}}, Relation::kGe, 2.0, ""});
  EXPECT_EQ(solve(q).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  const int y = p.add_variable("y", 0, kInf, 0.0);
  p.add_constraint({{{x, 1}, {y, -1}}, Relation::kLe, 1.0, ""});
  EXPECT_EQ(solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesShiftedLowerBounds) {
  // min x + y with x >= 5, y >= 3, x + y >= 10.
  LpProblem p(Sense::kMinimize);
  const int x = p.add_variable("x", 5.0, kInf, 1.0);
  const int y = p.add_variable("y", 3.0, kInf, 1.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kGe, 10.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-7);
  EXPECT_GE(s.values[x], 5.0 - 1e-9);
  EXPECT_GE(s.values[y], 3.0 - 1e-9);
}

TEST(Simplex, RespectsUpperBounds) {
  LpProblem p(Sense::kMaximize);
  p.add_variable("x", 0, 2.5, 1.0);
  p.add_variable("y", 0, 1.5, 1.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (redundant constraints through the origin).
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 0.75);
  const int y = p.add_variable("y", 0, kInf, -150.0);
  const int z = p.add_variable("z", 0, kInf, 0.02);
  const int w = p.add_variable("w", 0, kInf, -6.0);
  p.add_constraint({{{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}},
                    Relation::kLe, 0.0, ""});
  p.add_constraint({{{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}},
                    Relation::kLe, 0.0, ""});
  p.add_constraint({{{z, 1.0}}, Relation::kLe, 1.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);  // Beale's example, opt = 0.05
  EXPECT_NEAR(s.objective, 0.05, 1e-6);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality rows force a leftover artificial at zero.
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  const int y = p.add_variable("y", 0, kInf, 1.0);
  p.add_constraint({{{x, 1}, {y, 1}}, Relation::kEq, 3.0, ""});
  p.add_constraint({{{x, 2}, {y, 2}}, Relation::kEq, 6.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, MergesDuplicateTerms) {
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInf, 1.0);
  // x + x <= 4  ->  2x <= 4.
  p.add_constraint({{{x, 1}, {x, 1}}, Relation::kLe, 4.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-7);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  LpProblem p(Sense::kMaximize);
  p.add_variable("x", 0, 1.0, 2.0);
  p.set_objective_offset(10.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
}

TEST(Simplex, ZeroDemandStyleAllocationLp) {
  // A miniature of the Resource Manager's step-1 model at zero demand:
  // min n1 + n2 s.t. n_i >= 1, capacity constraints trivially satisfied.
  LpProblem p(Sense::kMinimize);
  const int n1 = p.add_variable("n1", 0, 20, 1.0);
  const int n2 = p.add_variable("n2", 0, 20, 1.0);
  p.add_constraint({{{n1, 1}}, Relation::kGe, 1.0, ""});
  p.add_constraint({{{n2, 1}}, Relation::kGe, 1.0, ""});
  p.add_constraint({{{n1, 1}, {n2, 1}}, Relation::kLe, 20.0, ""});
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Property test: random small LPs vs a brute-force active-set reference.
// ---------------------------------------------------------------------------

// Reference: enumerate all vertex candidates (intersections of n constraint
// hyperplanes drawn from rows + bounds), keep feasible ones, take the best.
// Exponential, but exact for tiny problems.
double brute_force_lp_2d(const LpProblem& p, bool* feasible) {
  // Dense scan over a fine grid is robust for 2 variables with bounded box.
  const double lo0 = p.lower_bound(0), hi0 = p.upper_bound(0);
  const double lo1 = p.lower_bound(1), hi1 = p.upper_bound(1);
  const int kGrid = 400;
  double best = -1e300;
  *feasible = false;
  for (int i = 0; i <= kGrid; ++i) {
    for (int j = 0; j <= kGrid; ++j) {
      std::vector<double> x{
          lo0 + (hi0 - lo0) * i / static_cast<double>(kGrid),
          lo1 + (hi1 - lo1) * j / static_cast<double>(kGrid)};
      if (!p.is_feasible(x, 1e-9)) continue;
      *feasible = true;
      const double v = p.objective_value(x);
      if (v > best) best = v;
    }
  }
  return best;
}

class SimplexRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp, MatchesGridReferenceOn2D) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  LpProblem p(Sense::kMaximize);
  const int x = p.add_variable("x", 0.0, rng.uniform(1.0, 10.0),
                               rng.uniform(-3.0, 3.0));
  const int y = p.add_variable("y", 0.0, rng.uniform(1.0, 10.0),
                               rng.uniform(-3.0, 3.0));
  const int rows = 1 + static_cast<int>(rng.uniform_index(3));
  for (int c = 0; c < rows; ++c) {
    Constraint con;
    con.terms = {{x, rng.uniform(-2.0, 3.0)}, {y, rng.uniform(-2.0, 3.0)}};
    con.rel = rng.bernoulli(0.5) ? Relation::kLe : Relation::kGe;
    con.rhs = rng.uniform(-4.0, 8.0);
    p.add_constraint(std::move(con));
  }
  bool feasible = false;
  const double ref = brute_force_lp_2d(p, &feasible);
  const auto s = solve(p);
  if (!feasible) {
    // The grid may miss a sliver-thin feasible region; only require that
    // simplex does not report a *better-than-possible* optimum.
    if (s.status == LpStatus::kOptimal) {
      EXPECT_TRUE(p.is_feasible(s.values, 1e-5));
    }
    return;
  }
  ASSERT_EQ(s.status, LpStatus::kOptimal)
      << "grid found a feasible point but simplex says "
      << to_string(s.status);
  EXPECT_TRUE(p.is_feasible(s.values, 1e-5));
  // Grid reference is approximate: allow resolution slack.
  EXPECT_GE(s.objective, ref - 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLp, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Row kernels: the AVX2 build must give the portable build's bits. The
// entries include signed zeros (often, as in the sparse tableau rows),
// subnormal, tiny and huge magnitudes, so a fused multiply-subtract or an
// unmasked zero entry (d = -0.0 minus a -0.0 product is +0.0) shows.
// ---------------------------------------------------------------------------

double kernel_entry(Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
  switch (rng.uniform_index(8)) {
    case 0:
    case 1: return sign * 0.0;
    case 2:  // subnormal
      return sign * 4.9e-324 * static_cast<double>(rng.uniform_int(1, 1 << 20));
    case 3: return sign * rng.uniform(1e-308, 1e-290);   // tiny
    case 4: return sign * rng.uniform(1e290, 1e300);     // huge
    default: return sign * rng.uniform(1e-3, 1e3);       // ordinary
  }
}

std::vector<double> kernel_entries(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = kernel_entry(rng);
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

const kernels::Kernels* avx2_or_skip() {
  const kernels::Kernels* v = kernels::avx2();
  EXPECT_EQ(&kernels::active(), v != nullptr ? v : &kernels::portable());
  return v;
}

TEST(SimplexKernels, RowUpdatesMatchPortableBitForBit) {
  const kernels::Kernels* v = avx2_or_skip();
  if (v == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  const kernels::Kernels& p = kernels::portable();
  Rng rng(0x5eed01);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 71));
    const int nrows = static_cast<int>(rng.uniform_int(0, 9));
    std::vector<std::vector<double>> rows;
    std::vector<const double*> ptrs;
    const std::vector<double> ys = kernel_entries(rng, nrows);
    for (int k = 0; k < nrows; ++k) rows.push_back(kernel_entries(rng, n));
    for (const auto& r : rows) ptrs.push_back(r.data());
    const std::vector<double> d0 = kernel_entries(rng, n);
    for (int k = 0; k < nrows; ++k) {
      std::vector<double> a = d0, b = d0;
      p.row_update(a.data(), ptrs[k], ys[k], n);
      v->row_update(b.data(), ptrs[k], ys[k], n);
      ASSERT_TRUE(same_bits(a, b)) << "row_update, trial " << trial;
    }
    // The rebuild: every row in turn on one d.
    std::vector<double> a = d0, b = d0;
    for (int k = 0; k < nrows; ++k) {
      p.row_update(a.data(), ptrs[k], ys[k], n);
      v->row_update(b.data(), ptrs[k], ys[k], n);
    }
    ASSERT_TRUE(same_bits(a, b)) << "rebuild, trial " << trial;
  }
}

TEST(SimplexKernels, EliminationMatchesPortableBitForBit) {
  const kernels::Kernels* v = avx2_or_skip();
  if (v == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  const kernels::Kernels& p = kernels::portable();
  Rng rng(0x5eed02);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 71));
    const std::size_t stride = static_cast<std::size_t>(n) + 3;
    const int m = static_cast<int>(rng.uniform_int(1, 13));
    const int q = static_cast<int>(rng.uniform_index(n));
    std::vector<double> rowr = kernel_entries(rng, n);
    rowr[q] = 1.0;  // a scaled pivot row
    const std::vector<double> a0 = kernel_entries(rng, stride * m);
    std::vector<int> rows;
    for (int i = 0; i < m; ++i) {
      if (rng.bernoulli(0.7)) rows.push_back(i);
    }
    const std::vector<double> d0 = kernel_entries(rng, n);
    const double dq = rng.bernoulli(0.2) ? 0.0 : kernel_entry(rng);
    std::vector<double> a1 = a0, a2 = a0, d1 = d0, d2 = d0;
    std::vector<int> nz(n);
    p.eliminate(a1.data(), stride, rows.data(), static_cast<int>(rows.size()),
                rowr.data(), q, n, d1.data(), dq, nz.data());
    v->eliminate(a2.data(), stride, rows.data(), static_cast<int>(rows.size()),
                 rowr.data(), q, n, d2.data(), dq, nz.data());
    ASSERT_TRUE(same_bits(a1, a2)) << "tableau, trial " << trial;
    ASSERT_TRUE(same_bits(d1, d2)) << "reduced costs, trial " << trial;
  }
}

TEST(SimplexKernels, BasicValuesMatchPortableBitForBit) {
  const kernels::Kernels* v = avx2_or_skip();
  if (v == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  const kernels::Kernels& p = kernels::portable();
  Rng rng(0x5eed03);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 71));
    const int m = static_cast<int>(rng.uniform_int(1, 13));
    const std::size_t stride = static_cast<std::size_t>(n) + 1;
    const std::vector<double> a = kernel_entries(rng, stride * m);
    const std::vector<double> bvec = kernel_entries(rng, m);
    const std::vector<double> val = kernel_entries(rng, n);
    std::vector<int> rows, cols;
    for (int i = 0; i < m; ++i) {
      if (rng.bernoulli(0.8)) rows.push_back(i);
    }
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) cols.push_back(j);
    }
    std::vector<double> x1 = kernel_entries(rng, m), x2 = x1;
    p.basic_values(a.data(), stride, rows.data(), static_cast<int>(rows.size()),
                   bvec.data(), cols.data(), static_cast<int>(cols.size()),
                   val.data(), x1.data());
    v->basic_values(a.data(), stride, rows.data(),
                    static_cast<int>(rows.size()), bvec.data(), cols.data(),
                    static_cast<int>(cols.size()), val.data(), x2.data());
    ASSERT_TRUE(same_bits(x1, x2)) << "trial " << trial;
  }
}

TEST(SimplexKernels, RatioTestAndPricingPickThePortableColumn) {
  const kernels::Kernels* v = avx2_or_skip();
  if (v == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  const kernels::Kernels& p = kernels::portable();
  Rng rng(0x5eed04);
  // Half the trials draw from a few values, so ties and near-ties within
  // the tolerance decide the pick.
  const double coarse[] = {0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e-10, -1e-10};
  for (int trial = 0; trial < 2000; ++trial) {
    const bool ties = trial % 2 == 0;
    const int n = static_cast<int>(rng.uniform_int(0, 71));
    auto entry = [&]() {
      return ties ? coarse[rng.uniform_index(8)] : kernel_entry(rng);
    };
    std::vector<double> rowr(n), d(n), lo(n), hi(n), w(n);
    std::vector<kernels::ColumnState> state(n);
    for (int j = 0; j < n; ++j) {
      rowr[j] = entry();
      d[j] = entry();
      state[j] = static_cast<kernels::ColumnState>(rng.uniform_index(3));
      lo[j] = rng.bernoulli(0.5) ? 0.0 : -1.0;
      hi[j] = rng.bernoulli(0.15) ? lo[j] : 4.0;  // some fixed columns
      w[j] = rng.bernoulli(0.5) ? 1.0 : rng.uniform(1.0, 1e4);
    }
    for (const double tol : {1e-9, 0.0}) {
      for (const bool below : {false, true}) {
        EXPECT_EQ(p.dual_ratio(rowr.data(), d.data(), state.data(), lo.data(),
                               hi.data(), n, below, tol),
                  v->dual_ratio(rowr.data(), d.data(), state.data(), lo.data(),
                                hi.data(), n, below, tol))
            << "trial " << trial;
      }
      for (const double* weights : {static_cast<const double*>(nullptr),
                                    static_cast<const double*>(w.data())}) {
        for (const bool bland : {false, true}) {
          int dir_p = 0, dir_v = 0;
          EXPECT_EQ(p.price(d.data(), state.data(), lo.data(), hi.data(),
                            weights, n, tol, bland, &dir_p),
                    v->price(d.data(), state.data(), lo.data(), hi.data(),
                             weights, n, tol, bland, &dir_v))
              << "trial " << trial;
          EXPECT_EQ(dir_p, dir_v) << "trial " << trial;
        }
      }
    }
  }
}

}  // namespace
}  // namespace loki::solver
