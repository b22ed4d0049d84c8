#include "solver/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace loki::solver {

namespace {

constexpr double kHuge = 1e30;  // anything past this reads as "no bound"

/// Nearest power of two to `g` (g > 0), as an exact double.
double pow2_near(double g) {
  if (!(g > 0.0) || !std::isfinite(g)) return 1.0;
  const double e = std::round(std::log2(g));
  if (e < -512.0 || e > 512.0) return 1.0;  // refuse absurd scales
  return std::ldexp(1.0, static_cast<int>(e));
}

struct WorkRow {
  std::vector<std::pair<int, double>> terms;
  Relation rel = Relation::kLe;
  double rhs = 0.0;
  std::string name;
  bool alive = true;
};

}  // namespace

std::vector<double> Postsolve::restore_point(
    const std::vector<double>& reduced) const {
  LOKI_CHECK(static_cast<int>(reduced.size()) == reduced_variables());
  std::vector<double> out(red_idx_.size());
  for (std::size_t j = 0; j < red_idx_.size(); ++j) {
    const int k = red_idx_[j];
    // Multiplying by a power of two is exact, so the restored value is the
    // reduced value bit-for-bit up to the recorded exponent shift.
    out[j] = k < 0 ? fixed_val_[j]
                   : reduced[static_cast<std::size_t>(k)] *
                         col_scale_[static_cast<std::size_t>(k)];
  }
  return out;
}

PresolveResult presolve(const LpProblem& p, const PresolveOptions& opt) {
  PresolveResult res;
  const int nv = p.num_variables();

  std::vector<double> lo(static_cast<std::size_t>(nv));
  std::vector<double> hi(static_cast<std::size_t>(nv));
  std::vector<bool> fixed(static_cast<std::size_t>(nv), false);
  std::vector<double> fixed_val(static_cast<std::size_t>(nv), 0.0);
  for (int j = 0; j < nv; ++j) {
    lo[j] = p.lower_bound(j);
    hi[j] = p.upper_bound(j);
  }
  std::vector<WorkRow> rows;
  rows.reserve(p.constraints().size());
  for (const auto& c : p.constraints()) {
    rows.push_back({c.terms, c.rel, c.rhs, c.name, true});
  }

  const auto fail = [&res]() {
    res.infeasible = true;
    return res;
  };

  // Rounds an integer variable's box to the integer grid; returns false on
  // an empty box.
  auto round_integer_box = [&](int j) {
    if (p.var_type(j) == VarType::kContinuous) return true;
    if (std::isfinite(lo[j])) lo[j] = std::ceil(lo[j] - opt.int_tol);
    if (std::isfinite(hi[j])) hi[j] = std::floor(hi[j] + opt.int_tol);
    return lo[j] <= hi[j];
  };

  auto tighten_lo = [&](int j, double v) {
    if (!(v > lo[j])) return false;
    lo[j] = v;
    ++res.stats.bounds_tightened;
    return true;
  };
  auto tighten_hi = [&](int j, double v) {
    if (!(v < hi[j])) return false;
    hi[j] = v;
    ++res.stats.bounds_tightened;
    return true;
  };

  bool changed = true;
  for (int pass = 0; pass < opt.max_passes && changed; ++pass) {
    changed = false;

    for (auto& row : rows) {
      if (!row.alive) continue;

      // Substitute fixed variables into the row and drop explicit zero
      // coefficients (the allocation models generate them at zero demand);
      // a zero term carries no information but would poison the activity
      // sums (0 * inf) and the implied-bound division below.
      {
        std::size_t out = 0;
        for (std::size_t t = 0; t < row.terms.size(); ++t) {
          const auto [var, coeff] = row.terms[t];
          if (coeff == 0.0) {
            changed = true;
          } else if (opt.substitute_fixed &&
                     fixed[static_cast<std::size_t>(var)]) {
            row.rhs -= coeff * fixed_val[static_cast<std::size_t>(var)];
            changed = true;
          } else {
            row.terms[out++] = row.terms[t];
          }
        }
        row.terms.resize(out);
      }

      // Empty row: consistent or infeasible, then gone.
      if (opt.eliminate_rows && row.terms.empty()) {
        const bool ok = row.rel == Relation::kLe   ? row.rhs >= -opt.feas_tol
                        : row.rel == Relation::kGe ? row.rhs <= opt.feas_tol
                                                   : std::abs(row.rhs) <=
                                                         opt.feas_tol;
        if (!ok) return fail();
        row.alive = false;
        ++res.stats.rows_removed;
        changed = true;
        continue;
      }

      // Singleton row: fold into the variable's box.
      if (opt.eliminate_rows && row.terms.size() == 1) {
        const auto [j, a] = row.terms.front();
        if (a == 0.0) {
          // Degenerate coefficient: behaves like an empty row.
          const bool ok = row.rel == Relation::kLe   ? row.rhs >= -opt.feas_tol
                          : row.rel == Relation::kGe ? row.rhs <= opt.feas_tol
                                                     : std::abs(row.rhs) <=
                                                           opt.feas_tol;
          if (!ok) return fail();
        } else {
          const double v = row.rhs / a;
          const bool upper = (row.rel == Relation::kLe) == (a > 0.0);
          if (row.rel == Relation::kEq) {
            tighten_lo(j, v);
            tighten_hi(j, v);
          } else if (upper) {
            tighten_hi(j, v);
          } else {
            tighten_lo(j, v);
          }
          if (!round_integer_box(j)) return fail();
          if (lo[j] > hi[j]) {
            if (lo[j] > hi[j] + opt.feas_tol) return fail();
            hi[j] = lo[j];  // within tolerance: collapse deterministically
          }
        }
        row.alive = false;
        ++res.stats.rows_removed;
        changed = true;
        continue;
      }

      // Row-activity bound tightening: the residual activity of the other
      // terms implies a bound on each variable. Rows with two or more
      // unbounded contributions cannot imply anything.
      if (opt.tighten_bounds) {
        // Minimum activity (for kLe/kEq) and maximum activity (kGe/kEq).
        double min_sum = 0.0, max_sum = 0.0;
        int min_inf = 0, max_inf = 0;
        for (const auto& [var, coeff] : row.terms) {
          const double blo = coeff > 0.0 ? lo[var] : hi[var];
          const double bhi = coeff > 0.0 ? hi[var] : lo[var];
          if (std::isfinite(blo)) min_sum += coeff * blo; else ++min_inf;
          if (std::isfinite(bhi)) max_sum += coeff * bhi; else ++max_inf;
        }
        if (row.rel != Relation::kGe && min_inf == 0 &&
            min_sum > row.rhs + opt.feas_tol) {
          return fail();
        }
        if (row.rel != Relation::kLe && max_inf == 0 &&
            max_sum < row.rhs - opt.feas_tol) {
          return fail();
        }
        for (const auto& [var, coeff] : row.terms) {
          if (fixed[static_cast<std::size_t>(var)]) continue;
          // x <= (rhs - min_others) / coeff when coeff > 0 (kLe/kEq rows);
          // the symmetric cases follow by sign and relation.
          const double own_min = coeff > 0.0 ? lo[var] : hi[var];
          const double own_max = coeff > 0.0 ? hi[var] : lo[var];
          bool did = false;
          if (row.rel != Relation::kGe) {
            double others;
            if (min_inf == 0) {
              others = min_sum - coeff * own_min;
            } else if (min_inf == 1 && !std::isfinite(own_min)) {
              others = min_sum;
            } else {
              others = -kInf;
            }
            if (others > -kHuge) {
              const double b = (row.rhs - others) / coeff;
              did = (coeff > 0.0 ? tighten_hi(var, b) : tighten_lo(var, b)) ||
                    did;
            }
          }
          if (row.rel != Relation::kLe) {
            double others;
            if (max_inf == 0) {
              others = max_sum - coeff * own_max;
            } else if (max_inf == 1 && !std::isfinite(own_max)) {
              others = max_sum;
            } else {
              others = kInf;
            }
            if (others < kHuge) {
              const double b = (row.rhs - others) / coeff;
              did = (coeff > 0.0 ? tighten_lo(var, b) : tighten_hi(var, b)) ||
                    did;
            }
          }
          if (did) {
            if (!round_integer_box(var)) return fail();
            if (lo[var] > hi[var]) {
              if (lo[var] > hi[var] + opt.feas_tol) return fail();
              hi[var] = lo[var];
            }
            changed = true;
          }
        }
      }
    }

    // Newly fixed variables (lo == hi) leave the problem; their objective
    // contribution moves into the offset.
    if (opt.substitute_fixed) {
      for (int j = 0; j < nv; ++j) {
        if (fixed[j] || lo[j] != hi[j]) continue;
        fixed[j] = true;
        fixed_val[j] = lo[j];
        ++res.stats.cols_removed;
        changed = true;
      }
    }
  }

  // ---- Build the reduced problem -----------------------------------------
  auto& post = res.post;
  post.red_idx_.assign(static_cast<std::size_t>(nv), -1);
  post.fixed_val_.assign(static_cast<std::size_t>(nv), 0.0);
  std::vector<int> kept_cols;
  for (int j = 0; j < nv; ++j) {
    if (fixed[j]) {
      post.fixed_val_[j] = fixed_val[j];
    } else {
      post.red_idx_[j] = static_cast<int>(kept_cols.size());
      kept_cols.push_back(j);
    }
  }
  // Fold any variables fixed after a row's last substitution pass into the
  // row now, so the scaling and rebuild below see only surviving terms.
  for (auto& row : rows) {
    if (!row.alive) continue;
    std::size_t out = 0;
    for (std::size_t t = 0; t < row.terms.size(); ++t) {
      const auto [var, coeff] = row.terms[t];
      if (fixed[static_cast<std::size_t>(var)]) {
        row.rhs -= coeff * fixed_val[static_cast<std::size_t>(var)];
      } else {
        row.terms[out++] = row.terms[t];
      }
    }
    row.terms.resize(out);
    if (row.terms.empty()) {
      const bool ok = row.rel == Relation::kLe   ? row.rhs >= -opt.feas_tol
                      : row.rel == Relation::kGe ? row.rhs <= opt.feas_tol
                                                 : std::abs(row.rhs) <=
                                                       opt.feas_tol;
      if (!ok) return fail();
      row.alive = false;
      ++res.stats.rows_removed;
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].alive) post.kept_rows_.push_back(static_cast<int>(i));
  }

  // Equilibration over the surviving matrix: geometric-mean row scales,
  // then geometric-mean column scales on the row-scaled matrix. Factors are
  // rounded to powers of two so all rescaling is exact.
  std::vector<double> row_scale(rows.size(), 1.0);
  std::vector<double> col_scale(kept_cols.size(), 1.0);
  if (opt.scale) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].alive) continue;
      double lsum = 0.0;
      int cnt = 0;
      for (const auto& [var, coeff] : rows[i].terms) {
        if (coeff == 0.0 || fixed[static_cast<std::size_t>(var)]) continue;
        lsum += std::log2(std::abs(coeff));
        ++cnt;
      }
      if (cnt > 0) {
        row_scale[i] = 1.0 / pow2_near(std::exp2(lsum / cnt));
      }
    }
    std::vector<double> col_lsum(kept_cols.size(), 0.0);
    std::vector<int> col_cnt(kept_cols.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].alive) continue;
      for (const auto& [var, coeff] : rows[i].terms) {
        const int k = post.red_idx_[static_cast<std::size_t>(var)];
        if (k < 0 || coeff == 0.0) continue;
        col_lsum[k] += std::log2(std::abs(coeff * row_scale[i]));
        ++col_cnt[k];
      }
    }
    for (std::size_t k = 0; k < kept_cols.size(); ++k) {
      // Integer columns keep scale 1: x = s * x' only preserves the integer
      // grid when s is 1.
      if (p.var_type(kept_cols[k]) != VarType::kContinuous) continue;
      if (col_cnt[k] > 0) {
        col_scale[k] = pow2_near(std::exp2(col_lsum[k] / col_cnt[k]));
      }
    }
  }
  post.col_scale_ = col_scale;

  LpProblem red(p.sense());
  double offset = p.objective_offset();
  for (int j = 0; j < nv; ++j) {
    if (fixed[j]) offset += p.objective_coeff(j) * fixed_val[j];
  }
  red.set_objective_offset(offset);
  for (std::size_t k = 0; k < kept_cols.size(); ++k) {
    const int j = kept_cols[k];
    const double s = col_scale[k];
    // lo/hi divide by a power of two: exact, and infinities stay put.
    red.add_variable(p.var_name(j), lo[j] / s, hi[j] / s,
                     p.objective_coeff(j) * s, p.var_type(j));
  }
  for (int i : post.kept_rows_) {
    const auto& row = rows[static_cast<std::size_t>(i)];
    Constraint c;
    c.rel = row.rel;
    c.rhs = row.rhs * row_scale[static_cast<std::size_t>(i)];
    c.name = row.name;
    c.terms.reserve(row.terms.size());
    for (const auto& [var, coeff] : row.terms) {
      const int k = post.red_idx_[static_cast<std::size_t>(var)];
      LOKI_CHECK(k >= 0);  // fixed terms were folded above
      const double a = coeff * row_scale[static_cast<std::size_t>(i)] *
                       col_scale[static_cast<std::size_t>(k)];
      if (a != 0.0) c.terms.push_back({k, a});
    }
    red.add_constraint(std::move(c));
  }
  res.problem = std::move(red);
  return res;
}

}  // namespace loki::solver
