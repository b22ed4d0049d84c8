#include "solver/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace loki::solver {

namespace {

constexpr int kMaxPasses = 4;      // reduction passes before giving up on a
                                   // fixpoint (each pass is O(nnz))
constexpr double kFeasTol = 1e-9;  // infeasibility slack on dropped rows
constexpr double kIntTol = 1e-6;   // integrality slack when rounding bounds

struct WorkRow {
  std::vector<std::pair<int, double>> terms;
  Relation rel = Relation::kLe;
  double rhs = 0.0;
  std::string name;
  bool alive = true;
};

/// An empty row reads 0 `rel` rhs: true when that holds within kFeasTol.
bool empty_row_holds(const WorkRow& row) {
  return row.rel == Relation::kLe   ? row.rhs >= -kFeasTol
         : row.rel == Relation::kGe ? row.rhs <= kFeasTol
                                    : std::abs(row.rhs) <= kFeasTol;
}

}  // namespace

std::vector<double> Postsolve::restore_point(
    const std::vector<double>& reduced) const {
  LOKI_CHECK(static_cast<int>(reduced.size()) == reduced_variables());
  std::vector<double> out(red_idx_.size());
  for (std::size_t j = 0; j < red_idx_.size(); ++j) {
    const int k = red_idx_[j];
    out[j] = k < 0 ? fixed_val_[j] : reduced[static_cast<std::size_t>(k)];
  }
  return out;
}

PresolveResult presolve(const LpProblem& p) {
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

  bool changed = true;
  for (int pass = 0; pass < kMaxPasses && changed; ++pass) {
    changed = false;

    for (auto& row : rows) {
      if (!row.alive) continue;

      // Substitute fixed variables into the row and drop explicit zero
      // coefficients (the allocation models generate them at zero demand):
      // a zero term carries no information, and with it gone the singleton
      // fold below never divides by zero.
      {
        std::size_t out = 0;
        for (std::size_t t = 0; t < row.terms.size(); ++t) {
          const auto [var, coeff] = row.terms[t];
          if (coeff == 0.0) {
            changed = true;
          } else if (fixed[static_cast<std::size_t>(var)]) {
            row.rhs -= coeff * fixed_val[static_cast<std::size_t>(var)];
            changed = true;
          } else {
            row.terms[out++] = row.terms[t];
          }
        }
        row.terms.resize(out);
      }

      // Empty row: consistent or infeasible, then gone.
      if (row.terms.empty()) {
        if (!empty_row_holds(row)) return fail();
        row.alive = false;
        ++res.stats.rows_removed;
        changed = true;
        continue;
      }

      // Singleton row: fold into the variable's box.
      if (row.terms.size() == 1) {
        const auto [j, a] = row.terms.front();
        const double v = row.rhs / a;
        const bool upper = (row.rel == Relation::kLe) == (a > 0.0);
        if (row.rel == Relation::kEq || !upper) lo[j] = std::max(lo[j], v);
        if (row.rel == Relation::kEq || upper) hi[j] = std::min(hi[j], v);
        // An integer variable's box snaps to the integer grid.
        if (p.var_type(j) != VarType::kContinuous) {
          if (std::isfinite(lo[j])) lo[j] = std::ceil(lo[j] - kIntTol);
          if (std::isfinite(hi[j])) hi[j] = std::floor(hi[j] + kIntTol);
          if (!(lo[j] <= hi[j])) return fail();
        }
        if (lo[j] > hi[j]) {
          if (lo[j] > hi[j] + kFeasTol) return fail();
          hi[j] = lo[j];  // within tolerance: collapse deterministically
        }
        row.alive = false;
        ++res.stats.rows_removed;
        changed = true;
      }
    }

    // Newly fixed variables (lo == hi) leave the problem; their objective
    // contribution moves into the offset.
    for (int j = 0; j < nv; ++j) {
      if (fixed[j] || lo[j] != hi[j]) continue;
      fixed[j] = true;
      fixed_val[j] = lo[j];
      ++res.stats.cols_removed;
      changed = true;
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
  post.reduced_vars_ = static_cast<int>(kept_cols.size());
  // Fold any variables fixed after a row's last substitution pass into the
  // row now, so the rebuild below sees only surviving terms.
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
      if (!empty_row_holds(row)) return fail();
      row.alive = false;
      ++res.stats.rows_removed;
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].alive) post.kept_rows_.push_back(static_cast<int>(i));
  }

  LpProblem red(p.sense());
  double offset = p.objective_offset();
  for (int j = 0; j < nv; ++j) {
    if (fixed[j]) offset += p.objective_coeff(j) * fixed_val[j];
  }
  red.set_objective_offset(offset);
  for (const int j : kept_cols) {
    red.add_variable(p.var_name(j), lo[j], hi[j], p.objective_coeff(j),
                     p.var_type(j));
  }
  for (int i : post.kept_rows_) {
    const auto& row = rows[static_cast<std::size_t>(i)];
    Constraint c;
    c.rel = row.rel;
    c.rhs = row.rhs;
    c.name = row.name;
    c.terms.reserve(row.terms.size());
    // Every term is nonzero (the passes dropped the zeros) and its
    // variable survives (fixed terms were folded above).
    for (const auto& [var, coeff] : row.terms) {
      const int k = post.red_idx_[static_cast<std::size_t>(var)];
      LOKI_CHECK(k >= 0);
      c.terms.push_back({k, coeff});
    }
    red.add_constraint(std::move(c));
  }
  res.problem = std::move(red);
  return res;
}

}  // namespace loki::solver
