#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace loki::solver {

int LpProblem::add_variable(std::string name, double lo, double hi,
                            double obj_coeff, VarType type) {
  LOKI_CHECK_MSG(lo <= hi, "variable " << name << " has empty bound range");
  LOKI_CHECK_MSG(std::isfinite(lo), "variable " << name
                                                << " needs a finite lower bound");
  if (type == VarType::kBinary) {
    LOKI_CHECK(lo >= 0.0 && hi <= 1.0);
  }
  obj_.push_back(obj_coeff);
  lo_.push_back(lo);
  hi_.push_back(hi);
  types_.push_back(type);
  names_.push_back(std::move(name));
  return static_cast<int>(obj_.size()) - 1;
}

void LpProblem::add_constraint(Constraint c) {
  // Merge duplicate variable indices so downstream code can assume one
  // coefficient per variable per row. In-place sort + coalesce: this runs
  // for every row of every node LP build, and the tree-map it replaced was
  // a measurable slice of small-allocation traffic.
  for (const auto& [var, coeff] : c.terms) {
    (void)coeff;
    LOKI_CHECK(var >= 0 && var < num_variables());
  }
  std::sort(c.terms.begin(), c.terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < c.terms.size(); ++i) {
    if (out > 0 && c.terms[out - 1].first == c.terms[i].first) {
      c.terms[out - 1].second += c.terms[i].second;
    } else {
      c.terms[out++] = c.terms[i];
    }
  }
  c.terms.resize(out);
  constraints_.push_back(std::move(c));
}

void LpProblem::set_objective_coeff(int var, double coeff) {
  LOKI_CHECK(var >= 0 && var < num_variables());
  obj_[var] = coeff;
}

void LpProblem::set_bounds(int var, double lo, double hi) {
  LOKI_CHECK(var >= 0 && var < num_variables());
  LOKI_CHECK(lo <= hi);
  lo_[var] = lo;
  hi_[var] = hi;
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  LOKI_CHECK(static_cast<int>(x.size()) == num_variables());
  double v = obj_offset_;
  for (int j = 0; j < num_variables(); ++j) v += obj_[j] * x[j];
  return v;
}

bool LpProblem::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int j = 0; j < num_variables(); ++j) {
    if (x[j] < lo_[j] - tol || x[j] > hi_[j] + tol) return false;
    if (types_[j] != VarType::kContinuous &&
        std::abs(x[j] - std::round(x[j])) > tol) {
      return false;
    }
  }
  for (const auto& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : c.terms) lhs += coeff * x[var];
    switch (c.rel) {
      case Relation::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Relation::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Relation::kEq:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

bool same_constraint_sparsity(const LpProblem& a, const LpProblem& b) {
  if (a.num_constraints() != b.num_constraints()) return false;
  const auto& ca = a.constraints();
  const auto& cb = b.constraints();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].rel != cb[i].rel ||
        ca[i].terms.size() != cb[i].terms.size()) {
      return false;
    }
    for (std::size_t t = 0; t < ca[i].terms.size(); ++t) {
      if (ca[i].terms[t].first != cb[i].terms[t].first) return false;
    }
  }
  return true;
}

bool near_identical(const LpProblem& a, const LpProblem& b) {
  if (a.sense() != b.sense() || a.num_variables() != b.num_variables()) {
    return false;
  }
  for (int j = 0; j < a.num_variables(); ++j) {
    if (a.lower_bound(j) != b.lower_bound(j) ||
        a.upper_bound(j) != b.upper_bound(j) ||
        a.var_type(j) != b.var_type(j)) {
      return false;
    }
  }
  return same_constraint_sparsity(a, b);
}

std::string LpProblem::to_string() const {
  std::ostringstream os;
  os << (sense_ == Sense::kMinimize ? "min" : "max");
  for (int j = 0; j < num_variables(); ++j) {
    if (obj_[j] != 0.0) os << " + " << obj_[j] << "*" << names_[j];
  }
  os << "\nsubject to:\n";
  for (const auto& c : constraints_) {
    os << "  ";
    for (const auto& [var, coeff] : c.terms) {
      os << " + " << coeff << "*" << names_[var];
    }
    switch (c.rel) {
      case Relation::kLe: os << " <= "; break;
      case Relation::kGe: os << " >= "; break;
      case Relation::kEq: os << " == "; break;
    }
    os << c.rhs;
    if (!c.name.empty()) os << "   [" << c.name << "]";
    os << "\n";
  }
  for (int j = 0; j < num_variables(); ++j) {
    os << "  " << lo_[j] << " <= " << names_[j] << " <= " << hi_[j];
    if (types_[j] == VarType::kInteger) os << " integer";
    if (types_[j] == VarType::kBinary) os << " binary";
    os << "\n";
  }
  return os.str();
}

}  // namespace loki::solver
