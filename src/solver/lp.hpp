// Linear / mixed-integer program model objects.
//
// This module stands in for the Gurobi modelling layer the paper uses: the
// Resource Manager (src/serving) formulates its hardware- and accuracy-
// scaling optimizations as an LpProblem with integer variables and hands it
// to the solvers in simplex.hpp / milp.hpp.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace loki::solver {

/// Optimization direction.
enum class Sense { kMinimize, kMaximize };

/// Constraint relation.
enum class Relation { kLe, kGe, kEq };

/// Variable integrality class.
enum class VarType { kContinuous, kInteger, kBinary };

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One linear constraint: sum(coeff * var) REL rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coefficient)
  Relation rel = Relation::kLe;
  double rhs = 0.0;
  std::string name;
};

/// A linear program, optionally with integer variables (making it a MILP).
/// Variables carry bounds [lo, hi] with lo finite (>= -1e15) and hi possibly
/// +infinity; the serving-system models only ever need lo >= 0.
class LpProblem {
 public:
  explicit LpProblem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  /// Adds a variable and returns its index.
  int add_variable(std::string name, double lo, double hi, double obj_coeff,
                   VarType type = VarType::kContinuous);

  /// Adds a constraint; duplicate variable indices in `terms` are summed.
  void add_constraint(Constraint c);

  void set_sense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  void set_objective_coeff(int var, double coeff);
  double objective_coeff(int var) const { return obj_[var]; }
  /// Constant added to the objective value (bookkeeping only).
  void set_objective_offset(double off) { obj_offset_ = off; }
  double objective_offset() const { return obj_offset_; }

  void set_bounds(int var, double lo, double hi);
  double lower_bound(int var) const { return lo_[var]; }
  double upper_bound(int var) const { return hi_[var]; }
  VarType var_type(int var) const { return types_[var]; }
  const std::string& var_name(int var) const { return names_[var]; }

  int num_variables() const { return static_cast<int>(obj_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Evaluates the objective (including offset) at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Checks primal feasibility of a point within `tol` (bounds, constraints,
  /// and integrality for integer variables). Used by tests and by the MILP
  /// solver to validate incumbents.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Human-readable dump (debugging).
  std::string to_string() const;

 private:
  Sense sense_;
  std::vector<double> obj_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<VarType> types_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
  double obj_offset_ = 0.0;
};

/// True when `b` is the same model as `a` up to drifted *numbers*: same
/// sense, dimensions, variable bounds and integrality, same constraint
/// relations and sparsity pattern (term indices per row), but objective
/// coefficients, constraint coefficient values, and right-hand sides may
/// differ. This is the near-identical warm-start gate: a retained basis
/// from `a` is still a (combinatorially meaningful) basis for `b`, so a
/// solve of `b` can crash-start from it — accepting plan drift within the
/// optimality gap.
bool near_identical(const LpProblem& a, const LpProblem& b);

/// True when `a` and `b` have the same constraint count, relations, and
/// term sparsity pattern (term indices per row); coefficient values and
/// right-hand sides are ignored. The shared building block of the
/// near-identical gates (near_identical here, reduced-space compatibility
/// in the MILP session).
bool same_constraint_sparsity(const LpProblem& a, const LpProblem& b);

}  // namespace loki::solver
