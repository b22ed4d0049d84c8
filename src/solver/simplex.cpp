#include "solver/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace loki::solver {

std::string to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
    case LpStatus::kCutoff: return "cutoff";
  }
  return "?";
}

// Internal form: minimize cost·x over  A x + s = b,  lo <= x <= hi, with one
// slack s_i per row whose bounds encode the relation (kLe: [0, inf),
// kGe: (-inf, 0], kEq: [0, 0]). Column layout:
//   [0, nv)          structural variables
//   [nv, nv+m)       slacks
//   [nv+m, nv+2m)    artificials (cold phase 1 only; fixed at 0 afterwards)
// The tableau a_ holds B^-1 A; bvec_ holds B^-1 b; both are updated
// incrementally on every pivot, as is the reduced-cost row d_.
//
// Every O(n) loop walks only the live columns [0, live_n_). The artificial
// columns are all-zero and fixed unless reset_cold put one in play, and a
// zero column stays zero under pivoting, so until then they can neither
// price in, block a ratio test nor move a reduced cost or devex weight:
// skipping them changes no bit. reset_cold widens the range to n_ when it
// adds an artificial; the next raw tableau rebuild narrows it again.
//
// The row kernels (elimination, the reduced-cost rebuild, pricing, the dual
// ratio test, the basic values) run through solver/kernels.hpp, which picks
// a four-lane AVX2 build on CPUs that have it; both builds give the same
// bits, so the pivot sequence does not depend on the CPU.

SimplexContext::SimplexContext(const LpProblem& p, SimplexOptions options)
    : opt_(options) {
  sign_ = p.sense() == Sense::kMinimize ? 1.0 : -1.0;
  obj_offset_ = p.objective_offset();
  nv_ = p.num_variables();
  m_ = p.num_constraints();
  n_ = nv_ + 2 * m_;
  obj_.resize(static_cast<std::size_t>(nv_));
  base_lo_.resize(static_cast<std::size_t>(nv_));
  base_hi_.resize(static_cast<std::size_t>(nv_));
  for (int j = 0; j < nv_; ++j) {
    obj_[j] = p.objective_coeff(j);
    base_lo_[j] = p.lower_bound(j);
    base_hi_[j] = p.upper_bound(j);
  }
  row_terms_.reserve(static_cast<std::size_t>(m_));
  rhs_.reserve(static_cast<std::size_t>(m_));
  slack_lo_.reserve(static_cast<std::size_t>(m_));
  slack_hi_.reserve(static_cast<std::size_t>(m_));
  for (const auto& c : p.constraints()) {
    row_terms_.push_back(c.terms);
    rhs_.push_back(c.rhs);
    switch (c.rel) {
      case Relation::kLe: slack_lo_.push_back(0.0); slack_hi_.push_back(kInf);
        break;
      case Relation::kGe: slack_lo_.push_back(-kInf); slack_hi_.push_back(0.0);
        break;
      case Relation::kEq: slack_lo_.push_back(0.0); slack_hi_.push_back(0.0);
        break;
    }
  }
  a_.assign(static_cast<std::size_t>(m_) * n_, 0.0);
  bvec_.assign(static_cast<std::size_t>(m_), 0.0);
  xb_.assign(static_cast<std::size_t>(m_), 0.0);
  d_.assign(static_cast<std::size_t>(n_), 0.0);
  cost_.assign(static_cast<std::size_t>(n_), 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  row_active_.assign(static_cast<std::size_t>(m_), 1);
  lo_.assign(static_cast<std::size_t>(n_), 0.0);
  hi_.assign(static_cast<std::size_t>(n_), 0.0);
  val_.assign(static_cast<std::size_t>(n_), 0.0);
  state_.assign(static_cast<std::size_t>(n_), VarState::kAtLower);
  devex_w_.assign(static_cast<std::size_t>(n_), 1.0);
  row_nz_.assign(static_cast<std::size_t>(n_), 0);
  rows_.assign(static_cast<std::size_t>(m_), 0);
  nonbasic_nz_.reserve(static_cast<std::size_t>(n_));
  live_n_ = nv_ + m_;
}

SimplexContext::Snapshot SimplexContext::snapshot() const {
  Snapshot s;
  s.a = a_;
  s.bvec = bvec_;
  s.xb = xb_;
  s.d = d_;
  s.cost = cost_;
  s.lo = lo_;
  s.hi = hi_;
  s.val = val_;
  s.basis = basis_;
  s.row_active = row_active_;
  s.state = state_;
  s.dual_feasible = basis_dual_feasible_;
  s.since_refresh = since_refresh_;
  s.live_n = live_n_;
  s.n = n_;
  s.m = m_;
  return s;
}

bool SimplexContext::restore(const Snapshot& s) {
  if (!s.valid() || s.n != n_ || s.m != m_) return false;
  a_ = s.a;
  bvec_ = s.bvec;
  xb_ = s.xb;
  d_ = s.d;
  cost_ = s.cost;
  lo_ = s.lo;
  hi_ = s.hi;
  val_ = s.val;
  basis_ = s.basis;
  row_active_ = s.row_active;
  state_ = s.state;
  basis_dual_feasible_ = s.dual_feasible;
  since_refresh_ = s.since_refresh;
  live_n_ = s.live_n;
  return true;
}

void SimplexContext::set_column_bounds_from(const std::vector<double>& lo,
                                            const std::vector<double>& hi) {
  for (int j = 0; j < nv_; ++j) {
    lo_[j] = lo[static_cast<std::size_t>(j)];
    hi_[j] = hi[static_cast<std::size_t>(j)];
  }
}

void SimplexContext::recompute_reduced_costs() {
  std::copy(cost_.begin(), cost_.end(), d_.begin());
  for (int i = 0; i < m_; ++i) {
    if (!row_active_[i]) continue;
    const double y = cost_[basis_[i]];
    if (y == 0.0) continue;
    k_->row_update(d_.data(), &a_[static_cast<std::size_t>(i) * n_], y,
                   live_n_);
  }
  for (int i = 0; i < m_; ++i) {
    if (row_active_[i]) d_[basis_[i]] = 0.0;
  }
}

void SimplexContext::recompute_basic_values() {
  // xb = B^-1 b - sum over nonbasic j of (B^-1 A_j) * val_j; most nonbasic
  // variables sit at 0, so collect the nonzero ones first.
  nonbasic_nz_.clear();
  for (int j = 0; j < live_n_; ++j) {
    if (state_[j] != VarState::kBasic && val_[j] != 0.0) {
      nonbasic_nz_.push_back(j);
    }
  }
  int nrows = 0;
  for (int i = 0; i < m_; ++i) {
    if (row_active_[i]) rows_[nrows++] = i;
  }
  k_->basic_values(a_.data(), static_cast<std::size_t>(n_), rows_.data(),
                   nrows, bvec_.data(), nonbasic_nz_.data(),
                   static_cast<int>(nonbasic_nz_.size()), val_.data(),
                   xb_.data());
}

void SimplexContext::pivot(int r, int q, double entering_delta,
                           double leave_value, VarState leave_state) {
  // Move the other basic values along the entering direction, skipping rows
  // with a zero pivot-column entry.
  if (entering_delta != 0.0) {
    for (int i = 0; i < m_; ++i) {
      if (i == r || !row_active_[i]) continue;
      const double aiq = at(i, q);
      if (aiq != 0.0) xb_[i] -= aiq * entering_delta;
    }
  }
  const double v_q = val_[q] + entering_delta;
  const int leave = basis_[r];
  if (leave >= nv_ + m_) {
    // Artificials exit for good: fix them at zero so they never re-enter.
    lo_[leave] = 0.0;
    hi_[leave] = 0.0;
    val_[leave] = 0.0;
    state_[leave] = VarState::kAtLower;
  } else {
    val_[leave] = leave_value;
    state_[leave] = leave_state;
  }

  double* rowr = &a_[static_cast<std::size_t>(r) * n_];
  const double inv = 1.0 / rowr[q];
  for (int j = 0; j < live_n_; ++j) rowr[j] *= inv;
  rowr[q] = 1.0;  // exact
  bvec_[r] *= inv;
  int* rows = rows_.data();
  int nrows = 0;
  for (int i = 0; i < m_; ++i) {
    if (i != r && row_active_[i] && at(i, q) != 0.0) {
      rows[nrows++] = i;
      bvec_[i] -= at(i, q) * bvec_[r];
    }
  }
  // Eliminate column q from those rows, and update d incrementally so it
  // stays equal to cost - y·(B^-1 A).
  k_->eliminate(a_.data(), static_cast<std::size_t>(n_), rows, nrows, rowr, q,
                live_n_, d_.data(), d_[q], row_nz_.data());
  d_[q] = 0.0;  // exact
  basis_[r] = q;
  state_[q] = VarState::kBasic;
  xb_[r] = v_q;
}

LpStatus SimplexContext::primal_loop(LpSolution& out, bool phase1) {
  int degenerate_run = 0;
  bool bland = false;
  bool verified = false;
  const bool devex = opt_.pricing == PricingRule::kDevex;
  if (devex) {
    // Fresh reference frame per primal pass: every nonbasic column starts
    // at weight 1 (not counted as a reset — resets are mid-solve events).
    std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
  }
  for (;;) {
    if (out.iterations >= opt_.max_iterations) return LpStatus::kIterLimit;

    // Pricing: one O(n) pass over the incrementally maintained reduced
    // costs. A nonbasic-at-lower column improves if d < -tol (it wants to
    // rise), an at-upper column if d > tol (it wants to fall). Under devex
    // the merit of an improving column is d^2 / w instead of |d|; the
    // anti-cycling Bland fallback ignores weights entirely and takes the
    // lowest improving index.
    int dir = 0;
    const int q = k_->price(d_.data(), state_.data(), lo_.data(), hi_.data(),
                            devex ? devex_w_.data() : nullptr, live_n_,
                            opt_.tol, bland, &dir);
    if (q < 0) {
      // Confirm optimality against an exactly rebuilt reduced-cost row so
      // incremental drift can never terminate us early.
      if (verified) return LpStatus::kOptimal;
      recompute_reduced_costs();
      verified = true;
      continue;
    }
    verified = false;

    // Ratio test: the entering variable moves by t >= 0 in direction `dir`;
    // basic variable i changes by -dir*a[i][q]*t and blocks at whichever of
    // its bounds it hits first. Ties break on lowest basic-variable index.
    int leave_row = -1;
    double t_row = kInf;
    for (int i = 0; i < m_; ++i) {
      if (!row_active_[i]) continue;
      const double aiq = at(i, q);
      if (aiq == 0.0) continue;  // sparse skip of zero pivot-column entries
      const double alpha = dir > 0 ? aiq : -aiq;
      const int b = basis_[i];
      double limit;
      if (alpha > opt_.tol) {
        if (!std::isfinite(lo_[b])) continue;
        limit = (xb_[i] - lo_[b]) / alpha;
      } else if (alpha < -opt_.tol) {
        if (!std::isfinite(hi_[b])) continue;
        limit = (hi_[b] - xb_[i]) / (-alpha);
      } else {
        continue;
      }
      if (limit < 0.0) limit = 0.0;  // tiny infeasibility noise -> degenerate
      if (leave_row < 0 || limit < t_row - opt_.tol ||
          (limit < t_row + opt_.tol && basis_[i] < basis_[leave_row])) {
        leave_row = i;
        t_row = limit;
      }
    }
    // A boxed entering variable can also stop by flipping to its other bound.
    double t_flip = kInf;
    if (std::isfinite(lo_[q]) && std::isfinite(hi_[q])) t_flip = hi_[q] - lo_[q];

    if (leave_row < 0 && !std::isfinite(t_flip)) {
      LOKI_CHECK(!phase1);  // phase-1 objective is bounded below by zero
      return LpStatus::kUnbounded;
    }

    if (leave_row < 0 || t_flip < t_row) {
      // Bound flip: no basis change, O(m) update, still one iteration.
      if (t_flip != 0.0) {
        for (int i = 0; i < m_; ++i) {
          if (!row_active_[i]) continue;
          const double aiq = at(i, q);
          if (aiq != 0.0) xb_[i] -= (dir > 0 ? aiq : -aiq) * t_flip;
        }
      }
      if (state_[q] == VarState::kAtLower) {
        state_[q] = VarState::kAtUpper;
        val_[q] = hi_[q];
      } else {
        state_[q] = VarState::kAtLower;
        val_[q] = lo_[q];
      }
      ++out.iterations;
      ++out.bound_flips;
      degenerate_run = 0;
      bland = false;
      continue;
    }

    const bool degenerate = t_row < opt_.tol;
    const double alpha_r = dir > 0 ? at(leave_row, q) : -at(leave_row, q);
    const int b = basis_[leave_row];
    const double leave_value = alpha_r > 0 ? lo_[b] : hi_[b];
    const VarState leave_state =
        alpha_r > 0 ? VarState::kAtLower : VarState::kAtUpper;
    const double wq = devex ? devex_w_[q] : 0.0;
    pivot(leave_row, q, dir > 0 ? t_row : -t_row, leave_value, leave_state);
    ++out.iterations;
    if (devex) {
      // Reference-framework update: the post-pivot row r holds a_rj / a_rq,
      // so w_j = max(w_j, (a_rj/a_rq)^2 * w_q) is one multiply per nonbasic
      // column; the leaving variable re-enters the frame at weight >= 1.
      devex_w_[b] = 1.0;
      const double* rowr = &a_[static_cast<std::size_t>(leave_row) * n_];
      double wmax = 1.0;
      for (int j = 0; j < live_n_; ++j) {
        if (state_[j] == VarState::kBasic) continue;
        const double rj = rowr[j];
        if (rj != 0.0) {
          const double cand = rj * rj * wq;
          if (cand > devex_w_[j]) devex_w_[j] = cand;
        }
        if (devex_w_[j] > wmax) wmax = devex_w_[j];
      }
      if (wmax > opt_.devex_weight_cap) {
        std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
        ++out.devex_resets;
      }
    }
    if (degenerate) {
      if (++degenerate_run >= opt_.degenerate_switch) bland = true;
    } else {
      degenerate_run = 0;
      bland = false;
    }
    if (++since_refresh_ >= opt_.refresh_interval) {
      recompute_reduced_costs();
      recompute_basic_values();
      since_refresh_ = 0;
    }
  }
}

SimplexContext::DualResult SimplexContext::dual_repair(LpSolution& out,
                                                       double internal_cutoff) {
  // Bounded dual simplex: the retained basis is dual-feasible (reduced-cost
  // signs match the nonbasic states); repeatedly kick the most-infeasible
  // basic variable out at the bound it violates, choosing the entering
  // column by the min |d|/|a| ratio so dual feasibility is preserved.
  //
  // With a finite cutoff the current objective is tracked across pivots
  // (each dual step worsens it by d_q * dx >= 0); since a dual-feasible
  // basis's objective is a lower bound on the optimum, crossing the cutoff
  // proves the solve can only end at or above it and the repair stops
  // early — the branch-and-bound caller prunes such a node anyway, so the
  // remaining pivots (and the finishing primal pass) would be pure waste.
  const bool track_obj = std::isfinite(internal_cutoff);
  const auto exact_obj = [&] {
    double v = 0.0;
    for (int j = 0; j < live_n_; ++j) {
      if (state_[j] != VarState::kBasic && val_[j] != 0.0) {
        v += cost_[j] * val_[j];
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (row_active_[i]) v += cost_[basis_[i]] * xb_[i];
    }
    return v;
  };
  double obj = track_obj ? exact_obj() : 0.0;
  const int cycle_cap = std::max(64, 4 * m_);
  int steps = 0;
  for (;;) {
    if (out.iterations >= opt_.max_iterations) return DualResult::kIterLimit;
    if (track_obj && obj >= internal_cutoff) {
      // Confirm against an exactly recomputed objective before declaring
      // the cutoff, so the verdict never rests on incremental drift.
      recompute_basic_values();
      obj = exact_obj();
      if (obj >= internal_cutoff) return DualResult::kCutoff;
    }
    int r = -1;
    bool below = false;
    double worst = opt_.feas_tol;
    for (int i = 0; i < m_; ++i) {
      if (!row_active_[i]) continue;
      const int b = basis_[i];
      double viol = 0.0;
      bool this_below = false;
      if (std::isfinite(lo_[b]) && xb_[i] < lo_[b]) {
        viol = lo_[b] - xb_[i];
        this_below = true;
      } else if (std::isfinite(hi_[b]) && xb_[i] > hi_[b]) {
        viol = xb_[i] - hi_[b];
      }
      if (viol > worst ||
          (r >= 0 && viol == worst && basis_[i] < basis_[r])) {
        worst = viol;
        r = i;
        below = this_below;
      }
    }
    if (r < 0) return DualResult::kFeasible;
    if (++steps > cycle_cap) return DualResult::kGiveUp;

    const int bvar = basis_[r];
    const double target = below ? lo_[bvar] : hi_[bvar];
    const double* rowr = &a_[static_cast<std::size_t>(r) * n_];
    const int q = k_->dual_ratio(rowr, d_.data(), state_.data(), lo_.data(),
                                 hi_.data(), live_n_, below, opt_.tol);
    if (q < 0) return DualResult::kInfeasible;

    const double dx = (xb_[r] - target) / rowr[q];
    if (track_obj) obj += d_[q] * dx;
    pivot(r, q, dx, target,
          below ? VarState::kAtLower : VarState::kAtUpper);
    ++out.iterations;
    ++out.phase1_iterations;
    if (++since_refresh_ >= opt_.refresh_interval) {
      recompute_reduced_costs();
      recompute_basic_values();
      since_refresh_ = 0;
      if (track_obj) obj = exact_obj();
    }
  }
}

void SimplexContext::drive_out_artificials() {
  // Basic artificials at ~0 after phase 1 either pivot out on any nonzero
  // real column (degenerate pivot) or mark their row redundant.
  for (int i = 0; i < m_; ++i) {
    if (!row_active_[i]) continue;
    if (basis_[i] < nv_ + m_) continue;
    const double* rowi = &a_[static_cast<std::size_t>(i) * n_];
    int enter = -1;
    for (int j = 0; j < nv_ + m_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      if (std::abs(rowi[j]) > opt_.tol) {
        enter = j;
        break;
      }
    }
    if (enter < 0) {
      row_active_[i] = 0;
      continue;
    }
    pivot(i, enter, xb_[i] / rowi[enter], 0.0, VarState::kAtLower);
  }
}

void SimplexContext::build_raw_tableau(const std::vector<double>& lo,
                                       const std::vector<double>& hi) {
  std::fill(a_.begin(), a_.end(), 0.0);
  std::fill(row_active_.begin(), row_active_.end(), 1);
  live_n_ = nv_ + m_;
  set_column_bounds_from(lo, hi);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : row_terms_[i]) at(i, var) += coeff;
    const int slack = nv_ + i;
    const int art = nv_ + m_ + i;
    at(i, slack) = 1.0;
    bvec_[i] = rhs_[i];
    lo_[slack] = slack_lo_[i];
    hi_[slack] = slack_hi_[i];
    lo_[art] = 0.0;
    hi_[art] = 0.0;
    val_[art] = 0.0;
    state_[art] = VarState::kAtLower;
  }
  since_refresh_ = 0;
}

void SimplexContext::reset_cold(const std::vector<double>& lo,
                                const std::vector<double>& hi,
                                bool* needs_phase1) {
  *needs_phase1 = false;
  build_raw_tableau(lo, hi);
  for (int j = 0; j < nv_; ++j) {
    if (std::isfinite(lo_[j])) {
      state_[j] = VarState::kAtLower;
      val_[j] = lo_[j];
    } else {
      LOKI_CHECK_MSG(std::isfinite(hi_[j]),
                     "variable " << j << " needs at least one finite bound");
      state_[j] = VarState::kAtUpper;
      val_[j] = hi_[j];
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int slack = nv_ + i;
    const int art = nv_ + m_ + i;
    double r = rhs_[i];
    for (const auto& [var, coeff] : row_terms_[i]) r -= coeff * val_[var];
    if (r >= lo_[slack] && r <= hi_[slack]) {
      basis_[i] = slack;
      xb_[i] = r;
      state_[slack] = VarState::kBasic;
      val_[slack] = 0.0;
    } else {
      // The slack basis is infeasible on this row: park the slack at its
      // nearest bound and absorb the residual in a fresh artificial. A
      // negative residual negates the whole row first, so the basic
      // artificial column is +1 (canonical B^-1 A form).
      const double sv = r < lo_[slack] ? lo_[slack] : hi_[slack];
      state_[slack] = sv == lo_[slack] ? VarState::kAtLower
                                       : VarState::kAtUpper;
      val_[slack] = sv;
      double resid = r - sv;
      if (resid < 0.0) {
        double* row = &a_[static_cast<std::size_t>(i) * n_];
        for (int j = 0; j < nv_ + m_; ++j) row[j] = -row[j];
        bvec_[i] = -bvec_[i];
        resid = -resid;
      }
      at(i, art) = 1.0;
      live_n_ = n_;
      lo_[art] = 0.0;
      hi_[art] = kInf;
      basis_[i] = art;
      xb_[i] = resid;
      state_[art] = VarState::kBasic;
      *needs_phase1 = true;
    }
  }
  since_refresh_ = 0;
}

bool SimplexContext::can_dual_start(const std::vector<double>& lo,
                                    const std::vector<double>& hi) const {
  for (int j = 0; j < nv_; ++j) {
    const double c = sign_ * obj_[j];
    const double l = lo[static_cast<std::size_t>(j)];
    const double h = hi[static_cast<std::size_t>(j)];
    if (l == h) continue;  // fixed: never priced, any placement works
    if (c > opt_.tol) {
      if (!std::isfinite(l)) return false;
    } else if (c < -opt_.tol) {
      if (!std::isfinite(h)) return false;
    } else if (!std::isfinite(l) && !std::isfinite(h)) {
      return false;
    }
  }
  return true;
}

void SimplexContext::reset_cold_dual(const std::vector<double>& lo,
                                     const std::vector<double>& hi) {
  build_raw_tableau(lo, hi);
  // Nonbasic structurals parked on the bound their cost sign prefers: the
  // all-slack basis prices d_j = c_j, so this start is dual feasible by
  // construction and the bounded dual simplex restores primal feasibility
  // directly — no artificial columns, no phase 1.
  for (int j = 0; j < nv_; ++j) {
    const double c = sign_ * obj_[j];
    bool at_lower;
    if (c > opt_.tol) {
      at_lower = true;
    } else if (c < -opt_.tol) {
      at_lower = false;
    } else {
      at_lower = std::isfinite(lo_[j]);
    }
    state_[j] = at_lower ? VarState::kAtLower : VarState::kAtUpper;
    val_[j] = at_lower ? lo_[j] : hi_[j];
  }
  for (int i = 0; i < m_; ++i) {
    const int slack = nv_ + i;
    basis_[i] = slack;
    state_[slack] = VarState::kBasic;
    val_[slack] = 0.0;
  }
  recompute_basic_values();
}

SimplexContext::BasisSnapshot SimplexContext::basis_snapshot() const {
  BasisSnapshot s;
  for (int i = 0; i < m_; ++i) {
    // A disabled (redundant) row or a basic artificial cannot be replayed
    // onto a freshly built tableau of a different problem.
    if (!row_active_[i] || basis_[i] >= nv_ + m_) return s;
  }
  s.basis = basis_;
  s.state = state_;
  s.n = n_;
  s.m = m_;
  return s;
}

bool SimplexContext::crash_basis(const BasisSnapshot& bs) {
  if (!bs.valid() || bs.n != n_ || bs.m != m_) return false;
  build_raw_tableau(base_lo_, base_hi_);
  for (int j = 0; j < nv_ + m_; ++j) {
    if (bs.state[j] == VarState::kBasic) continue;
    // Recorded nonbasic placement, flipped when the current bounds cannot
    // host the recorded side (mirrors apply_bounds_warm).
    VarState st = bs.state[j];
    if (st == VarState::kAtUpper && !std::isfinite(hi_[j])) {
      st = VarState::kAtLower;
    } else if (st == VarState::kAtLower && !std::isfinite(lo_[j])) {
      st = VarState::kAtUpper;
    }
    const double v = st == VarState::kAtLower ? lo_[j] : hi_[j];
    if (!std::isfinite(v)) return false;  // free column: nowhere to park it
    state_[j] = st;
    val_[j] = v;
  }
  // Gauss-Jordan the recorded basis in. The recorded row<->column pairing
  // need not survive a coefficient drift (and a straight in-order
  // elimination can hit a zero pivot even for a nonsingular basis), so the
  // basis is treated as a column *set*: each column picks the unassigned
  // row with the largest pivot magnitude (first row wins ties —
  // deterministic). This is a refactorization (at most m dense
  // eliminations), not simplex work, so it is not counted as iterations. A
  // column with no usable pivot means the recorded basis is singular for
  // the current matrix: give up and let the caller cold-solve.
  std::vector<char> assigned(static_cast<std::size_t>(m_), 0);
  for (int bi = 0; bi < m_; ++bi) {
    const int q = bs.basis[bi];
    if (q >= nv_ + m_) return false;  // artificial basic: not replayable
    int r = -1;
    double best = 1e-7;
    for (int i = 0; i < m_; ++i) {
      if (assigned[i]) continue;
      const double mag = std::abs(at(i, q));
      if (mag > best) {
        best = mag;
        r = i;
      }
    }
    if (r < 0) return false;
    assigned[r] = 1;
    double* rowr = &a_[static_cast<std::size_t>(r) * n_];
    const double inv = 1.0 / rowr[q];
    for (int j = 0; j < n_; ++j) rowr[j] *= inv;
    rowr[q] = 1.0;  // exact
    bvec_[r] *= inv;
    for (int i2 = 0; i2 < m_; ++i2) {
      if (i2 == r) continue;
      const double f = at(i2, q);
      if (f == 0.0) continue;
      double* row2 = &a_[static_cast<std::size_t>(i2) * n_];
      for (int j = 0; j < n_; ++j) {
        if (rowr[j] != 0.0) row2[j] -= f * rowr[j];
      }
      row2[q] = 0.0;  // exact
      bvec_[i2] -= f * bvec_[r];
    }
    basis_[r] = q;
    state_[q] = VarState::kBasic;
    val_[q] = 0.0;
  }
  recompute_basic_values();
  return true;
}

void SimplexContext::set_phase2_costs() {
  std::fill(cost_.begin(), cost_.end(), 0.0);
  for (int j = 0; j < nv_; ++j) cost_[j] = sign_ * obj_[j];
}

bool SimplexContext::repair_and_finish(LpSolution& out,
                                       double internal_cutoff) {
  // A state flip (or a crashed basis) can leave a nonbasic reduced cost
  // with the wrong sign. Shift those costs to zero so the dual ratio test
  // stays valid; the true costs come back (with an exact reduced-cost
  // rebuild) before the finishing primal pass, which starts
  // primal-feasible and therefore needs no dual feasibility.
  shifts_.clear();
  for (int j = 0; j < live_n_; ++j) {
    if (state_[j] == VarState::kBasic || fixed(j)) continue;
    const double dj = d_[j];
    const bool broken = state_[j] == VarState::kAtLower ? dj < -opt_.tol
                                                        : dj > opt_.tol;
    if (broken) {
      shifts_.emplace_back(j, dj);
      cost_[j] -= dj;
      d_[j] = 0.0;
    }
  }
  const auto restore_shifts = [&] {
    if (shifts_.empty()) return;
    for (const auto& [j, s] : shifts_) cost_[j] += s;
    recompute_reduced_costs();
  };
  switch (dual_repair(out, shifts_.empty() ? internal_cutoff : kInf)) {
    case DualResult::kInfeasible:
      // Primal infeasibility is independent of the (possibly shifted)
      // cost, so the verdict stands. Without shifts the basis stayed
      // dual-feasible and branch-and-bound siblings can keep reusing it.
      restore_shifts();
      basis_dual_feasible_ = shifts_.empty();
      out.status = LpStatus::kInfeasible;
      return true;
    case DualResult::kIterLimit:
      basis_dual_feasible_ = false;
      out.status = LpStatus::kIterLimit;
      return true;
    case DualResult::kFeasible: {
      restore_shifts();
      const LpStatus s = primal_loop(out, /*phase1=*/false);
      out.status = s;
      if (s == LpStatus::kOptimal) {
        extract(out);
        basis_dual_feasible_ = true;
      } else {
        basis_dual_feasible_ = false;
      }
      return true;
    }
    case DualResult::kCutoff:
      // The basis is dual feasible (no shifts were active) but mid-repair:
      // siblings can keep warm-starting from it.
      basis_dual_feasible_ = true;
      out.status = LpStatus::kCutoff;
      return true;
    case DualResult::kGiveUp:
      return false;  // cycling guard tripped; caller cold-solves
  }
  return false;
}

LpSolution SimplexContext::solve_from_basis(const BasisSnapshot& bs) {
  LpSolution out;
  out.values.assign(static_cast<std::size_t>(nv_), 0.0);
  for (int j = 0; j < nv_; ++j) {
    if (base_lo_[j] > base_hi_[j]) {
      out.status = LpStatus::kInfeasible;
      return out;
    }
  }
  basis_dual_feasible_ = false;
  if (crash_basis(bs)) {
    set_phase2_costs();
    recompute_reduced_costs();
    out.warm_started = true;
    if (repair_and_finish(out, kInf)) return out;
    out.warm_started = false;
  }
  // Crash failed or cycled: cold solve, keeping the work already spent on
  // the books.
  LpSolution cold = solve();
  cold.iterations += out.iterations;
  cold.phase1_iterations += out.phase1_iterations;
  cold.bound_flips += out.bound_flips;
  cold.devex_resets += out.devex_resets;
  return cold;
}

bool SimplexContext::apply_bounds_warm(const std::vector<double>& lo,
                                       const std::vector<double>& hi) {
  for (int j = 0; j < nv_; ++j) {
    const double nlo = lo[static_cast<std::size_t>(j)];
    const double nhi = hi[static_cast<std::size_t>(j)];
    if (nlo == lo_[j] && nhi == hi_[j]) continue;
    lo_[j] = nlo;
    hi_[j] = nhi;
    if (state_[j] == VarState::kBasic) continue;
    if (nlo == nhi) {
      state_[j] = VarState::kAtLower;
      val_[j] = nlo;
      continue;  // fixed: never prices in, d sign irrelevant
    }
    if (state_[j] == VarState::kAtUpper && !std::isfinite(nhi)) {
      state_[j] = VarState::kAtLower;
    } else if (state_[j] == VarState::kAtLower && !std::isfinite(nlo)) {
      state_[j] = VarState::kAtUpper;
    }
    // A state flip may break the reduced-cost sign; solve_with_bounds
    // repairs that with a temporary cost shift, so only a variable with no
    // finite bound at all forces a cold solve.
    if (state_[j] == VarState::kAtLower) {
      if (!std::isfinite(nlo)) return false;
      val_[j] = nlo;
    } else {
      if (!std::isfinite(nhi)) return false;
      val_[j] = nhi;
    }
  }
  recompute_basic_values();
  return true;
}

void SimplexContext::extract(LpSolution& out) {
  recompute_basic_values();
  for (int j = 0; j < nv_; ++j) {
    out.values[j] = state_[j] == VarState::kBasic ? 0.0 : val_[j];
  }
  for (int i = 0; i < m_; ++i) {
    if (row_active_[i] && basis_[i] < nv_) out.values[basis_[i]] = xb_[i];
  }
  double obj = obj_offset_;
  for (int j = 0; j < nv_; ++j) {
    double v = out.values[j];
    // Clean tiny noise against the solve bounds.
    if (std::isfinite(lo_[j])) v = std::max(v, lo_[j]);
    if (std::isfinite(hi_[j])) v = std::min(v, hi_[j]);
    out.values[j] = v;
    obj += obj_[j] * v;
  }
  out.objective = obj;
}

LpSolution SimplexContext::solve() {
  return solve_with_bounds(base_lo_, base_hi_);
}

LpSolution SimplexContext::solve_with_bounds(const std::vector<double>& lo,
                                             const std::vector<double>& hi,
                                             double dual_cutoff) {
  LOKI_CHECK(static_cast<int>(lo.size()) == nv_ &&
             static_cast<int>(hi.size()) == nv_);
  LpSolution out;
  out.values.assign(static_cast<std::size_t>(nv_), 0.0);
  for (int j = 0; j < nv_; ++j) {
    if (lo[static_cast<std::size_t>(j)] > hi[static_cast<std::size_t>(j)]) {
      out.status = LpStatus::kInfeasible;  // empty box, tableau untouched
      return out;
    }
  }

  // The public cutoff is in minimization-form objective units (offset
  // included); internal costs carry neither the offset nor the sense sign
  // flip, so translate once here.
  const double internal_cutoff = std::isfinite(dual_cutoff)
                                     ? dual_cutoff - sign_ * obj_offset_
                                     : kInf;

  if (basis_dual_feasible_ && apply_bounds_warm(lo, hi)) {
    out.warm_started = true;
    if (repair_and_finish(out, internal_cutoff)) return out;
    out.warm_started = false;  // cycling guard: cold solve on the same bounds
  }

  basis_dual_feasible_ = false;

  // Dual cold start: when every structural variable can be parked on a
  // bound its cost sign prefers, the all-slack basis is dual feasible and
  // the bounded dual simplex restores primal feasibility directly — the
  // artificial-column phase 1 (which dominates cold-solve pivot counts on
  // the degenerate allocation LPs) is skipped entirely. Presolve's implied
  // finite boxes are what make this applicable to the allocation models.
  if (opt_.dual_cold_start && can_dual_start(lo, hi)) {
    reset_cold_dual(lo, hi);
    set_phase2_costs();
    recompute_reduced_costs();
    if (repair_and_finish(out, internal_cutoff)) return out;
    basis_dual_feasible_ = false;  // cycling guard: artificial phase 1 below
  }

  bool needs_phase1 = false;
  reset_cold(lo, hi, &needs_phase1);

  if (needs_phase1) {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = nv_ + m_; j < n_; ++j) cost_[j] = 1.0;
    recompute_reduced_costs();
    const int before = out.iterations;
    const LpStatus s = primal_loop(out, /*phase1=*/true);
    out.phase1_iterations += out.iterations - before;
    if (s == LpStatus::kIterLimit) {
      out.status = s;
      return out;
    }
    double art_sum = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (row_active_[i] && basis_[i] >= nv_ + m_) {
        art_sum += std::max(0.0, xb_[i]);
      }
    }
    if (art_sum > opt_.feas_tol) {
      out.status = LpStatus::kInfeasible;
      return out;
    }
    drive_out_artificials();
    for (int j = nv_ + m_; j < n_; ++j) {
      lo_[j] = 0.0;
      hi_[j] = 0.0;
      if (state_[j] != VarState::kBasic) {
        val_[j] = 0.0;
        state_[j] = VarState::kAtLower;
      }
    }
  }

  set_phase2_costs();
  recompute_reduced_costs();
  const LpStatus s = primal_loop(out, /*phase1=*/false);
  out.status = s;
  if (s == LpStatus::kOptimal) {
    extract(out);
    basis_dual_feasible_ = true;
  }
  return out;
}

LpSolution SimplexSolver::solve(const LpProblem& p) const {
  SimplexContext ctx(p, options_);
  return ctx.solve();
}

}  // namespace loki::solver
