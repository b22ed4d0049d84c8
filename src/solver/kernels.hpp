// The node LP's row kernels (solver/simplex.cpp), in two builds that give
// the same bits: the portable one (SSE2 where the target has it, scalar
// otherwise) and an AVX2 one, four lanes wide. active() picks the AVX2 build
// once per process when the CPU reports AVX2; there is no build flag and no
// option.
//
// Bit-identity rules for the AVX2 build:
//  * every element gets the same IEEE multiply and subtract as in the
//    portable build, and never a fused multiply-subtract;
//  * a zero pivot-row entry contributes +0.0 to a masked update, and
//    x - (+0.0) == x for every x, so a dense masked pass over the live
//    columns leaves exactly the elements a sparse pass would skip;
//  * every sum keeps its order (a basic value's terms in column order, and
//    the reduced-cost rebuild's rows in row order);
//  * argmin/argmax and tie-break scans stay scalar and in index order; only
//    the candidate masks and the ratios or merits they compare are vector.
// The differential test (solver_lp_test, SimplexKernels.*) runs both
// builds on random rows with signed zeros, subnormal, tiny and huge
// entries and compares them bit for bit.
#pragma once

#include <cstddef>

namespace loki::solver::kernels {

/// Where a tableau column sits: nonbasic at a bound, or basic.
enum class ColumnState : unsigned char { kAtLower, kAtUpper, kBasic };

struct Kernels {
  /// d[j] -= row[j] != 0 ? y * row[j] : 0 for j in [0, n): one row of the
  /// reduced-cost rebuild.
  void (*row_update)(double* d, const double* row, double y, int n);
  /// The pivot's eliminations once pivot row `rowr` is scaled: each listed
  /// row i of the row-major `a` (row stride `stride`) loses f_i = a_iq times
  /// rowr over [0, n), masked as row_update, and then a_iq = 0 exactly; d
  /// loses dq times rowr unless dq == 0. `nz` is scratch for n indices.
  void (*eliminate)(double* a, std::size_t stride, const int* rows, int nrows,
                    const double* rowr, int q, int n, double* d, double dq,
                    int* nz);
  /// The bounded dual ratio test on pivot row `rowr`: among nonbasic,
  /// non-fixed columns with |rowr_j| > tol whose sign lets the leaving
  /// variable move toward its violated bound (`below`: its lower one), the
  /// first one in index order whose |d_j| / |rowr_j| beats the best so far
  /// by more than tol. -1 when there is none.
  int (*dual_ratio)(const double* rowr, const double* d,
                    const ColumnState* state, const double* lo,
                    const double* hi, int n, bool below, double tol);
  /// Primal pricing: the nonbasic, non-fixed column whose reduced cost
  /// improves by more than tol (d_j < -tol at lower, d_j > tol at upper)
  /// with the largest devex merit d_j^2 / w_j, lowest index on ties; under
  /// `bland` the lowest improving index. Sets *dir to +1 (rise from lower)
  /// or -1 (fall from upper). -1 when none.
  int (*price)(const double* d, const ColumnState* state, const double* lo,
               const double* hi, const double* w, int n, double tol,
               bool bland, int* dir);
  /// xb[i] = bvec[i] - sum over t of a_i[cols[t]] * val[cols[t]], the terms
  /// subtracted in t order, for each listed row i.
  void (*basic_values)(const double* a, std::size_t stride, const int* rows,
                       int nrows, const double* bvec, const int* cols,
                       int ncols, const double* val, double* xb);
};

/// The portable build.
const Kernels& portable();
/// The AVX2 build, or nullptr when this CPU (or target) has no AVX2.
const Kernels* avx2();
/// The build the solver runs: avx2() when there is one, else portable().
const Kernels& active();

}  // namespace loki::solver::kernels
