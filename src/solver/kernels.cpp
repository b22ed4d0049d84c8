#include "solver/kernels.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define LOKI_KERNELS_AVX2 1
#endif

namespace loki::solver::kernels {

namespace {

// ---------------------------------------------------------------------------
// Portable build
// ---------------------------------------------------------------------------

// Masked instead of branched: x - (+0.0) == x for every x, so a zero entry
// leaves d[j] bit-identical. Under the default -ftrapping-math GCC will not
// if-convert the scalar form (the compare might trap), so where SSE2 is
// available (baseline on x86-64) the loop is written with it: cmpneq is true
// exactly where `!=` is, NaN included, and each lane does the same IEEE
// multiply and subtract as the scalar tail.
void row_update_portable(double* d, const double* row, double y, int n) {
  int j = 0;
#if defined(__SSE2__)
  const __m128d yv = _mm_set1_pd(y);
  const __m128d zero = _mm_setzero_pd();
  for (; j + 2 <= n; j += 2) {
    const __m128d r = _mm_loadu_pd(row + j);
    const __m128d t = _mm_and_pd(_mm_mul_pd(yv, r), _mm_cmpneq_pd(r, zero));
    _mm_storeu_pd(d + j, _mm_sub_pd(_mm_loadu_pd(d + j), t));
  }
#endif
  for (; j < n; ++j) {
    const double t = y * row[j];
    d[j] -= row[j] != 0.0 ? t : 0.0;
  }
}

void eliminate_portable(double* a, std::size_t stride, const int* rows,
                        int nrows, const double* rowr, int q, int n, double* d,
                        double dq, int* nz) {
  // The pivot row's nonzero pattern, gathered once and applied to every
  // eliminated row and to d. The gather is branch-free: each index is
  // written and the cursor advances only past a nonzero.
  int nnz = 0;
  for (int j = 0; j < n; ++j) {
    nz[nnz] = j;
    nnz += rowr[j] != 0.0;
  }
  // Rows are eliminated four at a time, so each pattern index and pivot-row
  // value is loaded once per block; every element still gets exactly one
  // a_ij -= f_i * a_rj.
  int k = 0;
  for (; k + 4 <= nrows; k += 4) {
    double* r0 = a + static_cast<std::size_t>(rows[k]) * stride;
    double* r1 = a + static_cast<std::size_t>(rows[k + 1]) * stride;
    double* r2 = a + static_cast<std::size_t>(rows[k + 2]) * stride;
    double* r3 = a + static_cast<std::size_t>(rows[k + 3]) * stride;
    const double f0 = r0[q], f1 = r1[q], f2 = r2[q], f3 = r3[q];
    for (int t = 0; t < nnz; ++t) {
      const int j = nz[t];
      const double v = rowr[j];
      r0[j] -= f0 * v;
      r1[j] -= f1 * v;
      r2[j] -= f2 * v;
      r3[j] -= f3 * v;
    }
    r0[q] = r1[q] = r2[q] = r3[q] = 0.0;  // exact
  }
  for (; k < nrows; ++k) {
    double* rowi = a + static_cast<std::size_t>(rows[k]) * stride;
    const double f = rowi[q];
    for (int t = 0; t < nnz; ++t) rowi[nz[t]] -= f * rowr[nz[t]];
    rowi[q] = 0.0;  // exact
  }
  if (dq != 0.0) {
    for (int t = 0; t < nnz; ++t) d[nz[t]] -= dq * rowr[nz[t]];
  }
}

int dual_ratio_portable(const double* rowr, const double* d,
                        const ColumnState* state, const double* lo,
                        const double* hi, int n, bool below, double tol) {
  int q = -1;
  double best_ratio = 0.0;
  for (int j = 0; j < n; ++j) {
    if (state[j] == ColumnState::kBasic || lo[j] == hi[j]) continue;
    const double arj = rowr[j];
    if (std::abs(arj) <= tol) continue;
    const bool at_lower = state[j] == ColumnState::kAtLower;
    const bool ok = below ? (at_lower ? arj < 0.0 : arj > 0.0)
                          : (at_lower ? arj > 0.0 : arj < 0.0);
    if (!ok) continue;
    const double ratio = std::abs(d[j]) / std::abs(arj);
    if (q < 0 || ratio < best_ratio - tol) {
      q = j;
      best_ratio = ratio;
    }
  }
  return q;
}

int price_portable(const double* d, const ColumnState* state, const double* lo,
                   const double* hi, const double* w, int n, double tol,
                   bool bland, int* dir) {
  int q = -1;
  double best = 0.0;  // Dantzig: |d|; devex: d^2 / w
  for (int j = 0; j < n; ++j) {
    if (state[j] == ColumnState::kBasic || lo[j] == hi[j]) continue;
    const double dj = d[j];
    int cand_dir = 0;
    if (state[j] == ColumnState::kAtLower) {
      if (dj < -tol) cand_dir = +1;
    } else {
      if (dj > tol) cand_dir = -1;
    }
    if (cand_dir == 0) continue;
    if (bland) {
      *dir = cand_dir;
      return j;
    }
    const double merit = w != nullptr ? dj * dj / w[j] : std::abs(dj);
    if (merit > best) {
      best = merit;
      q = j;
      *dir = cand_dir;
    }
  }
  return q;
}

void basic_values_portable(const double* a, std::size_t stride,
                           const int* rows, int nrows, const double* bvec,
                           const int* cols, int ncols, const double* val,
                           double* xb) {
  for (int k = 0; k < nrows; ++k) {
    const int i = rows[k];
    const double* row = a + static_cast<std::size_t>(i) * stride;
    double s = bvec[i];
    for (int t = 0; t < ncols; ++t) s -= row[cols[t]] * val[cols[t]];
    xb[i] = s;
  }
}

#if defined(LOKI_KERNELS_AVX2)

// ---------------------------------------------------------------------------
// AVX2 build: "avx2" only, never "fma", so no multiply and subtract can be
// contracted into one rounding.
// ---------------------------------------------------------------------------

#define LOKI_AVX2 __attribute__((target("avx2")))

/// All ones in the lanes where v != 0 (NaN included, as with `!=`).
LOKI_AVX2 inline __m256d nonzero(__m256d v) {
  return _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ);
}

/// p[0..3] -= f * v in the lanes of mask m; the other lanes lose +0.0.
LOKI_AVX2 inline void sub_masked(double* p, __m256d f, __m256d v, __m256d m) {
  const __m256d t = _mm256_and_pd(_mm256_mul_pd(f, v), m);
  _mm256_storeu_pd(p, _mm256_sub_pd(_mm256_loadu_pd(p), t));
}

LOKI_AVX2 inline __m256d abs4(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Per lane: all ones where state[j + lane] == s.
LOKI_AVX2 inline __m256d state_is(const ColumnState* state, ColumnState s) {
  std::int32_t four;
  std::memcpy(&four, state, sizeof(four));
  const __m256i st = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(four));
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(st, _mm256_set1_epi64x(static_cast<int>(s))));
}

LOKI_AVX2 void row_update_avx2(double* d, const double* row, double y, int n) {
  const __m256d yv = _mm256_set1_pd(y);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d r = _mm256_loadu_pd(row + j);
    sub_masked(d + j, yv, r, nonzero(r));
  }
  for (; j < n; ++j) {
    const double t = y * row[j];
    d[j] -= row[j] != 0.0 ? t : 0.0;
  }
}

LOKI_AVX2 void eliminate_avx2(double* a, std::size_t stride, const int* rows,
                              int nrows, const double* rowr, int q, int n,
                              double* d, double dq, int* /*nz*/) {
  // A dense masked pass over [0, n) instead of the gathered pattern, four
  // rows per load of the pivot row.
  int k = 0;
  for (; k + 4 <= nrows; k += 4) {
    double* r0 = a + static_cast<std::size_t>(rows[k]) * stride;
    double* r1 = a + static_cast<std::size_t>(rows[k + 1]) * stride;
    double* r2 = a + static_cast<std::size_t>(rows[k + 2]) * stride;
    double* r3 = a + static_cast<std::size_t>(rows[k + 3]) * stride;
    const double f0 = r0[q], f1 = r1[q], f2 = r2[q], f3 = r3[q];
    const __m256d f0v = _mm256_set1_pd(f0), f1v = _mm256_set1_pd(f1),
                  f2v = _mm256_set1_pd(f2), f3v = _mm256_set1_pd(f3);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d v = _mm256_loadu_pd(rowr + j);
      const __m256d m = nonzero(v);
      sub_masked(r0 + j, f0v, v, m);
      sub_masked(r1 + j, f1v, v, m);
      sub_masked(r2 + j, f2v, v, m);
      sub_masked(r3 + j, f3v, v, m);
    }
    for (; j < n; ++j) {
      const double v = rowr[j];
      if (v == 0.0) continue;
      r0[j] -= f0 * v;
      r1[j] -= f1 * v;
      r2[j] -= f2 * v;
      r3[j] -= f3 * v;
    }
    r0[q] = r1[q] = r2[q] = r3[q] = 0.0;  // exact
  }
  for (; k < nrows; ++k) {
    double* rowi = a + static_cast<std::size_t>(rows[k]) * stride;
    row_update_avx2(rowi, rowr, rowi[q], n);
    rowi[q] = 0.0;  // exact
  }
  if (dq != 0.0) row_update_avx2(d, rowr, dq, n);
}

/// Visits the set lanes of `bits` (block starting at column j) in index
/// order with the lane's value from `v`.
template <typename Visit>
LOKI_AVX2 inline void for_each_lane(int bits, int j, __m256d v, Visit visit) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  while (bits != 0) {
    const int b = __builtin_ctz(static_cast<unsigned>(bits));
    bits &= bits - 1;
    visit(j + b, lane[b]);
  }
}

LOKI_AVX2 int dual_ratio_avx2(const double* rowr, const double* d,
                              const ColumnState* state, const double* lo,
                              const double* hi, int n, bool below,
                              double tol) {
  int q = -1;
  double best_ratio = 0.0;
  const auto visit = [&](int j, double ratio) {
    if (q < 0 || ratio < best_ratio - tol) {
      q = j;
      best_ratio = ratio;
    }
  };
  const __m256d tolv = _mm256_set1_pd(tol);
  const __m256d zero = _mm256_setzero_pd();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d arj = _mm256_loadu_pd(rowr + j);
    const __m256d abs_arj = abs4(arj);
    const __m256d at_lower = state_is(state + j, ColumnState::kAtLower);
    // Nonbasic, not fixed, and |a_rj| > tol (NaN passes, as in `<= tol`
    // failing) ...
    __m256d cand = _mm256_andnot_pd(
        _mm256_or_pd(state_is(state + j, ColumnState::kBasic),
                     _mm256_cmp_pd(_mm256_loadu_pd(lo + j),
                                   _mm256_loadu_pd(hi + j), _CMP_EQ_OQ)),
        _mm256_cmp_pd(abs_arj, tolv, _CMP_NLE_UQ));
    // ... with the sign that moves the leaving variable toward its bound:
    // below, a_rj < 0 at lower and a_rj > 0 at upper; above, the reverse.
    const __m256d neg = _mm256_cmp_pd(arj, zero, _CMP_LT_OQ);
    const __m256d pos = _mm256_cmp_pd(arj, zero, _CMP_GT_OQ);
    const __m256d ok = below ? _mm256_blendv_pd(pos, neg, at_lower)
                             : _mm256_blendv_pd(neg, pos, at_lower);
    cand = _mm256_and_pd(cand, ok);
    const int bits = _mm256_movemask_pd(cand);
    if (bits == 0) continue;
    for_each_lane(bits, j,
                  _mm256_div_pd(abs4(_mm256_loadu_pd(d + j)), abs_arj), visit);
  }
  for (; j < n; ++j) {
    if (state[j] == ColumnState::kBasic || lo[j] == hi[j]) continue;
    const double arj = rowr[j];
    if (std::abs(arj) <= tol) continue;
    const bool at_lower = state[j] == ColumnState::kAtLower;
    const bool ok = below ? (at_lower ? arj < 0.0 : arj > 0.0)
                          : (at_lower ? arj > 0.0 : arj < 0.0);
    if (ok) visit(j, std::abs(d[j]) / std::abs(arj));
  }
  return q;
}

LOKI_AVX2 int price_avx2(const double* d, const ColumnState* state,
                         const double* lo, const double* hi, const double* w,
                         int n, double tol, bool bland, int* dir) {
  int q = -1;
  double best = 0.0;
  const auto visit = [&](int j, double merit) {
    if (merit > best) {
      best = merit;
      q = j;
      *dir = state[j] == ColumnState::kAtLower ? +1 : -1;
    }
  };
  const __m256d tolv = _mm256_set1_pd(tol);
  const __m256d neg_tolv = _mm256_set1_pd(-tol);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dj = _mm256_loadu_pd(d + j);
    const __m256d at_lower = state_is(state + j, ColumnState::kAtLower);
    // Improving: d < -tol at lower, d > tol at upper; nonbasic, not fixed.
    const __m256d improving = _mm256_blendv_pd(
        _mm256_cmp_pd(dj, tolv, _CMP_GT_OQ),
        _mm256_cmp_pd(dj, neg_tolv, _CMP_LT_OQ), at_lower);
    const __m256d cand = _mm256_andnot_pd(
        _mm256_or_pd(state_is(state + j, ColumnState::kBasic),
                     _mm256_cmp_pd(_mm256_loadu_pd(lo + j),
                                   _mm256_loadu_pd(hi + j), _CMP_EQ_OQ)),
        improving);
    const int bits = _mm256_movemask_pd(cand);
    if (bits == 0) continue;
    if (bland) {
      q = j + __builtin_ctz(static_cast<unsigned>(bits));
      *dir = state[q] == ColumnState::kAtLower ? +1 : -1;
      return q;
    }
    const __m256d merit =
        w != nullptr
            ? _mm256_div_pd(_mm256_mul_pd(dj, dj), _mm256_loadu_pd(w + j))
            : abs4(dj);
    for_each_lane(bits, j, merit, visit);
  }
  for (; j < n; ++j) {
    if (state[j] == ColumnState::kBasic || lo[j] == hi[j]) continue;
    const double dj = d[j];
    const bool improving = state[j] == ColumnState::kAtLower ? dj < -tol
                                                            : dj > tol;
    if (!improving) continue;
    if (bland) {
      *dir = state[j] == ColumnState::kAtLower ? +1 : -1;
      return j;
    }
    visit(j, w != nullptr ? dj * dj / w[j] : std::abs(dj));
  }
  return q;
}

LOKI_AVX2 void basic_values_avx2(const double* a, std::size_t stride,
                                 const int* rows, int nrows, const double* bvec,
                                 const int* cols, int ncols, const double* val,
                                 double* xb) {
  // Four rows per pass over the columns, one row per lane: each lane still
  // subtracts its row's terms in column order.
  int k = 0;
  for (; k + 4 <= nrows; k += 4) {
    const double* p0 = a + static_cast<std::size_t>(rows[k]) * stride;
    const double* p1 = a + static_cast<std::size_t>(rows[k + 1]) * stride;
    const double* p2 = a + static_cast<std::size_t>(rows[k + 2]) * stride;
    const double* p3 = a + static_cast<std::size_t>(rows[k + 3]) * stride;
    __m256d s = _mm256_set_pd(bvec[rows[k + 3]], bvec[rows[k + 2]],
                              bvec[rows[k + 1]], bvec[rows[k]]);
    for (int t = 0; t < ncols; ++t) {
      const int j = cols[t];
      const __m256d aj = _mm256_set_pd(p3[j], p2[j], p1[j], p0[j]);
      s = _mm256_sub_pd(s, _mm256_mul_pd(aj, _mm256_set1_pd(val[j])));
    }
    alignas(32) double out[4];
    _mm256_store_pd(out, s);
    for (int u = 0; u < 4; ++u) xb[rows[k + u]] = out[u];
  }
  basic_values_portable(a, stride, rows + k, nrows - k, bvec, cols, ncols, val,
                        xb);
}

#undef LOKI_AVX2

#endif  // LOKI_KERNELS_AVX2

constexpr Kernels kPortable{row_update_portable, eliminate_portable,
                            dual_ratio_portable, price_portable,
                            basic_values_portable};

}  // namespace

const Kernels& portable() { return kPortable; }

const Kernels* avx2() {
#if defined(LOKI_KERNELS_AVX2)
  static constexpr Kernels kAvx2{row_update_avx2, eliminate_avx2,
                                 dual_ratio_avx2, price_avx2,
                                 basic_values_avx2};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const Kernels& active() {
  static const Kernels& chosen = avx2() != nullptr ? *avx2() : portable();
  return chosen;
}

}  // namespace loki::solver::kernels
