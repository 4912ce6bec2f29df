#include "dp/descriptor.hpp"

#include <cmath>
#include <cstring>

#include "common/simd.hpp"

namespace dp::core {

namespace {

// ---------------------------------------------------------------------------
// Per-level kernels for the D = A<^T A contraction and its adjoint — the
// last descriptor loops that leaned on `#pragma omp simd` (ROADMAP item 1
// remainder). Level::Scalar keeps the exact seed bodies (pragma included);
// the vector kernels use wrapper FMAs with std::fma tails. The term-2 dot
// product reassociates (vector partials + tail), covered by the reduction
// clause of the numerical contract.
// ---------------------------------------------------------------------------

void descriptor_forward_scalar(const double* a_mat, std::size_t m, std::size_t m_sub,
                               double* d_flat) {
  for (std::size_t a = 0; a < m_sub; ++a) {
    double* drow = d_flat + a * m;
    std::memset(drow, 0, m * sizeof(double));
    for (std::size_t c = 0; c < 4; ++c) {
      const double av = a_mat[c * m + a];
      const double* arow = a_mat + c * m;
#pragma omp simd
      for (std::size_t b = 0; b < m; ++b) drow[b] += av * arow[b];
    }
  }
}

void descriptor_backward_scalar(const double* a_mat, const double* g_d, std::size_t m,
                                std::size_t m_sub, double* g_a) {
  std::memset(g_a, 0, 4 * m * sizeof(double));
  for (std::size_t c = 0; c < 4; ++c) {
    const double* arow = a_mat + c * m;
    double* grow = g_a + c * m;
    for (std::size_t a = 0; a < m_sub; ++a) {
      const double av = arow[a];
      const double* gd_row = g_d + a * m;
      // term 1: g_A[c][q] += g_d[a][q] * A[c][a] for all q
#pragma omp simd
      for (std::size_t q = 0; q < m; ++q) grow[q] += gd_row[q] * av;
      // term 2: g_A[c][a] += sum_b g_d[a][b] * A[c][b]
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (std::size_t b = 0; b < m; ++b) acc += gd_row[b] * arow[b];
      grow[a] += acc;
    }
  }
}

#if DP_SIMD_X86

// Forward: the four broadcast-times-row updates are fused into one sweep per
// output row (no memset, no read-modify-write round trips through d_flat).
DP_TARGET_AVX2 void descriptor_forward_avx2(const double* a_mat, std::size_t m,
                                            std::size_t m_sub, double* d_flat) {
  using namespace simd;
  const double* a0 = a_mat;
  const double* a1 = a_mat + m;
  const double* a2 = a_mat + 2 * m;
  const double* a3 = a_mat + 3 * m;
  for (std::size_t a = 0; a < m_sub; ++a) {
    double* drow = d_flat + a * m;
    const double av0 = a0[a], av1 = a1[a], av2 = a2[a], av3 = a3[a];
    const v4d v0 = v4_set1(av0), v1 = v4_set1(av1), v2 = v4_set1(av2), v3 = v4_set1(av3);
    std::size_t b = 0;
    for (; b + 4 <= m; b += 4) {
      v4d y = v4_mul(v0, v4_loadu(a0 + b));
      y = v4_fmadd(v1, v4_loadu(a1 + b), y);
      y = v4_fmadd(v2, v4_loadu(a2 + b), y);
      y = v4_fmadd(v3, v4_loadu(a3 + b), y);
      v4_storeu(drow + b, y);
    }
    for (; b < m; ++b) {
      double y = av0 * a0[b];
      y = std::fma(av1, a1[b], y);
      y = std::fma(av2, a2[b], y);
      y = std::fma(av3, a3[b], y);
      drow[b] = y;
    }
  }
}

DP_TARGET_AVX512 void descriptor_forward_avx512(const double* a_mat, std::size_t m,
                                                std::size_t m_sub, double* d_flat) {
  using namespace simd;
  const double* a0 = a_mat;
  const double* a1 = a_mat + m;
  const double* a2 = a_mat + 2 * m;
  const double* a3 = a_mat + 3 * m;
  for (std::size_t a = 0; a < m_sub; ++a) {
    double* drow = d_flat + a * m;
    const double av0 = a0[a], av1 = a1[a], av2 = a2[a], av3 = a3[a];
    const v8d v0 = v8_set1(av0), v1 = v8_set1(av1), v2 = v8_set1(av2), v3 = v8_set1(av3);
    std::size_t b = 0;
    for (; b + 8 <= m; b += 8) {
      v8d y = v8_mul(v0, v8_loadu(a0 + b));
      y = v8_fmadd(v1, v8_loadu(a1 + b), y);
      y = v8_fmadd(v2, v8_loadu(a2 + b), y);
      y = v8_fmadd(v3, v8_loadu(a3 + b), y);
      v8_storeu(drow + b, y);
    }
    for (; b < m; ++b) {
      double y = av0 * a0[b];
      y = std::fma(av1, a1[b], y);
      y = std::fma(av2, a2[b], y);
      y = std::fma(av3, a3[b], y);
      drow[b] = y;
    }
  }
}

// Backward: term 1 (axpy into grow) and term 2 (dot of the same streams)
// share one fused sweep per (c, a), so gd_row and arow are read once.
DP_TARGET_AVX2 void descriptor_backward_avx2(const double* a_mat, const double* g_d,
                                             std::size_t m, std::size_t m_sub, double* g_a) {
  using namespace simd;
  std::memset(g_a, 0, 4 * m * sizeof(double));
  for (std::size_t c = 0; c < 4; ++c) {
    const double* arow = a_mat + c * m;
    double* grow = g_a + c * m;
    for (std::size_t a = 0; a < m_sub; ++a) {
      const double av = arow[a];
      const double* gd_row = g_d + a * m;
      const v4d vav = v4_set1(av);
      v4d vacc = v4_zero();
      std::size_t b = 0;
      for (; b + 4 <= m; b += 4) {
        const v4d gd = v4_loadu(gd_row + b);
        v4_storeu(grow + b, v4_fmadd(gd, vav, v4_loadu(grow + b)));
        vacc = v4_fmadd(gd, v4_loadu(arow + b), vacc);
      }
      double acc = v4_reduce_add(vacc);
      for (; b < m; ++b) {
        grow[b] = std::fma(gd_row[b], av, grow[b]);
        acc = std::fma(gd_row[b], arow[b], acc);
      }
      grow[a] += acc;
    }
  }
}

DP_TARGET_AVX512 void descriptor_backward_avx512(const double* a_mat, const double* g_d,
                                                 std::size_t m, std::size_t m_sub,
                                                 double* g_a) {
  using namespace simd;
  std::memset(g_a, 0, 4 * m * sizeof(double));
  for (std::size_t c = 0; c < 4; ++c) {
    const double* arow = a_mat + c * m;
    double* grow = g_a + c * m;
    for (std::size_t a = 0; a < m_sub; ++a) {
      const double av = arow[a];
      const double* gd_row = g_d + a * m;
      const v8d vav = v8_set1(av);
      v8d vacc = v8_zero();
      std::size_t b = 0;
      for (; b + 8 <= m; b += 8) {
        const v8d gd = v8_loadu(gd_row + b);
        v8_storeu(grow + b, v8_fmadd(gd, vav, v8_loadu(grow + b)));
        vacc = v8_fmadd(gd, v8_loadu(arow + b), vacc);
      }
      double acc = v8_reduce_add(vacc);
      for (; b < m; ++b) {
        grow[b] = std::fma(gd_row[b], av, grow[b]);
        acc = std::fma(gd_row[b], arow[b], acc);
      }
      grow[a] += acc;
    }
  }
}

#endif  // DP_SIMD_X86

}  // namespace

void descriptor_forward(const double* a_mat, std::size_t m, std::size_t m_sub,
                        double* d_flat) {
  // D = A<^T A, contraction over the 4 rows.
#if DP_SIMD_X86
  const simd::Level lvl = simd::active();
  if (lvl == simd::Level::AVX512) return descriptor_forward_avx512(a_mat, m, m_sub, d_flat);
  if (lvl == simd::Level::AVX2) return descriptor_forward_avx2(a_mat, m, m_sub, d_flat);
#endif
  descriptor_forward_scalar(a_mat, m, m_sub, d_flat);
}

void descriptor_backward(const double* a_mat, const double* g_d, std::size_t m,
                         std::size_t m_sub, double* g_a) {
#if DP_SIMD_X86
  const simd::Level lvl = simd::active();
  if (lvl == simd::Level::AVX512)
    return descriptor_backward_avx512(a_mat, g_d, m, m_sub, g_a);
  if (lvl == simd::Level::AVX2) return descriptor_backward_avx2(a_mat, g_d, m, m_sub, g_a);
#endif
  descriptor_backward_scalar(a_mat, g_d, m, m_sub, g_a);
}

void descriptor_fit_tile(const nn::FittingNet& fit, const double* a_mat, std::size_t rows,
                         std::size_t m, std::size_t m_sub, double scale,
                         FitTileScratch& scratch, double* g_a, double* energies) {
  const std::size_t dim = m_sub * m;
  double* d_flat = fit.tile_input(scratch.fit_ws, rows);
  scratch.g_d.resize(rows * dim);
  for (std::size_t r = 0; r < rows; ++r)
    descriptor_forward(a_mat + r * 4 * m, m, m_sub, d_flat + r * dim);
  fit.forward_tile(scratch.fit_ws, energies);
  fit.backward_tile(scratch.fit_ws, scratch.g_d.data());
  for (std::size_t r = 0; r < rows; ++r) {
    double* ga = g_a + r * 4 * m;
    descriptor_backward(a_mat + r * 4 * m, scratch.g_d.data() + r * dim, m, m_sub, ga);
    for (std::size_t k = 0; k < 4 * m; ++k) ga[k] *= scale;
  }
}

}  // namespace dp::core
