#include "nn/gemm.hpp"

#include <cmath>
#include <cstring>

#include "common/simd.hpp"

namespace dp::nn {

namespace {
// The k-inner accumulation order below streams B row-by-row, which is the
// cache-friendly order for row-major operands of the sizes used here.
inline void gemm_kernel(const double* a, const double* b, double* c,
                        std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  // A zero-row/column product is a legal no-op (the compact env layout
  // feeds an empty batch for an atom with no neighbors), but its output
  // pointer may be null — keep it away from memset's nonnull contract.
  if (m == 0 || n == 0) return;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(double));
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      const double* brow = b + p * n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Level::Scalar keeps the seed expressions: the bias row copied in, then the
// i-p-j loop above (one fma chain per element where the compiler contracts),
// and the per-element `omp simd` reduction of the seed gemm_nt / gemv_t.
// Both run row by row, so a tile of rows is trivially its rows one at a time.
// ---------------------------------------------------------------------------

void gemm_bias_scalar(const double* a, const double* w, const double* bias, double* c,
                      std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    if (bias != nullptr)
      std::memcpy(c + i * n, bias, n * sizeof(double));
    else
      std::memset(c + i * n, 0, n * sizeof(double));
  }
  gemm_kernel(a, w, c, m, k, n, /*accumulate=*/true);
}

void gemm_nt_scalar(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b + j * k;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

#if DP_SIMD_X86

// Block shapes per level. AVX-512 (32 vector registers): 8 rows x 2 vectors
// of NN accumulators and 4 x 4 NT accumulators. AVX2 (16 registers): half
// the rows, so accumulators plus operands never spill.
namespace avx2 {
constexpr simd::Level kLevel = simd::Level::AVX2;
constexpr std::size_t kNnRows = 4, kNtRows = 2, kNtCols = 4;
#define DP_LEVEL_TARGET DP_TARGET_AVX2
#include "nn/gemm_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx2

namespace avx512 {
constexpr simd::Level kLevel = simd::Level::AVX512;
constexpr std::size_t kNnRows = 8, kNtRows = 4, kNtCols = 4;
#define DP_LEVEL_TARGET DP_TARGET_AVX512
#include "nn/gemm_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx512

#endif  // DP_SIMD_X86

}  // namespace

void gemm(const double* a, const double* b, double* c,
          std::size_t m, std::size_t k, std::size_t n) {
  gemm_bias(a, b, nullptr, c, m, k, n);
}

void gemm_bias(const double* a, const double* w, const double* bias, double* c,
               std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
#if DP_SIMD_X86
  const simd::Level lvl = simd::active();
  if (lvl == simd::Level::AVX512) return avx512::gemm_bias(a, w, bias, c, m, k, n);
  if (lvl == simd::Level::AVX2) return avx2::gemm_bias(a, w, bias, c, m, k, n);
#endif
  gemm_bias_scalar(a, w, bias, c, m, k, n);
}

void gemm_acc(const double* a, const double* b, double* c,
              std::size_t m, std::size_t k, std::size_t n) {
  gemm_kernel(a, b, c, m, k, n, /*accumulate=*/true);
}

void gemm_tn_acc(const double* a, const double* b, double* c,
                 std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      double* crow = c + i * n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_tn(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  // C += A^T B accumulated as a sum over k rank-1 updates, each touching one
  // row of A and one row of B — exactly the outer-product form the fused
  // kernel of the paper uses (Fig 4 (c)).
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      double* crow = c + i * n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
#if DP_SIMD_X86
  const simd::Level lvl = simd::active();
  if (lvl == simd::Level::AVX512) return avx512::gemm_nt(a, b, c, m, k, n);
  if (lvl == simd::Level::AVX2) return avx2::gemm_nt(a, b, c, m, k, n);
#endif
  gemm_nt_scalar(a, b, c, m, k, n);
}

void affine(const double* x, const double* w, const double* bias, double* y,
            std::size_t k, std::size_t n) {
  gemm_bias(x, w, bias, y, 1, k, n);
}

void gemv_acc(const double* x, const double* w, double* y, std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const double xv = x[p];
    const double* wrow = w + p * n;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) y[j] += xv * wrow[j];
  }
}

void gemv_t(const double* g_out, const double* w, double* g_in, std::size_t k, std::size_t n) {
  gemm_nt(g_out, w, g_in, 1, n, k);
}

}  // namespace dp::nn
