// Small dense linear algebra kernels.
//
// The matrices in the DP pipeline are small-by-skinny (N_m x 4, N_m x M,
// hidden widths <= 240), so a register-blocked loop nest beats calling out to
// a full BLAS for this workload and keeps the library dependency-free.
//
// gemm_bias (NN) and gemm_nt (NT) are the register-blocked kernels behind
// simd.hpp dispatch (nn/gemm_kernels.inc); gemm, affine and gemv_t are
// their special cases. Each element's summation order is fixed by the
// element alone, never by m or by its row's position, so a tile of rows is
// bitwise the same as those rows computed one at a time:
//   * gemm_bias: one fma chain over k, in order, from the bias;
//   * gemm_nt: a lane-partial sweep over k, a fixed horizontal sum, then a
//     std::fma tail (Level::Scalar: the seed `omp simd` reduction, row by
//     row).
#pragma once

#include <cstddef>

namespace dp::nn {

/// C[m x n] = A[m x k] * B[k x n]   (row-major, C overwritten); gemm_bias
/// without a bias.
void gemm(const double* a, const double* b, double* c,
          std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] = bias[n] (each row) + A[m x k] * W[k x n]; bias may be nullptr.
/// The fitting net's forward over a tile of atoms.
void gemm_bias(const double* a, const double* w, const double* bias, double* c,
               std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] += A[m x k] * B[k x n]
void gemm_acc(const double* a, const double* b, double* c,
              std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] = A^T[k x m] * B[k x n]  — A stored as k x m row-major.
/// This is the R~^T G contraction shape: k = N_m rows are reduced.
void gemm_tn(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] += A^T[k x m] * B[k x n] — accumulating variant (per-type blocks
/// of the environment matrix are contracted into one A matrix).
void gemm_tn_acc(const double* a, const double* b, double* c,
                 std::size_t m, std::size_t k, std::size_t n);

/// C[m x n] = A[m x k] * B^T[n x k]  — B stored as n x k row-major. With B
/// a layer's in x out weights this is the fitting net's backward over a tile,
/// contracted against the row-major weights directly (no transposed copy).
void gemm_nt(const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n);

/// y[n] = x[k] * W[k x n] + b[n]   (b may be nullptr) — gemm_bias, 1 row.
void affine(const double* x, const double* w, const double* bias, double* y,
            std::size_t k, std::size_t n);

/// y[n] += x[k] * W[k x n]
void gemv_acc(const double* x, const double* w, double* y, std::size_t k, std::size_t n);

/// g_in[k] = g_out[n] * W^T  i.e. g_in[j] = sum_n g_out[i] W[j,i] — the
/// reverse-mode counterpart of `affine` — gemm_nt, 1 row.
void gemv_t(const double* g_out, const double* w, double* g_in, std::size_t k, std::size_t n);

}  // namespace dp::nn
