// The symmetry-preserving descriptor D = (G<)^T R~ R~^T G (paper Eq. 2) in
// its contracted form: with A = (1/N_m) R~^T G (4 x M) and A< its first M<
// columns, D = A<^T A (M< x M).
//
// Every inference path (baseline / compressed / fused) funnels through these
// two kernels, so they are the single point of truth for the descriptor
// algebra and its adjoint.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/fitting_net.hpp"

namespace dp::core {

/// d_flat[a * m + b] = sum_c a_mat[c * m + a_col(a)] * a_mat[c * m + b],
/// a < m_sub, b < m; a_mat is the 4 x m matrix A (row-major).
void descriptor_forward(const double* a_mat, std::size_t m, std::size_t m_sub, double* d_flat);

/// Adjoint: g_a (4 x m) from g_d (m_sub x m) and A.
///   g_A[c][q] = sum_{a < m_sub} g_d[a][q] A[c][a]
///             + (q < m_sub ? sum_b g_d[q][b] A[c][b] : 0)
void descriptor_backward(const double* a_mat, const double* g_d, std::size_t m,
                         std::size_t m_sub, double* g_a);

/// Atoms per fitting-net tile in the fused kernels. A compile-time constant,
/// not an option: 16 rows keep the tile workspace under 1 MB per thread on
/// the paper's copper net while the first layer's weights stream once per
/// 16 atoms instead of once per atom (DESIGN.md, fused kernel).
inline constexpr std::size_t kFitTile = 16;

/// Calls tile(type, atoms, rows) over the atoms [begin, end) grouped by
/// type: each type's atoms in ascending order, at most kFitTile per call.
template <class Fn>
void for_each_type_tile(const std::vector<int>& types, int ntypes, std::size_t begin,
                        std::size_t end, Fn&& tile) {
  std::size_t atoms[kFitTile];
  for (int t = 0; t < ntypes; ++t) {
    std::size_t rows = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (types[i] != t) continue;
      atoms[rows++] = i;
      if (rows == kFitTile) {
        tile(t, atoms, rows);
        rows = 0;
      }
    }
    if (rows > 0) tile(t, atoms, rows);
  }
}

/// Scratch for descriptor_fit_tile, reused across tiles. The descriptor
/// rows are built in place in the fitting workspace's tile input.
struct FitTileScratch {
  nn::FittingNet::Workspace fit_ws;
  AlignedVector<double> g_d;  ///< dE/dD, rows x (m_sub * m)
  std::size_t bytes() const { return fit_ws.bytes() + g_d.capacity() * sizeof(double); }
};

/// The shared middle of every inference path: from the (already 1/N_m
/// scaled) A matrices of a tile of `rows` same-type atoms (rows x 4m) to
/// their energies and the scaled gradients g_a = dE/dA * scale (rows x 4m,
/// ready to contract against R~ and G rows). The descriptor runs per row;
/// the fitting net runs once over the tile, forward and backward, so each
/// layer's weights stream once per tile instead of once per atom. Row r's
/// results do not depend on `rows` or on r. BaselineDP and CompressedDP
/// call it with rows = 1.
void descriptor_fit_tile(const nn::FittingNet& fit, const double* a_mat, std::size_t rows,
                         std::size_t m, std::size_t m_sub, double scale,
                         FitTileScratch& scratch, double* g_a, double* energies);

}  // namespace dp::core
