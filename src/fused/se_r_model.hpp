// Fused inference for the radial se_r descriptor.
//
// D_i[b] = (1/N_m) sum_j g_b(s(r_ij)) — only the gated inverse distance
// enters, so the descriptor is rotation-invariant trivially and the whole
// directional machinery (the 4-column environment matrix contraction)
// disappears. Roughly 4x less embedding-stage arithmetic than se_a at equal
// widths, at the cost of a far less expressive representation; DeePMD ships
// both, and so does this library. Uses the same quintic tables, environment
// matrices and force scatter as the se_a paths.
//
// Padding note: se_r lacks se_a's zero-row protection — a padded slot
// contributes g(0), not 0, and that is what makes the descriptor SMOOTH: as
// a neighbor leaves the cutoff its s decays to 0 and its row continuously
// becomes the padding value. The kernel therefore adds n_padded * g(0)
// analytically (g(0) cached per table) instead of walking padded slots —
// redundancy removal stays exact AND the energy stays continuous.
#pragma once

#include <vector>

#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "nn/fitting_net.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

class SeRFusedDP final : public md::ForceField {
 public:
  /// The model must be configured with DescriptorKind::SeR (the fitting-net
  /// input is M, not M< x M).
  explicit SeRFusedDP(const tab::TabulatedDP& tabulated);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return tab_.model().config().rcut; }
  std::uint64_t extrapolations() const override { return tab_.extrapolations(); }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return atom_energy_; }

 private:
  void prepare(std::size_t n);

  struct ThreadScratch {
    AlignedVector<double> row_cache;      ///< value / derivative row pairs, stride 2M
    AlignedVector<double> g_tile;          ///< dE/dD of a tile, kFitTile x M
    double e_tile[core::kFitTile] = {};    ///< the tile's atom energies
    nn::FittingNet::Workspace fit_ws;
    // Per-thread partials, folded by the master in ascending thread order.
    std::size_t slots_partial = 0;
    double fit_flops = 0.0;
  };

  const tab::TabulatedDP& tab_;
  std::vector<AlignedVector<double>> g_zero_;  ///< g(0) per embedding table
  core::EnvMat env_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  AlignedVector<double> g_rmat_;
  std::vector<ThreadScratch> scratch_;
  std::vector<double> atom_energy_;
};

}  // namespace dp::fused
