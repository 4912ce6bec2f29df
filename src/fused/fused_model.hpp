// The fully optimized inference path (paper Sec 3.4 / 3.5).
//
// Kernel fusion: the tabulated embedding rows g(s_j) are evaluated and
// immediately contracted into A = (1/N_m) R~^T G as rank-1 updates; the
// embedding matrix G is never allocated over the frame (Fig 3's dashed
// lines). Each atom's rows (value and derivative) are walked once, batched
// over the atom's slot run in the blocked layout (Sec 3.5.1), into a
// per-thread row cache that pass 2 reads back — the analog of the CUDA
// kernel's shared-memory staging.
//
// Redundancy removal: with the compact CSR environment matrix (the default
// `Optimized` kernel) only filled slots are ever stored or walked — the
// padded zeros of Sec 3.4.2 don't exist in memory at all. With the dense
// `Baseline` kernel the slot loops still skip the padded tail of each type
// block when `skip_padding` is set (Fig 4) — exact, because a padded slot's
// environment-matrix row is identically zero.
#pragma once

#include <cstddef>
#include <vector>

#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

struct FusedOptions {
  bool skip_padding = true;  ///< redundancy removal (Sec 3.4.2), dense layout only
  core::EnvMatKernel env_kernel = core::EnvMatKernel::Optimized;  ///< ProdEnvMatA variant
};

/// The one fused compute body, shared by FusedDP (double tables) and
/// MixedFusedDP (float or half tables). It computes the embedding stage in
/// T = tab::compute_t<Coef> — double for FusedDP, float for MixedFusedDP —
/// and everything else in double. Per atom:
///   1. stage the atom's s column in T;
///   2. one batched blocked table walk per type block into the per-thread
///      row cache (value / derivative row pairs);
///   3. rank-1 update of A in T from the cached value rows (Fig 4 (c));
///   4. descriptor and fitting net in double;
///   5. pass 2 from the cache: per-slot gradient in T, stored in double.
template <class Coef>
class FusedKernel {
 public:
  using T = tab::compute_t<Coef>;

  /// `tables` are indexed by DPModel::pair_index().
  md::ForceResult compute(const core::DPModel& model,
                          const std::vector<tab::Table<Coef>>& tables, const FusedOptions& opts,
                          const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic);

  const std::vector<double>& atom_energies() const { return atom_energy_; }
  const core::EnvMat& env() const { return env_; }
  std::size_t slots_processed() const { return slots_processed_; }
  std::size_t slots_total() const { return slots_total_; }
  /// Capacity-based bytes of every persistent buffer this kernel owns.
  std::size_t workspace_bytes() const;

 private:
  /// Per-thread scratch, sized once by prepare() and indexed by the team
  /// thread id inside the parallel region.
  struct ThreadScratch {
    AlignedVector<T> s_col;      ///< the atom's s values, one per slot
    AlignedVector<T> row_cache;  ///< value / derivative row pairs, stride 2M
    AlignedVector<T> a_t, ga_t;  ///< A and dE/dA in the compute type
    AlignedVector<double> a_mat, g_a;
    core::AtomKernelScratch scratch;
    // Per-thread reduction partials, folded by the master in ascending
    // thread order after the team joins (no shared reduction frame).
    std::size_t slots_partial = 0;
    double energy_partial = 0.0;
    std::size_t bytes() const {
      return (s_col.capacity() + row_cache.capacity() + a_t.capacity() + ga_t.capacity()) *
                 sizeof(T) +
             (a_mat.capacity() + g_a.capacity()) * sizeof(double);
    }
  };
  void prepare(const core::ModelConfig& cfg, std::size_t n);

  core::EnvMat env_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  AlignedVector<double> g_rmat_;
  std::vector<ThreadScratch> scratch_;
  std::vector<double> atom_energy_;
  std::size_t slots_processed_ = 0;
  std::size_t slots_total_ = 0;
};

extern template class FusedKernel<double>;
extern template class FusedKernel<float>;
extern template class FusedKernel<_Float16>;

class FusedDP final : public md::ForceField {
 public:
  explicit FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts = {})
      : tab_(tabulated), opts_(opts) {}

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override {
    return kernel_.compute(tab_.model(), tab_.tables(), opts_, box, atoms, nlist, periodic);
  }
  double cutoff() const override { return tab_.model().config().rcut; }
  std::uint64_t extrapolations() const override { return tab_.extrapolations(); }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return kernel_.atom_energies(); }
  const core::EnvMat& env() const { return kernel_.env(); }

  /// Slot statistics of the last compute() — Fig 4's redundancy story.
  std::size_t slots_processed() const { return kernel_.slots_processed(); }
  std::size_t slots_total() const { return kernel_.slots_total(); }
  /// Capacity-based bytes of every persistent buffer this model owns.
  std::size_t workspace_bytes() const { return kernel_.workspace_bytes(); }

 private:
  const tab::TabulatedDP& tab_;
  FusedOptions opts_;
  FusedKernel<double> kernel_;
};

}  // namespace dp::fused
