// The baseline inference path — the flat "current state-of-the-art" of
// Ref [20] that this paper optimizes against.
//
// Execution per force call (Fig 1 (e)):
//   1. environment matrices (dense padded or compact CSR, by env_kernel);
//   2. the embedding net is run as a batched GEMM pipeline over every stored
//      slot, materializing the embedding matrix G (the >95%-of-memory
//      buffer — n_atoms x N_m x M when dense, filled-slots x M when compact);
//   3. per atom: A = (1/N_m) R~^T G, descriptor D = A<^T A, fitting net;
//   4. reverse mode back through the descriptor and the embedding net
//      (again GEMM-shaped) to dE/dR~;
//   5. ProdForceSeA / ProdVirialSeA scatter.
//
// All scratch lives in persistent, grow-only members sized by prepare(), so
// steady-state compute() calls allocate nothing.
#pragma once

#include <vector>

#include "dp/descriptor.hpp"
#include "dp/dp_model.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "nn/embedding_net.hpp"

namespace dp::core {

class BaselineDP final : public md::ForceField {
 public:
  explicit BaselineDP(const DPModel& model, EnvMatKernel env_kernel = EnvMatKernel::Optimized);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return model_.config().rcut; }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(model_.config().nm());
  }

  /// Per-atom energies of the last compute() (Fig 2 needs them).
  const std::vector<double>& atom_energies() const { return atom_energy_; }
  /// Environment matrix of the last compute(), exposed for tests/benches.
  const EnvMat& env() const { return env_; }
  /// Bytes of embedding-matrix storage the last compute() materialized
  /// (G plus the retained workspace for backward) — the paper's memory story.
  std::size_t embedding_bytes() const { return embedding_bytes_; }
  /// Capacity-based bytes of every persistent buffer this model owns; a
  /// plateau across steps certifies the allocation-free steady state.
  std::size_t workspace_bytes() const;

 private:
  /// Grow-only sizing of every buffer compute() touches; called right after
  /// the env build (row layout depends on the built counts).
  void prepare(std::size_t n);
  /// First G row of atom i within type t's embedding batch.
  std::size_t row_of(int t, std::size_t i) const {
    return row_off_[static_cast<std::size_t>(t) * (env_.n_atoms + 1) + i];
  }
  /// G rows atom i contributes for type t (dense batches keep padded rows —
  /// the fixed GEMM shape IS the baseline; compact batches hold real ones).
  int rows_of(std::size_t i, int t) const {
    return env_.compact() ? env_.count(i, t)
                          : model_.config().sel[static_cast<std::size_t>(t)];
  }

  const DPModel& model_;
  EnvMatKernel env_kernel_;
  EnvMat env_;
  EnvMatWorkspace env_ws_;
  ProdForceWorkspace prod_ws_;
  AlignedVector<double> g_rmat_;  ///< dE/dR~ per stored slot (4 per slot)
  std::vector<nn::Matrix> g_by_type_;
  std::vector<nn::EmbeddingNet::BatchWorkspace> ws_by_type_;
  std::vector<nn::Matrix> g_g_by_type_;
  AlignedVector<double> s_buf_, g_s_, a_mat_, g_a_;
  FitTileScratch scratch_;
  std::vector<std::size_t> row_off_;  ///< ntypes * (n + 1) per-type row prefix
  std::vector<double> atom_energy_;
  std::size_t embedding_bytes_ = 0;
};

}  // namespace dp::core
