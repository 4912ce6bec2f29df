#include "train/gradients.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

#include "dp/descriptor.hpp"
#include "nn/gemm.hpp"

namespace dp::train {

using core::EnvMat;
using core::ModelConfig;

void ModelGrads::init(const core::DPModel& model) {
  const int ntypes = model.config().ntypes;
  embed.resize(static_cast<std::size_t>(ntypes));
  fit.resize(static_cast<std::size_t>(ntypes));
  for (int t = 0; t < ntypes; ++t) {
    const auto& enet = model.embedding(t);
    embed[static_cast<std::size_t>(t)].resize(enet.layers().size());
    for (std::size_t l = 0; l < enet.layers().size(); ++l)
      embed[static_cast<std::size_t>(t)][l].init(enet.layers()[l]);
    const auto& fnet = model.fitting(t);
    fit[static_cast<std::size_t>(t)].resize(fnet.layers().size());
    for (std::size_t l = 0; l < fnet.layers().size(); ++l)
      fit[static_cast<std::size_t>(t)][l].init(fnet.layers()[l]);
  }
}

void ModelGrads::zero() {
  for (auto& net : embed)
    for (auto& g : net) g.zero();
  for (auto& net : fit)
    for (auto& g : net) g.zero();
}

namespace {
void add_grads(std::vector<std::vector<nn::DenseLayer::Grads>>& dst,
               const std::vector<std::vector<nn::DenseLayer::Grads>>& src,
               double factor = 1.0) {
  for (std::size_t t = 0; t < dst.size(); ++t)
    for (std::size_t l = 0; l < dst[t].size(); ++l) {
      auto& d = dst[t][l];
      const auto& s = src[t][l];
      for (std::size_t k = 0; k < d.w.size(); ++k) d.w.data()[k] += factor * s.w.data()[k];
      for (std::size_t k = 0; k < d.b.size(); ++k) d.b[k] += factor * s.b[k];
    }
}
double sq_norm(const std::vector<std::vector<nn::DenseLayer::Grads>>& nets) {
  double s = 0;
  for (const auto& net : nets)
    for (const auto& g : net) {
      for (std::size_t k = 0; k < g.w.size(); ++k) s += g.w.data()[k] * g.w.data()[k];
      for (double v : g.b) s += v * v;
    }
  return s;
}
}  // namespace

void ModelGrads::add(const ModelGrads& other) {
  add_grads(embed, other.embed);
  add_grads(fit, other.fit);
}

void ModelGrads::add_scaled(const ModelGrads& other, double factor) {
  add_grads(embed, other.embed, factor);
  add_grads(fit, other.fit, factor);
}

double ModelGrads::squared_norm() const { return sq_norm(embed) + sq_norm(fit); }

std::vector<double> ModelGrads::to_vector() const {
  std::vector<double> flat;
  auto push = [&](const std::vector<std::vector<nn::DenseLayer::Grads>>& nets) {
    for (const auto& net : nets)
      for (const auto& g : net) {
        flat.insert(flat.end(), g.w.data(), g.w.data() + g.w.size());
        flat.insert(flat.end(), g.b.begin(), g.b.end());
      }
  };
  push(embed);
  push(fit);
  return flat;
}

void ModelGrads::from_vector(const std::vector<double>& flat) {
  std::size_t pos = 0;
  auto pull = [&](std::vector<std::vector<nn::DenseLayer::Grads>>& nets) {
    for (auto& net : nets)
      for (auto& g : net) {
        DP_CHECK(pos + g.w.size() + g.b.size() <= flat.size());
        std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                  flat.begin() + static_cast<std::ptrdiff_t>(pos + g.w.size()), g.w.data());
        pos += g.w.size();
        std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                  flat.begin() + static_cast<std::ptrdiff_t>(pos + g.b.size()), g.b.begin());
        pos += g.b.size();
      }
  };
  pull(embed);
  pull(fit);
  DP_CHECK_MSG(pos == flat.size(), "flat gradient size mismatch");
}

double energy_with_gradients(const core::DPModel& model, const md::Box& box,
                             const md::Atoms& atoms, const md::NeighborList& nlist,
                             double seed, ModelGrads* grads) {
  const ModelConfig& cfg = model.config();
  EnvMat env;
  // The training path addresses slots densely (fixed sel[t]-row batches per
  // type, padded rows included) and is never on the MD hot loop, so it keeps
  // the dense Baseline layout rather than the compact CSR one.
  build_env_mat(cfg, box, atoms, nlist, env, core::EnvMatKernel::Baseline);

  const std::size_t n = env.n_atoms;
  const std::size_t m = cfg.m();
  const std::size_t m_sub = cfg.axis_neuron;
  const double scale = 1.0 / static_cast<double>(cfg.nm());

  // Embedding forward with retained workspaces (needed for weight grads).
  std::vector<nn::Matrix> g_by_type(static_cast<std::size_t>(cfg.ntypes));
  std::vector<nn::EmbeddingNet::BatchWorkspace> ws_by_type(
      static_cast<std::size_t>(cfg.ntypes));
  AlignedVector<double> s_buf;
  for (int t = 0; t < cfg.ntypes; ++t) {
    const int sel_t = cfg.sel[static_cast<std::size_t>(t)];
    const int off = cfg.type_offset(t);
    const std::size_t rows = n * static_cast<std::size_t>(sel_t);
    s_buf.resize(rows);
    for (std::size_t i = 0; i < n; ++i)
      for (int k = 0; k < sel_t; ++k)
        s_buf[i * static_cast<std::size_t>(sel_t) + static_cast<std::size_t>(k)] =
            env.rmat_row(i, off + k)[0];
    model.embedding(t).forward_batch_ws(s_buf.data(), rows, g_by_type[t], ws_by_type[t]);
  }

  std::vector<nn::Matrix> g_g_by_type(static_cast<std::size_t>(cfg.ntypes));
  if (grads != nullptr)
    for (int t = 0; t < cfg.ntypes; ++t) {
      g_g_by_type[t].resize(n * static_cast<std::size_t>(cfg.sel[static_cast<std::size_t>(t)]),
                            m);
      g_g_by_type[t].fill(0.0);
    }

  const bool se_r = cfg.descriptor == core::DescriptorKind::SeR;
  double energy = 0.0;
  AlignedVector<double> a_mat(4 * m), g_a(4 * m);
  struct {
    nn::FittingNet::Workspace fit_ws;
    AlignedVector<double> d_flat, g_d;
  } scratch;
  for (std::size_t i = 0; i < n; ++i) {
    const int ct = atoms.type[i];
    if (se_r) {
      // D = column mean of G over ALL slots (padded rows carry g(0), which
      // keeps the descriptor smooth — see fused/se_r_model.hpp).
      scratch.d_flat.assign(m, 0.0);
      for (int t = 0; t < cfg.ntypes; ++t) {
        const int sel_t = cfg.sel[static_cast<std::size_t>(t)];
        for (int k = 0; k < sel_t; ++k) {
          const double* row =
              g_by_type[t].row(i * static_cast<std::size_t>(sel_t) + static_cast<std::size_t>(k));
          for (std::size_t b = 0; b < m; ++b) scratch.d_flat[b] += row[b];
        }
      }
      for (double& v : scratch.d_flat) v *= scale;
      energy += model.fitting(ct).forward(scratch.d_flat.data(), scratch.fit_ws);
      if (grads == nullptr) continue;
      scratch.g_d.resize(m);
      model.fitting(ct).backward(scratch.fit_ws, scratch.g_d.data(),
                                 &grads->fit[static_cast<std::size_t>(ct)], seed);
      // dLoss/dG is g_D / N_m for every slot of this atom.
      for (int t = 0; t < cfg.ntypes; ++t) {
        const int sel_t = cfg.sel[static_cast<std::size_t>(t)];
        for (int k = 0; k < sel_t; ++k) {
          double* row =
              g_g_by_type[t].row(i * static_cast<std::size_t>(sel_t) + static_cast<std::size_t>(k));
          for (std::size_t b = 0; b < m; ++b) row[b] = scratch.g_d[b] * scale;
        }
      }
      continue;
    }

    std::memset(a_mat.data(), 0, 4 * m * sizeof(double));
    for (int t = 0; t < cfg.ntypes; ++t) {
      const int sel_t = cfg.sel[static_cast<std::size_t>(t)];
      const int off = cfg.type_offset(t);
      nn::gemm_tn_acc(env.rmat_row(i, off), g_by_type[t].row(i * static_cast<std::size_t>(sel_t)),
                      a_mat.data(), 4, static_cast<std::size_t>(sel_t), m);
    }
    for (double& v : a_mat) v *= scale;

    scratch.d_flat.resize(m_sub * m);
    core::descriptor_forward(a_mat.data(), m, m_sub, scratch.d_flat.data());
    energy += model.fitting(ct).forward(scratch.d_flat.data(), scratch.fit_ws);

    if (grads == nullptr) continue;

    // dLoss/dD (with the loss seed folded in) and fitting-net weight grads.
    scratch.g_d.resize(m_sub * m);
    model.fitting(ct).backward(scratch.fit_ws, scratch.g_d.data(),
                               &grads->fit[static_cast<std::size_t>(ct)], seed);
    core::descriptor_backward(a_mat.data(), scratch.g_d.data(), m, m_sub, g_a.data());
    for (double& v : g_a) v *= scale;

    // dLoss/dG rows for this atom's slots.
    for (int t = 0; t < cfg.ntypes; ++t) {
      const int sel_t = cfg.sel[static_cast<std::size_t>(t)];
      const int off = cfg.type_offset(t);
      nn::gemm(env.rmat_row(i, off), g_a.data(),
               g_g_by_type[t].row(i * static_cast<std::size_t>(sel_t)),
               static_cast<std::size_t>(sel_t), 4, m);
    }
  }

  if (grads != nullptr) {
    for (int t = 0; t < cfg.ntypes; ++t)
      model.embedding(t).backward_batch(ws_by_type[t], g_g_by_type[t], nullptr,
                                        &grads->embed[static_cast<std::size_t>(t)]);
  }
  return energy;
}

}  // namespace dp::train
