#include "nn/fitting_net.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dp::nn {

FittingNet::FittingNet(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                       Activation act)
    : in_dim_(in_dim) {
  DP_CHECK(in_dim > 0);
  std::size_t in = in_dim;
  for (std::size_t w : hidden) {
    const Shortcut sc = (w == in) ? Shortcut::Identity : Shortcut::None;
    layers_.emplace_back(in, w, act, sc);
    in = w;
  }
  layers_.emplace_back(in, 1, Activation::Linear, Shortcut::None);
}

void FittingNet::init_random(Rng& rng) {
  for (auto& layer : layers_) layer.init_random(rng);
}

void FittingNet::set_activation(Activation a) {
  // The final layer stays linear: it is the energy read-out.
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) layers_[l].set_activation(a);
}

double* FittingNet::tile_input(Workspace& ws, std::size_t rows) const {
  ws.inputs.resize(layers_.size());
  ws.acts.resize(layers_.size());
  ws.rows = rows;
  ws.inputs[0].resize(rows * in_dim_);
  return ws.inputs[0].data();
}

void FittingNet::forward_tile(Workspace& ws, double* energies) const {
  const std::size_t L = layers_.size();
  DP_CHECK_MSG(ws.inputs.size() == L, "forward_tile() without a tile_input()");
  const std::size_t rows = ws.rows;
  for (std::size_t l = 0; l < L; ++l) {
    const auto& layer = layers_[l];
    ws.acts[l].resize(rows * layer.out_dim());
    // The last layer is the 1-wide energy read-out: it writes the energies.
    double* out = energies;
    if (l + 1 < L) {
      ws.inputs[l + 1].resize(rows * layer.out_dim());
      out = ws.inputs[l + 1].data();
    }
    layer.forward_tile(ws.inputs[l].data(), rows, out, ws.acts[l].data());
  }
}

void FittingNet::backward_tile(const Workspace& ws, double* g_d,
                               std::vector<DenseLayer::Grads>* grads, double seed) const {
  const std::size_t L = layers_.size();
  DP_CHECK_MSG(ws.inputs.size() == L && ws.acts[L - 1].size() == ws.rows,
               "backward() without a preceding forward()");
  if (grads != nullptr) DP_CHECK(grads->size() == L);
  const std::size_t rows = ws.rows;
  auto& scratch = const_cast<Workspace&>(ws);
  AlignedVector<double>* g_out = &scratch.grad_a;
  AlignedVector<double>* g_in = &scratch.grad_b;
  g_out->assign(rows, seed);  // dLoss/dE per row
  for (std::size_t l = L; l-- > 0;) {
    const DenseLayer& layer = layers_[l];
    scratch.g_u.resize(rows * layer.out_dim());
    // Layer 0 writes dE/dD straight into the caller's g_d.
    double* dst = g_d;
    if (l > 0) {
      g_in->resize(rows * layer.in_dim());
      dst = g_in->data();
    }
    layer.backward_tile(g_out->data(), ws.acts[l].data(), rows, dst, scratch.g_u.data(),
                        ws.inputs[l].data(), grads != nullptr ? &(*grads)[l] : nullptr);
    std::swap(g_out, g_in);
  }
}

double FittingNet::flops_per_eval() const {
  double flops = 0.0;
  for (const auto& layer : layers_)
    flops += static_cast<double>(layer.in_dim()) * static_cast<double>(layer.out_dim());
  return flops;
}

double FittingNet::weight_bytes() const {
  double bytes = 0.0;
  for (const auto& layer : layers_)
    bytes += static_cast<double>((layer.in_dim() + 1) * layer.out_dim() * sizeof(double));
  return bytes;
}

std::size_t FittingNet::Workspace::bytes() const {
  std::size_t b = grad_a.capacity() + grad_b.capacity() + g_u.capacity();
  for (const auto& v : inputs) b += v.capacity();
  for (const auto& v : acts) b += v.capacity();
  return b * sizeof(double);
}

}  // namespace dp::nn
