// The fitting net: maps the flattened symmetry-preserving descriptor D_i to
// the atomic energy E_i (paper Sec 2.1, Fig 1 (d)).
//
// Hidden layers share one width and use identity shortcuts; the output layer
// is linear to a single scalar. Reverse-mode through the net yields dE/dD,
// the seed of the force back-propagation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/dense_layer.hpp"

namespace dp::nn {

class FittingNet {
 public:
  FittingNet() = default;
  /// in_dim = M< * M (flattened descriptor); hidden e.g. {240, 240, 240}.
  FittingNet(std::size_t in_dim, const std::vector<std::size_t>& hidden,
             Activation act = Activation::Tanh);

  void init_random(Rng& rng);

  std::size_t input_dim() const { return in_dim_; }
  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }
  void set_activation(Activation a);

  /// Per-thread forward/backward state of one tile: inputs to and
  /// activations of every layer (rows x width each), retained for the
  /// backward pass, plus the backward's scratch.
  struct Workspace {
    std::vector<AlignedVector<double>> inputs;  // inputs[l]: input rows of layer l
    std::vector<AlignedVector<double>> acts;    // acts[l]: act(u) rows of layer l
    AlignedVector<double> grad_a, grad_b;       // ping-pong gradient buffers
    AlignedVector<double> g_u;                  // per-layer dE/du scratch
    std::size_t rows = 0;                       // rows of the tile, set by tile_input()
    /// Capacity-based bytes of every buffer.
    std::size_t bytes() const;
  };

  /// Sizes the tile input of ws to `rows` descriptor rows (rows x
  /// input_dim) and returns it, for the caller to fill in place before
  /// forward_tile().
  double* tile_input(Workspace& ws, std::size_t rows) const;

  /// energies[r] = N(d_r) over the rows of ws's tile input; records
  /// everything backward_tile() needs into ws. Every layer runs as one
  /// register-blocked GEMM over the tile, and row r's energy is bitwise
  /// independent of the row count and of r.
  void forward_tile(Workspace& ws, double* energies) const;

  /// g_d (rows x input_dim) = seed * dE_r/dD_r for the tile of the preceding
  /// forward_tile(), each layer one GEMM-NT against its weights. When
  /// `grads` is non-null (one entry per layer, pre-init'ed), parameter
  /// gradients are accumulated row after row — the training path.
  void backward_tile(const Workspace& ws, double* g_d,
                     std::vector<DenseLayer::Grads>* grads = nullptr, double seed = 1.0) const;

  /// E = N(d) for one row: forward_tile with rows = 1.
  double forward(const double* d, Workspace& ws) const {
    std::copy(d, d + in_dim_, tile_input(ws, 1));
    double e = 0.0;
    forward_tile(ws, &e);
    return e;
  }

  /// g_d[j] = seed * dE/dD_j given the workspace of the preceding forward():
  /// backward_tile with rows = 1.
  void backward(const Workspace& ws, double* g_d,
                std::vector<DenseLayer::Grads>* grads = nullptr, double seed = 1.0) const {
    backward_tile(ws, g_d, grads, seed);
  }

  /// Multiply-add count of one forward evaluation.
  double flops_per_eval() const;

  /// Bytes of every layer's weights and biases — what one pass over a tile
  /// streams.
  double weight_bytes() const;

 private:
  std::size_t in_dim_ = 0;
  std::vector<DenseLayer> layers_;
};

}  // namespace dp::nn
