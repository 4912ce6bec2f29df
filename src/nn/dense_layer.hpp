// A fully connected layer with the shortcut variants the DP model uses.
//
//   None:     y = act(x W + b)                        (first layers, output)
//   Identity: y = x + act(x W + b)                    (fitting-net hidden)
//   Concat:   y = (x, x) + act(x W + b), out = 2 in   (embedding-net growth)
//
// Inference needs three evaluation modes:
//   * batched forward over many rows (baseline embedding path, GEMM-shaped),
//   * forward "jet" propagation of (value, d/ds, d2/ds2) for the scalar-input
//     embedding net (forces + tabulation need exact input derivatives),
//   * reverse-mode over a tile of rows (fitting net produces dE/dD; one row
//     is the 1-row tile).
#pragma once

#include <cstddef>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/tanh_table.hpp"
#include "nn/tensor.hpp"

namespace dp::nn {

enum class Activation { Tanh, TanhTabulated, Linear };
enum class Shortcut { None, Identity, Concat };

class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(std::size_t in, std::size_t out, Activation act, Shortcut shortcut);

  /// Gaussian init: W ~ N(0, 1/in), b ~ N(0, 0.1). This stands in for a
  /// trained model; the optimization experiments only depend on the network
  /// shape and smoothness (see DESIGN.md substitutions).
  void init_random(Rng& rng);

  std::size_t in_dim() const { return in_; }
  std::size_t out_dim() const { return out_; }
  Activation activation() const { return act_; }
  Shortcut shortcut() const { return shortcut_; }
  void set_activation(Activation a) { act_ = a; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  AlignedVector<double>& bias() { return b_; }
  const AlignedVector<double>& bias() const { return b_; }

  /// Batched forward: y (n x out) from x (n x in).
  void forward_batch(const Matrix& x, Matrix& y) const;

  /// Forward over a tile of `rows` rows on the register-blocked GEMM: x
  /// (rows x in), y (rows x out). `act_save` (rows x out, may be nullptr)
  /// receives the pure activation values act(xW+b) needed by backward_tile.
  /// Row r's outputs are bitwise independent of `rows` and of r.
  void forward_tile(const double* x, std::size_t rows, double* y,
                    double* act_save = nullptr) const;

  /// Single-row forward: forward_tile with rows = 1.
  void forward_row(const double* x, double* y, double* act_save = nullptr) const {
    forward_tile(x, 1, y, act_save);
  }

  /// Parameter gradients accumulated by the training backward passes.
  struct Grads {
    Matrix w;                  // same shape as weights
    AlignedVector<double> b;   // same shape as bias
    void init(const DenseLayer& layer) {
      w.resize(layer.in_dim(), layer.out_dim());
      b.assign(layer.out_dim(), 0.0);
    }
    void zero() {
      w.fill(0.0);
      for (auto& v : b) v = 0.0;
    }
  };

  /// Reverse mode over a tile of `rows` rows: g_in (rows x in) = dE/dx given
  /// g_out (rows x out) = dE/dy and the saved activations of forward_tile.
  /// `g_u` is caller scratch of rows x out. g_in must alias neither g_out nor
  /// g_u. When `grads` is non-null, dE/dW and dE/db are accumulated into it,
  /// row after row (requires the forward input x).
  void backward_tile(const double* g_out, const double* act_saved, std::size_t rows,
                     double* g_in, double* g_u, const double* x = nullptr,
                     Grads* grads = nullptr) const;

  /// Reverse mode for one row: backward_tile with rows = 1 and its own g_u.
  void backward_row(const double* g_out, const double* act_saved, double* g_in,
                    const double* x = nullptr, Grads* grads = nullptr) const;

  /// Batched forward that also retains the pure activation values needed by
  /// backward_batch (one row per sample).
  void forward_batch_ws(const Matrix& x, Matrix& y, Matrix& act_save) const;

  /// Batched reverse mode: g_in (n x in) from g_out (n x out) and the saved
  /// activations. This is what TensorFlow does for the embedding net when
  /// forces are requested (baseline path). When `grads` is non-null, weight
  /// and bias gradients are accumulated (requires the forward inputs x).
  void backward_batch(const Matrix& g_out, const Matrix& act_saved, Matrix& g_in,
                      const Matrix* x = nullptr, Grads* grads = nullptr) const;

  /// Forward-mode propagation of value + first + second derivative with
  /// respect to a single upstream scalar input.
  void forward_jet(const double* x, const double* dx, const double* d2x,
                   double* y, double* dy, double* d2y) const;

 private:
  double activate(double u) const;
  double activate_deriv_from_value(double a) const;  // act'(u) given a=act(u)

  std::size_t in_ = 0, out_ = 0;
  Activation act_ = Activation::Tanh;
  Shortcut shortcut_ = Shortcut::None;
  Matrix w_;                  // in x out
  AlignedVector<double> b_;   // out
};

}  // namespace dp::nn
