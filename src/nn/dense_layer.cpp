#include "nn/dense_layer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/gemm.hpp"

namespace dp::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act, Shortcut shortcut)
    : in_(in), out_(out), act_(act), shortcut_(shortcut) {
  DP_CHECK(in > 0 && out > 0);
  if (shortcut == Shortcut::Identity) DP_CHECK_MSG(in == out, "identity shortcut needs in == out");
  if (shortcut == Shortcut::Concat) DP_CHECK_MSG(out == 2 * in, "concat shortcut needs out == 2*in");
  w_.resize(in, out);
  b_.assign(out, 0.0);
}

void DenseLayer::init_random(Rng& rng) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(in_));
  for (std::size_t i = 0; i < w_.size(); ++i) w_.data()[i] = rng.gaussian(0.0, scale);
  for (auto& b : b_) b = rng.gaussian(0.0, 0.1);
}

double DenseLayer::activate(double u) const {
  switch (act_) {
    case Activation::Tanh:
      return std::tanh(u);
    case Activation::TanhTabulated:
      return default_tanh_table().eval(u);
    case Activation::Linear:
      return u;
  }
  return u;
}

double DenseLayer::activate_deriv_from_value(double a) const {
  return act_ == Activation::Linear ? 1.0 : 1.0 - a * a;
}

void DenseLayer::forward_batch(const Matrix& x, Matrix& y) const {
  DP_CHECK(x.cols() == in_);
  y.resize(x.rows(), out_);
  gemm(x.data(), w_.data(), y.data(), x.rows(), in_, out_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double* yr = y.row(r);
    const double* xr = x.row(r);
    for (std::size_t j = 0; j < out_; ++j) yr[j] = activate(yr[j] + b_[j]);
    switch (shortcut_) {
      case Shortcut::None:
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j % in_];
        break;
    }
  }
}

void DenseLayer::forward_tile(const double* x, std::size_t rows, double* y,
                              double* act_save) const {
  gemm_bias(x, w_.data(), b_.data(), y, rows, in_, out_);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * in_;
    double* yr = y + r * out_;
    for (std::size_t j = 0; j < out_; ++j) yr[j] = activate(yr[j]);
    if (act_save != nullptr)
      for (std::size_t j = 0; j < out_; ++j) act_save[r * out_ + j] = yr[j];
    switch (shortcut_) {
      case Shortcut::None:
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) yr[j] += xr[j % in_];
        break;
    }
  }
}

void DenseLayer::backward_row(const double* g_out, const double* act_saved, double* g_in,
                              const double* x, Grads* grads) const {
  // g_u scratch sized for this layer (layers are <= a few hundred wide; the
  // tile path passes workspace scratch instead).
  AlignedVector<double> g_u(out_);
  backward_tile(g_out, act_saved, 1, g_in, g_u.data(), x, grads);
}

void DenseLayer::backward_tile(const double* g_out, const double* act_saved, std::size_t rows,
                               double* g_in, double* g_u, const double* x,
                               Grads* grads) const {
  // g_u[j] = g_out[j] * act'(u_j), from the saved activation values.
  for (std::size_t k = 0; k < rows * out_; ++k)
    g_u[k] = g_out[k] * activate_deriv_from_value(act_saved[k]);
  gemm_nt(g_u, w_.data(), g_in, rows, out_, in_);
  if (grads != nullptr) {
    DP_CHECK_MSG(x != nullptr, "weight gradients need the forward input");
    // dE/dW = x (x) g_u, dE/db = g_u, one row after the other.
    for (std::size_t r = 0; r < rows; ++r) {
      const double* xr = x + r * in_;
      const double* gur = g_u + r * out_;
      for (std::size_t p = 0; p < in_; ++p) {
        const double xv = xr[p];
        double* wrow = grads->w.row(p);
#pragma omp simd
        for (std::size_t j = 0; j < out_; ++j) wrow[j] += xv * gur[j];
      }
      for (std::size_t j = 0; j < out_; ++j) grads->b[j] += gur[j];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* gor = g_out + r * out_;
    double* gir = g_in + r * in_;
    switch (shortcut_) {
      case Shortcut::None:
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < in_; ++j) gir[j] += gor[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) gir[j % in_] += gor[j];
        break;
    }
  }
}

void DenseLayer::forward_batch_ws(const Matrix& x, Matrix& y, Matrix& act_save) const {
  DP_CHECK(x.cols() == in_);
  const std::size_t n = x.rows();
  act_save.resize(n, out_);
  gemm(x.data(), w_.data(), act_save.data(), n, in_, out_);
  for (std::size_t r = 0; r < n; ++r) {
    double* ar = act_save.row(r);
    for (std::size_t j = 0; j < out_; ++j) ar[j] = activate(ar[j] + b_[j]);
  }
  y.resize(n, out_);
  for (std::size_t r = 0; r < n; ++r) {
    double* yr = y.row(r);
    const double* ar = act_save.row(r);
    const double* xr = x.row(r);
    switch (shortcut_) {
      case Shortcut::None:
        for (std::size_t j = 0; j < out_; ++j) yr[j] = ar[j];
        break;
      case Shortcut::Identity:
        for (std::size_t j = 0; j < out_; ++j) yr[j] = ar[j] + xr[j];
        break;
      case Shortcut::Concat:
        for (std::size_t j = 0; j < out_; ++j) yr[j] = ar[j] + xr[j % in_];
        break;
    }
  }
}

void DenseLayer::backward_batch(const Matrix& g_out, const Matrix& act_saved, Matrix& g_in,
                                const Matrix* x, Grads* grads) const {
  DP_CHECK(g_out.cols() == out_ && same_shape(g_out, act_saved));
  const std::size_t n = g_out.rows();
  // g_u = g_out .* act'(u), computed from the saved activation values.
  Matrix g_u(n, out_);
  for (std::size_t r = 0; r < n; ++r) {
    const double* go = g_out.row(r);
    const double* ar = act_saved.row(r);
    double* gu = g_u.row(r);
    for (std::size_t j = 0; j < out_; ++j)
      gu[j] = go[j] * activate_deriv_from_value(ar[j]);
  }
  g_in.resize(n, in_);
  gemm_nt(g_u.data(), w_.data(), g_in.data(), n, out_, in_);
  if (grads != nullptr) {
    DP_CHECK_MSG(x != nullptr && x->rows() == n && x->cols() == in_,
                 "weight gradients need the forward input batch");
    // dE/dW += x^T g_u  (in x out), dE/db += column sums of g_u.
    gemm_tn_acc(x->data(), g_u.data(), grads->w.data(), in_, n, out_);
    for (std::size_t r = 0; r < n; ++r) {
      const double* gu = g_u.row(r);
      for (std::size_t j = 0; j < out_; ++j) grads->b[j] += gu[j];
    }
  }
  switch (shortcut_) {
    case Shortcut::None:
      break;
    case Shortcut::Identity:
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < in_; ++j) g_in(r, j) += g_out(r, j);
      break;
    case Shortcut::Concat:
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < out_; ++j) g_in(r, j % in_) += g_out(r, j);
      break;
  }
}

void DenseLayer::forward_jet(const double* x, const double* dx, const double* d2x,
                             double* y, double* dy, double* d2y) const {
  // u = x W + b and its two input-derivatives (linear, so they share W).
  AlignedVector<double> u(out_), du(out_, 0.0), d2u(out_, 0.0);
  affine(x, w_.data(), b_.data(), u.data(), in_, out_);
  gemv_acc(dx, w_.data(), du.data(), in_, out_);
  gemv_acc(d2x, w_.data(), d2u.data(), in_, out_);
  for (std::size_t j = 0; j < out_; ++j) {
    double a, da, d2a;
    if (act_ == Activation::Linear) {
      a = u[j];
      da = du[j];
      d2a = d2u[j];
    } else {
      // Exact tanh in the jet path: the jet is used for force evaluation and
      // for building tables, both of which want the reference derivatives.
      a = std::tanh(u[j]);
      const double sech2 = 1.0 - a * a;
      da = sech2 * du[j];
      d2a = sech2 * d2u[j] - 2.0 * a * sech2 * du[j] * du[j];
    }
    y[j] = a;
    dy[j] = da;
    d2y[j] = d2a;
  }
  switch (shortcut_) {
    case Shortcut::None:
      break;
    case Shortcut::Identity:
      for (std::size_t j = 0; j < out_; ++j) {
        y[j] += x[j];
        dy[j] += dx[j];
        d2y[j] += d2x[j];
      }
      break;
    case Shortcut::Concat:
      for (std::size_t j = 0; j < out_; ++j) {
        y[j] += x[j % in_];
        dy[j] += dx[j % in_];
        d2y[j] += d2x[j % in_];
      }
      break;
  }
}

}  // namespace dp::nn
