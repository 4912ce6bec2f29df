// The register-blocked GEMM kernels and the tiled fitting net built on them.
//
// FittingNetTile: a tile of rows through forward_tile / backward_tile must be
// bitwise the same as the rows one at a time through forward / backward, at
// every SIMD level, for every row count (including the ragged remainders of
// the row blocks) and for nets whose widths are not lane multiples.
// GemmBlocked: gemm_bias and gemm_nt against a long-double reference over
// ragged shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/fitting_net.hpp"
#include "nn/gemm.hpp"

namespace dp::nn {
namespace {

class LevelGuard {
 public:
  explicit LevelGuard(simd::Level lvl) : prev_(simd::active()) { simd::force(lvl); }
  ~LevelGuard() { simd::force(prev_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level prev_;
};

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed, double lo = -1.0,
                               double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

bool bitwise_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

struct NetShape {
  const char* name;
  std::size_t in;
  std::vector<std::size_t> hidden;
};

// tiny: ModelConfig::tiny's fitting net (M< x M = 4 x 16); copper: the
// paper's 2048 -> 240^3; odd: widths that are multiples of no lane count,
// with an identity shortcut in the middle.
const NetShape kNets[] = {
    {"tiny", 64, {16, 16, 16}},
    {"copper", 2048, {240, 240, 240}},
    {"odd", 37, {29, 29, 13}},
};

// The largest NN row block is 8 (AVX-512), so 1..11 covers one full block
// plus every remainder; 37 is several blocks and a ragged tail.
std::vector<std::size_t> row_counts() {
  std::vector<std::size_t> v;
  for (std::size_t r = 1; r <= 11; ++r) v.push_back(r);
  v.push_back(37);
  return v;
}

TEST(FittingNetTile, MatchesRowByRowBitwiseAtEveryLevel) {
  for (const NetShape& shape : kNets) {
    FittingNet net(shape.in, shape.hidden);
    Rng rng(7);
    net.init_random(rng);
    for (std::size_t rows : row_counts()) {
      const auto d = random_vec(rows * shape.in, 100 + rows, -0.2, 0.2);
      for (simd::Level lvl : available_levels()) {
        LevelGuard guard(lvl);
        // Row by row through the 1-row API.
        std::vector<double> e_row(rows), g_row(rows * shape.in);
        FittingNet::Workspace ws_row;
        for (std::size_t r = 0; r < rows; ++r) {
          e_row[r] = net.forward(d.data() + r * shape.in, ws_row);
          net.backward(ws_row, g_row.data() + r * shape.in);
        }
        // The whole tile at once.
        FittingNet::Workspace ws;
        std::memcpy(net.tile_input(ws, rows), d.data(), d.size() * sizeof(double));
        std::vector<double> e_tile(rows), g_tile(rows * shape.in);
        net.forward_tile(ws, e_tile.data());
        net.backward_tile(ws, g_tile.data());
        EXPECT_TRUE(bitwise_equal(e_row.data(), e_tile.data(), rows))
            << shape.name << " rows " << rows << " " << simd::name(lvl);
        EXPECT_TRUE(bitwise_equal(g_row.data(), g_tile.data(), g_row.size()))
            << shape.name << " rows " << rows << " " << simd::name(lvl);
      }
    }
  }
}

TEST(FittingNetTile, ParameterGradientsMatchRowByRow) {
  // The training path accumulates dE/dW row after row, so a tile with grads
  // must leave the same bits as the rows one at a time.
  const NetShape& shape = kNets[2];
  FittingNet net(shape.in, shape.hidden);
  Rng rng(8);
  net.init_random(rng);
  const std::size_t rows = 13;
  const auto d = random_vec(rows * shape.in, 9, -0.2, 0.2);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    std::vector<DenseLayer::Grads> g_row(net.layers().size()), g_tile(net.layers().size());
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      g_row[l].init(net.layers()[l]);
      g_tile[l].init(net.layers()[l]);
    }
    std::vector<double> gd(rows * shape.in);
    FittingNet::Workspace ws_row;
    for (std::size_t r = 0; r < rows; ++r) {
      net.forward(d.data() + r * shape.in, ws_row);
      net.backward(ws_row, gd.data() + r * shape.in, &g_row, 0.5);
    }
    FittingNet::Workspace ws;
    std::memcpy(net.tile_input(ws, rows), d.data(), d.size() * sizeof(double));
    std::vector<double> e(rows);
    net.forward_tile(ws, e.data());
    net.backward_tile(ws, gd.data(), &g_tile, 0.5);
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      EXPECT_TRUE(bitwise_equal(g_row[l].w.data(), g_tile[l].w.data(), g_row[l].w.size()))
          << "layer " << l << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(g_row[l].b.data(), g_tile[l].b.data(), g_row[l].b.size()))
          << "layer " << l << " " << simd::name(lvl);
    }
  }
}

TEST(FittingNetTile, RowResultDoesNotDependOnItsPosition) {
  // The same descriptor row at every position of a 19-row tile gives the
  // same bits as that row alone.
  const NetShape& shape = kNets[0];
  FittingNet net(shape.in, shape.hidden);
  Rng rng(10);
  net.init_random(rng);
  const auto row = random_vec(shape.in, 11, -0.2, 0.2);
  const std::size_t rows = 19;
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    FittingNet::Workspace ws1;
    const double e1 = net.forward(row.data(), ws1);
    std::vector<double> g1(shape.in);
    net.backward(ws1, g1.data());
    FittingNet::Workspace ws;
    double* in = net.tile_input(ws, rows);
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(in + r * shape.in, row.data(), shape.in * sizeof(double));
    std::vector<double> e(rows), g(rows * shape.in);
    net.forward_tile(ws, e.data());
    net.backward_tile(ws, g.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(bitwise_equal(&e1, &e[r], 1)) << "row " << r << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(g1.data(), g.data() + r * shape.in, shape.in))
          << "row " << r << " " << simd::name(lvl);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMMs vs a long-double reference. The bound is the textbook one
// for a k-term dot product in double: |error| <= (k + 1) eps sum |a_p b_p|,
// plus the bias.
// ---------------------------------------------------------------------------

constexpr std::size_t kShapes[] = {1, 3, 7, 17, 240, 2048};
// Shapes up to 17 x 2048 x 240 (the copper tile's first layer); the larger
// products would only slow the sanitizer legs.
constexpr std::size_t kMaxProduct = std::size_t{1} << 23;

double bound(std::size_t k, long double abs_sum) {
  return static_cast<double>(static_cast<long double>(k + 1) *
                             std::numeric_limits<double>::epsilon() * abs_sum) +
         std::numeric_limits<double>::denorm_min();
}

TEST(GemmBlocked, NnMatchesLongDoubleReference) {
  for (std::size_t m : kShapes)
    for (std::size_t k : kShapes)
      for (std::size_t n : kShapes) {
        if (m * k * n > kMaxProduct) continue;
        const auto a = random_vec(m * k, m * 31 + k);
        const auto w = random_vec(k * n, k * 17 + n);
        const auto bias = random_vec(n, n + 5);
        std::vector<long double> ref(m * n), mag(m * n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            long double acc = bias[j], s = std::fabs(bias[j]);
            for (std::size_t p = 0; p < k; ++p) {
              const long double t = static_cast<long double>(a[i * k + p]) * w[p * n + j];
              acc += t;
              s += std::fabs(t);
            }
            ref[i * n + j] = acc;
            mag[i * n + j] = s;
          }
        for (simd::Level lvl : available_levels()) {
          LevelGuard guard(lvl);
          std::vector<double> c(m * n);
          gemm_bias(a.data(), w.data(), bias.data(), c.data(), m, k, n);
          for (std::size_t q = 0; q < m * n; ++q)
            ASSERT_LE(std::fabs(static_cast<double>(c[q] - ref[q])), bound(k, mag[q]))
                << "m " << m << " k " << k << " n " << n << " elem " << q << " "
                << simd::name(lvl);
        }
      }
}

TEST(GemmBlocked, NtMatchesLongDoubleReference) {
  for (std::size_t m : kShapes)
    for (std::size_t k : kShapes)
      for (std::size_t n : kShapes) {
        if (m * k * n > kMaxProduct) continue;
        const auto a = random_vec(m * k, m * 13 + k);
        const auto b = random_vec(n * k, n * 29 + k);  // n x k, row-major
        std::vector<long double> ref(m * n), mag(m * n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            long double acc = 0.0L, s = 0.0L;
            for (std::size_t p = 0; p < k; ++p) {
              const long double t = static_cast<long double>(a[i * k + p]) * b[j * k + p];
              acc += t;
              s += std::fabs(t);
            }
            ref[i * n + j] = acc;
            mag[i * n + j] = s;
          }
        for (simd::Level lvl : available_levels()) {
          LevelGuard guard(lvl);
          std::vector<double> c(m * n);
          gemm_nt(a.data(), b.data(), c.data(), m, k, n);
          for (std::size_t q = 0; q < m * n; ++q)
            ASSERT_LE(std::fabs(static_cast<double>(c[q] - ref[q])), bound(k, mag[q]))
                << "m " << m << " k " << k << " n " << n << " elem " << q << " "
                << simd::name(lvl);
        }
      }
}

TEST(GemmBlocked, NnIsOneFmaChainFromTheBias) {
  // The forward contract: at a vector level each element is exactly
  // fma(a_{k-1}, w_{k-1}, ... fma(a_0, w_0, bias)), whatever its block.
  const std::size_t m = 11, k = 45, n = 37;
  const auto a = random_vec(m * k, 1);
  const auto w = random_vec(k * n, 2);
  const auto bias = random_vec(n, 3);
  std::vector<double> want(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = bias[j];
      for (std::size_t p = 0; p < k; ++p) acc = std::fma(a[i * k + p], w[p * n + j], acc);
      want[i * n + j] = acc;
    }
  for (simd::Level lvl : available_levels()) {
    if (lvl == simd::Level::Scalar) continue;  // seed expression, contraction-dependent
    LevelGuard guard(lvl);
    std::vector<double> c(m * n);
    gemm_bias(a.data(), w.data(), bias.data(), c.data(), m, k, n);
    EXPECT_TRUE(bitwise_equal(want.data(), c.data(), c.size())) << simd::name(lvl);
  }
}

TEST(GemmBlocked, OneRowCasesAreTheBlockedKernels) {
  // affine and gemv_t are the 1-row gemm_bias / gemm_nt, bit for bit.
  const std::size_t k = 70, n = 33;
  const auto x = random_vec(k, 4);
  const auto w = random_vec(k * n, 5);
  const auto bias = random_vec(n, 6);
  const auto g = random_vec(n, 7);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    std::vector<double> y1(n), y2(n), t1(k), t2(k);
    affine(x.data(), w.data(), bias.data(), y1.data(), k, n);
    gemm_bias(x.data(), w.data(), bias.data(), y2.data(), 1, k, n);
    EXPECT_TRUE(bitwise_equal(y1.data(), y2.data(), n)) << simd::name(lvl);
    gemv_t(g.data(), w.data(), t1.data(), k, n);
    gemm_nt(g.data(), w.data(), t2.data(), 1, n, k);
    EXPECT_TRUE(bitwise_equal(t1.data(), t2.data(), k)) << simd::name(lvl);
  }
}

}  // namespace
}  // namespace dp::nn
