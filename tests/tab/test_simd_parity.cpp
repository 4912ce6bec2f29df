// Scalar-vs-SIMD parity for the tabulated hot loops (common/simd.hpp), one
// typed suite over the three table instantiations — Table<double>,
// Table<float> and Table<_Float16> — plus the untyped tanh-table and lane
// width checks.
//
// Pins the numerical contract of the dispatch layer, at every element type:
//   * at any fixed level, the AoS walk, per-slot blocked walks and one
//     batched blocked walk agree BITWISE;
//   * forcing Level::Scalar reproduces the seed expressions bit for bit no
//     matter what level ran before (DP_SIMD=scalar is a true fallback);
//   * the vector levels stay within 1 ulp of scalar in-domain, including
//     the interval boundaries and their nextafter neighbors, and within a
//     relative bound on extrapolating inputs;
//   * the streaming (non-temporal) store path and its misaligned fallback
//     change nothing but the store instruction;
//   * the extrapolation counter is level independent;
//   * the fused force path built on each table (FusedDP, MixedFusedDP
//     Single / Half) is bitwise thread-count invariant at every level.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/tanh_table.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/lattice.hpp"
#include "tab/table.hpp"

namespace dp {
namespace {

/// Forces a SIMD level for one scope, restoring the previous level after.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level lvl) : prev_(simd::active()) { simd::force(lvl); }
  ~LevelGuard() { simd::force(prev_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level prev_;
};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(omp_get_max_threads()) {}
  ~ThreadGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> v{simd::Level::Scalar};
  const int cap = static_cast<int>(simd::max_supported());
  if (cap >= static_cast<int>(simd::Level::AVX2)) v.push_back(simd::Level::AVX2);
  if (cap >= static_cast<int>(simd::Level::AVX512)) v.push_back(simd::Level::AVX512);
  return v;
}

/// Distance in representable values of T, sign-aware (0 iff
/// bitwise-comparable).
template <class T>
std::int64_t ulp_diff(T a, T b) {
  using Bits = std::conditional_t<sizeof(T) == 8, std::int64_t, std::int32_t>;
  if (a == b) return 0;  // covers +0/-0
  auto key = [](T x) {
    Bits i;
    std::memcpy(&i, &x, sizeof(i));
    return static_cast<std::int64_t>(i < 0 ? std::numeric_limits<Bits>::min() - i : i);
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

template <class T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <class Coef>
tab::Table<Coef> make_table(std::size_t m_out, std::uint64_t seed) {
  nn::EmbeddingNet net({8, 16, m_out});
  Rng rng(seed);
  net.init_random(rng);
  tab::TabulatedEmbedding ref(net, {0.1, 1.9, 0.01});
  if constexpr (std::is_same_v<Coef, double>)
    return ref;
  else
    return tab::Table<Coef>(ref);
}

/// Probes spanning the table: the bounds as the table stores them, their
/// nextafter neighbors, both extrapolation sides, and a dense random fill.
template <class T>
std::vector<T> probe_set(T lo, T hi) {
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<T> s = {
      lo,
      hi,
      std::nextafter(lo, -inf),
      std::nextafter(lo, inf),
      std::nextafter(hi, -inf),
      std::nextafter(hi, inf),
      lo - T(0.7),  // extrapolating below
      hi + T(0.7),  // extrapolating above
      T(0.5) * (lo + hi),
  };
  Rng rng(17);
  for (int i = 0; i < 200; ++i) s.push_back(static_cast<T>(rng.uniform(lo - 0.2, hi + 0.2)));
  return s;
}

template <class T>
struct TableRun {
  std::vector<T> g_aos, dg_aos, g_val, g_blk, dg_blk, g_batch, dg_batch;
};

/// Every walk of the table over s: AoS value+derivative, AoS value only,
/// one blocked walk per slot, and one batched blocked walk over all slots.
template <class Coef, class T = tab::compute_t<Coef>>
TableRun<T> run_table(const tab::Table<Coef>& table, const std::vector<T>& s) {
  const std::size_t m = table.output_dim();
  const std::size_t total = s.size() * m;
  TableRun<T> r;
  for (auto* v : {&r.g_aos, &r.dg_aos, &r.g_val, &r.g_blk, &r.dg_blk, &r.g_batch, &r.dg_batch})
    v->resize(total);
  for (std::size_t k = 0; k < s.size(); ++k) {
    table.eval_with_deriv(s[k], r.g_aos.data() + k * m, r.dg_aos.data() + k * m);
    table.eval(s[k], r.g_val.data() + k * m);
    table.eval_with_deriv_blocked_batch(&s[k], 1, 1, r.g_blk.data() + k * m,
                                        r.dg_blk.data() + k * m, m);
  }
  table.eval_with_deriv_blocked_batch(s.data(), 1, s.size(), r.g_batch.data(),
                                      r.dg_batch.data(), m);
  return r;
}

/// The fused force path built on a Coef table.
template <class Coef>
std::unique_ptr<md::ForceField> make_fused(const tab::TabulatedDP& tab) {
  if constexpr (std::is_same_v<Coef, double>)
    return std::make_unique<fused::FusedDP>(tab);
  else if constexpr (std::is_same_v<Coef, float>)
    return std::make_unique<fused::MixedFusedDP>(tab, fused::MixedPrecision::Single);
  else
    return std::make_unique<fused::MixedFusedDP>(tab, fused::MixedPrecision::Half);
}

/// Typed-suite parameter naming a coefficient type (gtest needs the typeid
/// of each parameter, and the C++ runtime ships none for _Float16).
template <class C>
struct Storage {
  using Coef = C;
};

template <class S>
class TableSimdParity : public ::testing::Test {
 protected:
  using Coef = typename S::Coef;
  using T = tab::compute_t<Coef>;
  /// Bound on the relative vector-vs-scalar difference for extrapolating
  /// inputs, at the compute type's scale.
  static constexpr T kRelOut = std::is_same_v<T, double> ? T(1e-13) : T(1e-4);
};

struct CoefName {
  template <class S>
  static std::string GetName(int) {
    if (std::is_same_v<typename S::Coef, double>) return "Double";
    if (std::is_same_v<typename S::Coef, float>) return "Single";
    return "Half";
  }
};

using CoefTypes = ::testing::Types<Storage<double>, Storage<float>, Storage<_Float16>>;
TYPED_TEST_SUITE(TableSimdParity, CoefTypes, CoefName);

TYPED_TEST(TableSimdParity, LayoutsAgreeBitwiseAtEveryLevel) {
  // 24 channels: a full 16-lane block plus a partial block, so the vector
  // body and the scalar-fma tail are both exercised.
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto table = make_table<typename TestFixture::Coef>(m_out, 5);
    const auto s = probe_set(table.lo(), table.hi());
    for (simd::Level lvl : available_levels()) {
      LevelGuard guard(lvl);
      const auto r = run_table(table, s);
      EXPECT_TRUE(bitwise_equal(r.g_aos, r.g_blk)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_aos, r.dg_blk))
          << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.g_aos, r.g_val)) << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.g_blk, r.g_batch))
          << "m " << m_out << " " << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_blk, r.dg_batch))
          << "m " << m_out << " " << simd::name(lvl);
    }
  }
}

TYPED_TEST(TableSimdParity, ScalarFallbackIsBitStableAcrossForcedLevels) {
  const auto table = make_table<typename TestFixture::Coef>(32, 6);
  const auto s = probe_set(table.lo(), table.hi());
  decltype(run_table(table, s)) r0;
  {
    LevelGuard guard(simd::Level::Scalar);
    r0 = run_table(table, s);
  }
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);  // run at lvl, then re-force scalar underneath
    {
      LevelGuard inner(simd::Level::Scalar);
      const auto r = run_table(table, s);
      EXPECT_TRUE(bitwise_equal(r.g_aos, r0.g_aos)) << simd::name(lvl);
      EXPECT_TRUE(bitwise_equal(r.dg_aos, r0.dg_aos)) << simd::name(lvl);
    }
  }
}

TYPED_TEST(TableSimdParity, VectorLevelsWithinOneUlpOfScalar) {
  using T = typename TestFixture::T;
  const auto table = make_table<typename TestFixture::Coef>(32, 7);
  const auto s = probe_set(table.lo(), table.hi());
  const std::size_t m = table.output_dim();
  std::vector<T> g0, dg0;
  {
    LevelGuard guard(simd::Level::Scalar);
    const auto r = run_table(table, s);
    g0 = r.g_aos;
    dg0 = r.dg_aos;
  }
  for (simd::Level lvl : available_levels()) {
    if (lvl == simd::Level::Scalar) continue;
    LevelGuard guard(lvl);
    const auto r = run_table(table, s);
    // Per-channel magnitude of the scalar results: where a value is itself
    // the small residue of cancelling O(scale) Horner terms, "1 ulp of the
    // result" is below the information content of either rounding sequence,
    // so such elements are held to 1 ulp OR absolute agreement at the
    // cancellation scale (2 eps x the channel's magnitude).
    std::vector<T> gsc(m, T(1)), dsc(m, T(1));
    for (std::size_t k = 0; k < s.size(); ++k) {
      for (std::size_t ch = 0; ch < m; ++ch) {
        gsc[ch] = std::max(gsc[ch], std::fabs(g0[k * m + ch]));
        dsc[ch] = std::max(dsc[ch], std::fabs(dg0[k * m + ch]));
      }
    }
    const T eps2 = T(2) * std::numeric_limits<T>::epsilon();
    std::int64_t worst_in = 0;
    T worst_rel_out = 0;
    for (std::size_t k = 0; k < s.size(); ++k) {
      for (std::size_t ch = 0; ch < m; ++ch) {
        const std::size_t idx = k * m + ch;
        if (s[k] >= table.lo() && s[k] <= table.hi()) {
          if (std::fabs(r.g_aos[idx] - g0[idx]) > eps2 * gsc[ch])
            worst_in = std::max(worst_in, ulp_diff(r.g_aos[idx], g0[idx]));
          if (std::fabs(r.dg_aos[idx] - dg0[idx]) > eps2 * dsc[ch])
            worst_in = std::max(worst_in, ulp_diff(r.dg_aos[idx], dg0[idx]));
        } else {
          // Extrapolating inputs run the edge polynomial outside its fitted
          // interval, where the Horner terms cancel; FMA's dropped
          // roundings shift the cancellation by a few ulps, so the bound is
          // relative rather than ulp-exact out there.
          const auto rel = [](T a, T b) {
            return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), T(1)});
          };
          worst_rel_out = std::max(worst_rel_out, rel(r.g_aos[idx], g0[idx]));
          worst_rel_out = std::max(worst_rel_out, rel(r.dg_aos[idx], dg0[idx]));
        }
      }
    }
    // In-domain the FMA Horner stays within 1 ulp of the scalar expression.
    EXPECT_LE(worst_in, 1) << simd::name(lvl);
    EXPECT_LE(worst_rel_out, TestFixture::kRelOut) << simd::name(lvl);
  }
}

TYPED_TEST(TableSimdParity, StreamingBatchMatchesRegularBitwise) {
  // The streaming hint swaps regular vector stores for non-temporal ones —
  // a pure store-path change; the bits that land in memory must be
  // identical. 64-byte-aligned outputs engage the NT path (m = 32 full
  // blocks, m = 24 a partial block whose tail mixes regular scalar stores
  // into the same rows); the misaligned case must fall back cleanly.
  using T = typename TestFixture::T;
  for (std::size_t m_out : {std::size_t{32}, std::size_t{24}}) {
    const auto table = make_table<typename TestFixture::Coef>(m_out, 9);
    const auto s = probe_set(table.lo(), table.hi());
    const std::size_t m = table.output_dim();
    const std::size_t bytes = s.size() * m * sizeof(T);
    AlignedVector<T> g_reg(s.size() * m), dg_reg(s.size() * m);
    AlignedVector<T> g_nt(s.size() * m), dg_nt(s.size() * m);
    for (simd::Level lvl : available_levels()) {
      LevelGuard guard(lvl);
      table.eval_with_deriv_blocked_batch(s.data(), 1, s.size(), g_reg.data(), dg_reg.data(),
                                          m, /*streaming=*/false);
      table.eval_with_deriv_blocked_batch(s.data(), 1, s.size(), g_nt.data(), dg_nt.data(),
                                          m, /*streaming=*/true);
      EXPECT_EQ(0, std::memcmp(g_reg.data(), g_nt.data(), bytes))
          << "m " << m_out << " " << simd::name(lvl);
      EXPECT_EQ(0, std::memcmp(dg_reg.data(), dg_nt.data(), bytes))
          << "m " << m_out << " " << simd::name(lvl);
      // Misaligned rows (offset by one element) must take the fallback and
      // still produce the same bits.
      AlignedVector<T> g_off(s.size() * m + 1), dg_off(s.size() * m + 1);
      table.eval_with_deriv_blocked_batch(s.data(), 1, s.size(), g_off.data() + 1,
                                          dg_off.data() + 1, m, /*streaming=*/true);
      EXPECT_EQ(0, std::memcmp(g_reg.data(), g_off.data() + 1, bytes))
          << "m " << m_out << " " << simd::name(lvl);
    }
  }
}

TYPED_TEST(TableSimdParity, ExtrapolationTelemetryIsLevelIndependent) {
  using T = typename TestFixture::T;
  const auto s = probe_set(T(0.1), T(1.9));
  std::vector<std::size_t> counts;
  for (simd::Level lvl : available_levels()) {
    // Fresh table: its counter starts at 0.
    const auto table = make_table<typename TestFixture::Coef>(32, 8);
    LevelGuard guard(lvl);
    (void)run_table(table, s);
    counts.push_back(table.extrapolations());
  }
  ASSERT_FALSE(counts.empty());
  EXPECT_GT(counts[0], 0u);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], counts[0]);
}

TYPED_TEST(TableSimdParity, ForcesAreThreadCountInvariantAtEveryLevel) {
  // The fused kernel parallelizes over atoms with per-thread scratch and a
  // deterministic master fold — forces must be bitwise identical at 1, 2
  // and 8 threads, at every dispatch level, for every table storage type.
  const core::DPModel model(core::ModelConfig::tiny(2), 31);
  const md::Configuration sys = md::make_water(1, 1, 1, 31);
  const tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(model.config(), 0.9), 0.005};
  const tab::TabulatedDP tab(model, spec);

  ThreadGuard tg;
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    std::vector<Vec3> f1;
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      const auto ff = make_fused<typename TestFixture::Coef>(tab);
      md::NeighborList nl(ff->cutoff(), 1.0);
      nl.build(sys.box, sys.atoms.pos);
      md::Atoms atoms = sys.atoms;
      ff->compute(sys.box, atoms, nl);
      if (threads == 1) {
        f1 = atoms.force;
      } else {
        ASSERT_EQ(f1.size(), atoms.force.size());
        EXPECT_EQ(0, std::memcmp(f1.data(), atoms.force.data(), f1.size() * sizeof(Vec3)))
            << simd::name(lvl) << " threads " << threads;
      }
    }
  }
}

TEST(SimdParity, TanhBatchMatchesScalarEvalPerLevel) {
  const TanhTable& t = default_tanh_table();
  std::vector<double> x = {0.0,   -0.0, 7.999999, -7.999999, 8.0, -8.0, 100.0,
                           -1e12, 0.3,  -0.3,     5.5,       std::nextafter(8.0, 0.0),
                           -std::nextafter(8.0, 0.0)};
  Rng rng(23);
  for (int i = 0; i < 997; ++i) x.push_back(rng.uniform(-9.0, 9.0));  // odd n: tail path
  std::vector<double> y0(x.size()), y(x.size());
  {
    LevelGuard guard(simd::Level::Scalar);
    t.eval_batch(x.data(), y0.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y0[i], t.eval(x[i])) << "scalar batch must be the plain eval loop";
    }
  }
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    t.eval_batch(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(ulp_diff(y[i], y0[i]), 1) << simd::name(lvl) << " x = " << x[i];
      if (std::fabs(x[i]) >= 8.0) {
        EXPECT_EQ(y[i], x[i] < 0.0 ? -1.0 : 1.0) << "saturation must stay exact";
      }
    }
  }
}

TEST(SimdParity, LanesMatchesLevel) {
  EXPECT_EQ(simd::lanes(simd::Level::Scalar), 1u);
  EXPECT_EQ(simd::lanes(simd::Level::AVX2), 4u);
  EXPECT_EQ(simd::lanes(simd::Level::AVX512), 8u);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    EXPECT_EQ(simd::lanes(), simd::lanes(lvl));
    EXPECT_EQ(simd::active(), lvl);
  }
  EXPECT_STREQ(simd::name(simd::Level::Scalar), "scalar");
  EXPECT_STREQ(simd::name(simd::Level::AVX2), "avx2");
  EXPECT_STREQ(simd::name(simd::Level::AVX512), "avx512");
}

TEST(SimdParitySP, LanesSpMatchesLevel) {
  EXPECT_EQ(simd::lanes_sp(simd::Level::Scalar), 1u);
  EXPECT_EQ(simd::lanes_sp(simd::Level::AVX2), 8u);
  EXPECT_EQ(simd::lanes_sp(simd::Level::AVX512), 16u);
  for (simd::Level lvl : available_levels()) {
    LevelGuard guard(lvl);
    EXPECT_EQ(simd::lanes_sp(), simd::lanes_sp(lvl));
    // Float lanes are always exactly twice the double lanes.
    EXPECT_EQ(simd::lanes_sp(), 2 * simd::lanes() - (lvl == simd::Level::Scalar ? 1 : 0));
  }
}

}  // namespace
}  // namespace dp
