#include "tab/table.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "tab/poly5.hpp"

namespace dp::tab {

namespace {

constexpr std::size_t kL = Table<double>::kLane;

// ---------------------------------------------------------------------------
// Per-level kernels for one table walk (interval already located, local
// coordinate t in hand), each written once over the coefficient type Coef
// and its compute type T. The Level::Scalar kernels keep the exact pre-SIMD
// expressions; the vector levels share one elementwise FMA Horner sequence
// between the AoS walk, the blocked walk and the scalar tails, so the two
// layouts stay bitwise identical at any fixed level (the parity suite pins
// this down). Half coefficients are widened to float first — exactly.
// ---------------------------------------------------------------------------

template <class Coef, class T>
void aos_value_scalar(const Coef* base, T t, std::size_t m, T* g) {
  for (std::size_t ch = 0; ch < m; ++ch) {
    const Coef* c = base + ch * 6;
    const T c0 = static_cast<T>(c[0]), c1 = static_cast<T>(c[1]), c2 = static_cast<T>(c[2]),
            c3 = static_cast<T>(c[3]), c4 = static_cast<T>(c[4]), c5 = static_cast<T>(c[5]);
    g[ch] = c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))));
  }
}

template <class Coef, class T>
void aos_deriv_scalar(const Coef* base, T t, std::size_t m, T* g, T* dg) {
  for (std::size_t ch = 0; ch < m; ++ch) {
    const Coef* c = base + ch * 6;
    const T c1 = static_cast<T>(c[1]), c2 = static_cast<T>(c[2]), c3 = static_cast<T>(c[3]),
            c4 = static_cast<T>(c[4]), c5 = static_cast<T>(c[5]);
    g[ch] = static_cast<T>(c[0]) + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))));
    dg[ch] = c1 + t * (2 * c2 + t * (3 * c3 + t * (4 * c4 + t * 5 * c5)));
  }
}

template <class Coef, class T = compute_t<Coef>>
void blocked_deriv_scalar(const Coef* base, T t, std::size_t m, std::size_t nblk, T* g,
                          T* dg) {
  for (std::size_t b = 0; b < nblk; ++b) {
    const Coef* c = base + b * 6 * kL;
    const std::size_t ch0 = b * kL;
    const std::size_t lanes = (ch0 + kL <= m) ? kL : (m - ch0);
#pragma omp simd
    for (std::size_t l = 0; l < lanes; ++l) {
      const T c1 = static_cast<T>(c[1 * kL + l]), c2 = static_cast<T>(c[2 * kL + l]),
              c3 = static_cast<T>(c[3 * kL + l]), c4 = static_cast<T>(c[4 * kL + l]),
              c5 = static_cast<T>(c[5 * kL + l]);
      g[ch0 + l] = static_cast<T>(c[0 * kL + l]) +
                   t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))));
      dg[ch0 + l] = c1 + t * (2 * c2 + t * (3 * c3 + t * (4 * c4 + t * 5 * c5)));
    }
  }
}

#if DP_SIMD_X86

// AoS walk at the vector levels: scalar std::fma per channel, which the
// target attribute compiles to the FMA instruction — the exact rounding
// sequence of the blocked vector lanes, so AoS == blocked bitwise. One
// AVX2-annotated body serves both vector levels (the math is elementwise).
template <class Coef, class T>
DP_TARGET_AVX2 void aos_value_fma(const Coef* base, T t, std::size_t m, T* g) {
  for (std::size_t ch = 0; ch < m; ++ch) {
    const Coef* c = base + ch * 6;
    const T c0 = static_cast<T>(c[0]), c1 = static_cast<T>(c[1]), c2 = static_cast<T>(c[2]),
            c3 = static_cast<T>(c[3]), c4 = static_cast<T>(c[4]), c5 = static_cast<T>(c[5]);
    g[ch] = std::fma(t, std::fma(t, std::fma(t, std::fma(t, std::fma(t, c5, c4), c3), c2), c1),
                     c0);
  }
}

template <class Coef, class T>
DP_TARGET_AVX2 void aos_deriv_fma(const Coef* base, T t, std::size_t m, T* g, T* dg) {
  for (std::size_t ch = 0; ch < m; ++ch) {
    const Coef* c = base + ch * 6;
    const T c0 = static_cast<T>(c[0]), c1 = static_cast<T>(c[1]), c2 = static_cast<T>(c[2]),
            c3 = static_cast<T>(c[3]), c4 = static_cast<T>(c[4]), c5 = static_cast<T>(c[5]);
    g[ch] = std::fma(t, std::fma(t, std::fma(t, std::fma(t, std::fma(t, c5, c4), c3), c2), c1),
                     c0);
    dg[ch] = std::fma(
        t, std::fma(t, std::fma(t, std::fma(t, T(5) * c5, T(4) * c4), T(3) * c3), T(2) * c2),
        c1);
  }
}

// The blocked walk, compiled once per vector level from table_kernels.inc.
// The AVX2 instantiations carry f16c for the half table's in-register widen
// (vcvtph2ps is not implied by avx2): the double and float walks contain no
// half conversion, so no F16C instruction is emitted for them, and the half
// walk only runs at AVX2 when has_f16c() (see walk_level).
namespace avx2 {
constexpr simd::Level kLevel = simd::Level::AVX2;
#define DP_LEVEL_TARGET DP_TARGET_AVX2_F16C
#include "tab/table_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx2

namespace avx512 {
constexpr simd::Level kLevel = simd::Level::AVX512;
#define DP_LEVEL_TARGET DP_TARGET_AVX512
#include "tab/table_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx512

#endif  // DP_SIMD_X86

/// The level a Coef table walks at: the active level, except that the half
/// table has no in-register widen on AVX2 hardware without F16C and walks
/// at Level::Scalar there (AoS and blocked then both run the seed
/// expressions — the layouts stay bitwise identical).
template <class Coef>
simd::Level walk_level() {
  const simd::Level lvl = simd::active();
  if constexpr (std::is_same_v<Coef, _Float16>)
    if (lvl == simd::Level::AVX2 && !simd::has_f16c()) return simd::Level::Scalar;
  return lvl;
}

template <class Coef, class T = compute_t<Coef>>
using WalkFn = void (*)(const Coef*, T, std::size_t, std::size_t, T*, T*);

// `nt` selects the non-temporal store variant at the vector levels; the
// scalar kernel keeps the seed stores (Level::Scalar is the seed path).
template <class Coef>
WalkFn<Coef> pick_walk(simd::Level lvl, bool nt) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512)
    return nt ? avx512::blocked_deriv<true, Coef> : avx512::blocked_deriv<false, Coef>;
  if (lvl == simd::Level::AVX2)
    return nt ? avx2::blocked_deriv<true, Coef> : avx2::blocked_deriv<false, Coef>;
#else
  (void)lvl;
  (void)nt;
#endif
  return blocked_deriv_scalar<Coef>;
}

}  // namespace

template <class Coef>
Table<Coef>::Table(const nn::EmbeddingNet& net, const TabulationSpec& spec)
  requires std::is_same_v<Coef, double>
{
  DP_CHECK(spec.hi > spec.lo && spec.interval > 0.0);
  m_ = net.output_dim();
  m_pad_ = (m_ + kLane - 1) / kLane * kLane;
  lo_ = spec.lo;
  hi_ = spec.hi;
  n_ = static_cast<std::size_t>(std::ceil((hi_ - lo_) / spec.interval - 1e-12));
  DP_CHECK(n_ >= 1);
  h_ = (hi_ - lo_) / static_cast<double>(n_);
  inv_h_ = 1.0 / h_;

  coef_.assign(n_ * m_ * 6, 0.0);

  // Jets of the reference network at all n_+1 nodes.
  AlignedVector<double> g0(m_), d0(m_), s0(m_), g1(m_), d1(m_), s1(m_);
  net.eval_jet(lo_, g0.data(), d0.data(), s0.data());
  for (std::size_t i = 0; i < n_; ++i) {
    const double x1 = lo_ + h_ * static_cast<double>(i + 1);
    net.eval_jet(x1, g1.data(), d1.data(), s1.data());
    for (std::size_t ch = 0; ch < m_; ++ch) {
      const Poly5 c = fit_quintic(h_, g0[ch], d0[ch], s0[ch], g1[ch], d1[ch], s1[ch]);
      double* dst = coef_.data() + (i * m_ + ch) * 6;
      for (int k = 0; k < 6; ++k) dst[k] = c[k];
    }
    std::swap(g0, g1);
    std::swap(d0, d1);
    std::swap(s0, s1);
  }
  rebuild_blocked();
}

template <class Coef>
void Table<Coef>::rebuild_blocked() {
  // Blocked layout: the k-th coefficient of channel ch lands in stream k of
  // block ch/16 at lane ch%16 — the per-16 transpose of Sec 3.5.1 (on the
  // already-rounded coefficients: no re-rounding).
  coef_blocked_.assign(n_ * m_pad_ * 6, Coef(0));
  const std::size_t nblk = m_pad_ / kLane;
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t ch = 0; ch < m_; ++ch) {
      const std::size_t b = ch / kLane, l = ch % kLane;
      const Coef* src = coef_.data() + (i * m_ + ch) * 6;
      Coef* blk = coef_blocked_.data() + ((i * nblk + b) * 6) * kLane;
      for (std::size_t k = 0; k < 6; ++k) blk[k * kLane + l] = src[k];
    }
}

template <class Coef>
std::size_t Table<Coef>::locate(value_type s, value_type& t) const {
  const value_type u = (s - lo_) * inv_h_;
  std::size_t i;
  if (u < value_type(0)) {
    i = 0;
    extrapolations_.bump();
  } else if (u >= static_cast<value_type>(n_)) {
    i = n_ - 1;
    if (s > hi_) extrapolations_.bump();
  } else {
    i = static_cast<std::size_t>(u);
  }
  t = s - (lo_ + h_ * static_cast<value_type>(i));
  return i;
}

template <class Coef>
void Table<Coef>::eval(value_type s, value_type* g) const {
  value_type t;
  const std::size_t i = locate(s, t);
  const Coef* base = coef_.data() + i * m_ * 6;
#if DP_SIMD_X86
  if (walk_level<Coef>() != simd::Level::Scalar) {
    aos_value_fma(base, t, m_, g);
    return;
  }
#endif
  aos_value_scalar(base, t, m_, g);
}

template <class Coef>
void Table<Coef>::eval_with_deriv(value_type s, value_type* g, value_type* dg) const {
  value_type t;
  const std::size_t i = locate(s, t);
  const Coef* base = coef_.data() + i * m_ * 6;
#if DP_SIMD_X86
  if (walk_level<Coef>() != simd::Level::Scalar) {
    aos_deriv_fma(base, t, m_, g, dg);
    return;
  }
#endif
  aos_deriv_scalar(base, t, m_, g, dg);
}

template <class Coef>
void Table<Coef>::eval_with_deriv_blocked_batch(const value_type* s, std::size_t s_stride,
                                                std::size_t count, value_type* g,
                                                value_type* dg, std::size_t out_stride,
                                                bool streaming) const {
  // One dispatch for the whole run of slots; locate() per element keeps the
  // extrapolation telemetry exactly as per-slot calls would.
  //
  // The streaming hint swaps the vector stores for non-temporal ones — for
  // output runs far past the LLC the regular store's read-for-ownership
  // doubles the write traffic and becomes the bottleneck. Only honored when
  // every output row is 64-byte aligned (the stream intrinsics require it);
  // the stored bits are identical either way, so the parity suite covers
  // both variants with one oracle.
  const simd::Level lvl = walk_level<Coef>();
  const bool nt = streaming && lvl != simd::Level::Scalar &&
                  ((reinterpret_cast<std::uintptr_t>(g) | reinterpret_cast<std::uintptr_t>(dg) |
                    (out_stride * sizeof(value_type))) %
                       64 ==
                   0);
  const WalkFn<Coef> fn = pick_walk<Coef>(lvl, nt);
  const std::size_t nblk = m_pad_ / kLane;
  for (std::size_t k = 0; k < count; ++k) {
    value_type t;
    const std::size_t i = locate(s[k * s_stride], t);
    fn(coef_blocked_.data() + i * nblk * 6 * kLane, t, m_, nblk, g + k * out_stride,
       dg + k * out_stride);
  }
#if DP_SIMD_X86
  if (nt) simd::store_fence();
#endif
}

namespace {
template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DP_CHECK_MSG(static_cast<bool>(is), "truncated table stream");
  return v;
}
constexpr std::uint32_t kTableMagic = 0x44505442;  // "DPTB"
}  // namespace

template <class Coef>
void Table<Coef>::save(std::ostream& os) const
  requires std::is_same_v<Coef, double>
{
  write_pod(os, kTableMagic);
  write_pod<std::uint64_t>(os, m_);
  write_pod<std::uint64_t>(os, n_);
  write_pod(os, lo_);
  write_pod(os, hi_);
  os.write(reinterpret_cast<const char*>(coef_.data()),
           static_cast<std::streamsize>(coef_.size() * sizeof(double)));
}

template <class Coef>
Table<Coef> Table<Coef>::load(std::istream& is)
  requires std::is_same_v<Coef, double>
{
  DP_CHECK_MSG(read_pod<std::uint32_t>(is) == kTableMagic, "bad table magic");
  Table t;
  t.m_ = read_pod<std::uint64_t>(is);
  t.n_ = read_pod<std::uint64_t>(is);
  t.lo_ = read_pod<double>(is);
  t.hi_ = read_pod<double>(is);
  DP_CHECK(t.m_ > 0 && t.n_ > 0 && t.hi_ > t.lo_);
  t.m_pad_ = (t.m_ + kLane - 1) / kLane * kLane;
  t.h_ = (t.hi_ - t.lo_) / static_cast<double>(t.n_);
  t.inv_h_ = 1.0 / t.h_;
  t.coef_.resize(t.n_ * t.m_ * 6);
  is.read(reinterpret_cast<char*>(t.coef_.data()),
          static_cast<std::streamsize>(t.coef_.size() * sizeof(double)));
  DP_CHECK_MSG(static_cast<bool>(is), "truncated table stream");
  t.rebuild_blocked();
  return t;
}

template class Table<double>;
template class Table<float>;
template class Table<_Float16>;

}  // namespace dp::tab