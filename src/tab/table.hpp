// Tabulated embedding net (paper Sec 3.2 / 3.5.1).
//
// The whole map g : R -> R^M is replaced by M quintic Hermite splines on a
// uniform grid over the physical range of s(r). Building the table samples
// the reference network's value, first and second derivative at the nodes
// (forward-mode jets), so the spline is C2 and its derivative — used for
// forces — is the exact gradient of the tabulated energy.
//
// Two coefficient layouts are kept:
//   * AoS: the 6 coefficients of one (interval, channel) stored contiguously;
//   * blocked: per interval, channels grouped in lanes-of-16 with the 6
//     coefficient streams transposed (the A64FX layout of Sec 3.5.1 that
//     feeds 512-bit SVE loads; on x86 it vectorizes the same way).
//
// One class template, Table<Coef>, over the coefficient storage type:
// double (the shipped table), float and _Float16 (the storage half of the
// mixed-precision variants — Table 1's mixed-single / mixed-half rows; making
// the optimized code mixed-precision is the paper's stated future work).
// Reduced-precision tables are truncated copies of the double table; they
// evaluate in float and the callers reduce in double. Table memory halves
// (float) or quarters (half).
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <type_traits>

#include "common/aligned.hpp"
#include "nn/embedding_net.hpp"

namespace dp::tab {

/// A relaxed atomic counter that copies by value, so classes holding one as
/// telemetry keep their implicit copy/move operations. Copying snapshots the
/// count; it is not an atomic transfer (copies happen single-threaded, at
/// model build/load time).
///
/// Capability note (docs/STATIC_ANALYSIS.md): this is the one piece of
/// cross-thread table state — the rest of a table is immutable after build,
/// which is what lets one model copy be shared per rank with no lock and no
/// DP_GUARDED_BY. Readers of value() accept a relaxed snapshot; the joins
/// at the end of a run supply the final happens-before.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
  void bump() noexcept { v_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> v_{0};
};

struct TabulationSpec {
  double lo = 0.0;        ///< lower bound of the tabulated domain of s
  double hi = 1.0;        ///< upper bound
  double interval = 0.01; ///< node spacing (the paper sweeps 0.1/0.01/0.001)
};

/// Arithmetic type of a table storing Coef: double tables evaluate in
/// double, the float and half tables in float.
template <class Coef>
using compute_t = std::conditional_t<std::is_same_v<Coef, double>, double, float>;

template <class Coef>
class Table {
 public:
  using value_type = compute_t<Coef>;
  // The reduced-precision tables compute in float; every widening to double
  // happens at the caller, behind an explicit cast.
  static_assert(std::is_same_v<Coef, double> || std::is_same_v<value_type, float>,
                "float and _Float16 tables must compute in float");

  Table() = default;
  /// Samples the network at the nodes (double tables only).
  Table(const nn::EmbeddingNet& net, const TabulationSpec& spec)
    requires std::is_same_v<Coef, double>;
  /// Truncated copy of the double table (reduced-precision tables only).
  template <class Ref>
    requires(std::is_same_v<Ref, double> && !std::is_same_v<Coef, double>)
  explicit Table(const Table<Ref>& ref);

  std::size_t output_dim() const { return m_; }
  std::size_t n_intervals() const { return n_; }
  value_type interval() const { return h_; }
  value_type lo() const { return lo_; }
  value_type hi() const { return hi_; }
  /// Table size in bytes (AoS copy only — what a deployment would ship).
  std::size_t bytes() const { return coef_.size() * sizeof(Coef); }

  /// g[0..M): tabulated g(s). s outside [lo, hi] extrapolates with the edge
  /// segment (smoothly) and is counted in extrapolations().
  void eval(value_type s, value_type* g) const;

  /// Value and d/ds together (one AoS table walk).
  void eval_with_deriv(value_type s, value_type* g, value_type* dg) const;

  /// Batched blocked walk over `count` inputs: s values at s[k * s_stride],
  /// g/dg rows at g + k * out_stride resp. dg + k * out_stride. Identical
  /// results to `count` eval_with_deriv calls at any fixed level — the batch
  /// resolves the SIMD dispatch once and keeps the coefficient streams hot.
  ///
  /// `streaming` hints that the aggregate output run (across this and the
  /// surrounding calls) streams far past the last-level cache: the vector
  /// levels then use non-temporal stores, halving the write traffic. Bits
  /// stored are identical; the hint is ignored at Level::Scalar or when an
  /// output row is not 64-byte aligned. Leave it off when the rows are
  /// consumed while still cache-hot (e.g. a per-atom staging buffer).
  void eval_with_deriv_blocked_batch(const value_type* s, std::size_t s_stride,
                                     std::size_t count, value_type* g, value_type* dg,
                                     std::size_t out_stride, bool streaming = false) const;

  /// Out-of-range evaluations; the --health extrapolation-rate watchdog
  /// reads it.
  std::size_t extrapolations() const { return extrapolations_.value(); }

  /// Raw AoS coefficients [(interval * M + channel) * 6 + k] — consumed by
  /// the reduced-precision tables and by serialization.
  const AlignedVector<Coef>& coefficients() const { return coef_; }

  /// Binary (de)serialization — the shipped artifact of "dp compress".
  void save(std::ostream& os) const
    requires std::is_same_v<Coef, double>;
  static Table load(std::istream& is)
    requires std::is_same_v<Coef, double>;

  /// Lane width of the blocked layout: 16 structures per transpose group
  /// (two 512-bit vectors of doubles), as chosen in the paper for the dual
  /// FP pipelines of A64FX.
  static constexpr std::size_t kLane = 16;

 private:
  /// Locates the segment and local coordinate for s.
  std::size_t locate(value_type s, value_type& t) const;
  /// Rebuilds the blocked (SVE-style) layout from the AoS coefficients.
  void rebuild_blocked();

  std::size_t m_ = 0;       // channels
  std::size_t m_pad_ = 0;   // channels padded to a multiple of kLane
  std::size_t n_ = 0;       // intervals
  value_type lo_ = 0, hi_ = 1, h_ = 1, inv_h_ = 1;
  AlignedVector<Coef> coef_;          // AoS: [(i * m + ch) * 6 + k]
  AlignedVector<Coef> coef_blocked_;  // [(i * nblk + b) * 6 + k][lane]
  // Atomic (relaxed): one table is evaluated concurrently by every rank and
  // OpenMP thread, and locate() bumps this from a const context. The bump
  // sits only on the rare out-of-range branches, so the in-range hot path
  // pays nothing; the count is telemetry read after the run.
  mutable RelaxedCounter extrapolations_;
};

template <class Coef>
template <class Ref>
  requires(std::is_same_v<Ref, double> && !std::is_same_v<Coef, double>)
Table<Coef>::Table(const Table<Ref>& ref)
    : m_(ref.output_dim()),
      m_pad_((ref.output_dim() + kLane - 1) / kLane * kLane),
      n_(ref.n_intervals()),
      lo_(static_cast<value_type>(ref.lo())),
      hi_(static_cast<value_type>(ref.hi())),
      h_(static_cast<value_type>(ref.interval())),
      inv_h_(value_type(1) / h_) {
  // Rounded through float first, so the half table truncates the float one.
  const auto& src = ref.coefficients();
  coef_.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i)
    coef_[i] = static_cast<Coef>(static_cast<value_type>(src[i]));
  rebuild_blocked();
}

extern template class Table<double>;
extern template class Table<float>;
extern template class Table<_Float16>;

using TabulatedEmbedding = Table<double>;
using TabulatedEmbeddingSP = Table<float>;
using TabulatedEmbeddingHP = Table<_Float16>;

}  // namespace dp::tab
