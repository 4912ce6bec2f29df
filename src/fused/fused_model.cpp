#include "fused/fused_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/cost.hpp"
#include "common/simd.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace dp::fused {

using core::ModelConfig;

namespace {

// ---------------------------------------------------------------------------
// Per-level kernels for the two fused hot loops: the pass-1 rank-1 outer
// product A_c += r[c] * row (Fig 4 (c)) and the pass-2 per-slot gradient
// contraction, each one template over the compute type T. Level::Scalar
// keeps the exact seed expressions (the `_scalar` kernels below, pragma
// included — removing it could change the autovectorized reduction bits).
// The vector levels are compiled from fused_kernels.inc. Dispatch is hoisted
// out of the slot loop: compute() resolves the function pointers once per
// call.
// ---------------------------------------------------------------------------

template <class T>
void rank1_update_scalar(const T* r, const T* row, std::size_t m, T* a) {
  for (int c = 0; c < 4; ++c) {
    const T rv = r[c];
    T* arow = a + static_cast<std::size_t>(c) * m;
#pragma omp simd
    for (std::size_t b = 0; b < m; ++b) arow[b] += rv * row[b];
  }
}

/// Kept noinline so exactly ONE compiled instance per type serves every
/// call site: a clone inlined elsewhere may contract or unroll the reduction
/// differently and move the last bit.
template <class T>
__attribute__((noinline)) void slot_gradient_scalar(const T* r, const T* row, const T* drow,
                                                    const T* g_a, std::size_t m,
                                                    double* grow) {
  T acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0, acc_s = 0;
  const T r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3];
  const T* ga0 = g_a;
  const T* ga1 = g_a + m;
  const T* ga2 = g_a + 2 * m;
  const T* ga3 = g_a + 3 * m;
  if constexpr (std::is_same_v<T, double>) {
#pragma omp simd reduction(+ : acc0, acc1, acc2, acc3, acc_s)
    for (std::size_t b = 0; b < m; ++b) {
      const T gb = row[b];
      acc0 += ga0[b] * gb;
      acc1 += ga1[b] * gb;
      acc2 += ga2[b] * gb;
      acc3 += ga3[b] * gb;
      acc_s += (r0 * ga0[b] + r1 * ga1[b] + r2 * ga2[b] + r3 * ga3[b]) * drow[b];
    }
  } else {
    // The float seed, written as the explicit serial fma chain its `omp simd
    // reduction` loop compiled to under -march=native -ffp-contract (the
    // vectorizer declined it; only the contraction fired). Spelling the fmas
    // out pins that bit pattern at the source level: an explicit fma chain
    // cannot be re-vectorized without reassociation.
    for (std::size_t b = 0; b < m; ++b) {
      const T gb = row[b];
      acc0 = std::fma(ga0[b], gb, acc0);
      acc1 = std::fma(ga1[b], gb, acc1);
      acc2 = std::fma(ga2[b], gb, acc2);
      acc3 = std::fma(ga3[b], gb, acc3);
      // fma(r0,ga0, r1*ga1): the seed contraction pre-rounds the r1*ga1
      // product, not r0*ga0 — the asymmetry matters bitwise.
      T w = std::fma(r0, ga0[b], r1 * ga1[b]);
      w = std::fma(r2, ga2[b], w);
      w = std::fma(r3, ga3[b], w);
      acc_s = std::fma(w, drow[b], acc_s);
    }
  }
  grow[0] = static_cast<double>(acc0) + static_cast<double>(acc_s);
  grow[1] = acc1;
  grow[2] = acc2;
  grow[3] = acc3;
}

#if DP_SIMD_X86

namespace avx2 {
constexpr simd::Level kLevel = simd::Level::AVX2;
#define DP_LEVEL_TARGET DP_TARGET_AVX2
#include "fused/fused_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx2

namespace avx512 {
constexpr simd::Level kLevel = simd::Level::AVX512;
#define DP_LEVEL_TARGET DP_TARGET_AVX512
#include "fused/fused_kernels.inc"
#undef DP_LEVEL_TARGET
}  // namespace avx512

#endif  // DP_SIMD_X86

template <class T>
using Rank1Fn = void (*)(const T*, const T*, std::size_t, T*);
template <class T>
using SlotGradientFn = void (*)(const T*, const T*, const T*, const T*, std::size_t, double*);

template <class T>
Rank1Fn<T> pick_rank1(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return avx512::rank1_update<T>;
  if (lvl == simd::Level::AVX2) return avx2::rank1_update<T>;
#else
  (void)lvl;
#endif
  return rank1_update_scalar<T>;
}

template <class T>
SlotGradientFn<T> pick_slot_gradient(simd::Level lvl) {
#if DP_SIMD_X86
  if (lvl == simd::Level::AVX512) return avx512::slot_gradient<T>;
  if (lvl == simd::Level::AVX2) return avx2::slot_gradient<T>;
#else
  (void)lvl;
#endif
  return slot_gradient_scalar<T>;
}

}  // namespace

template <class Coef>
void FusedKernel<Coef>::prepare(const ModelConfig& cfg, std::size_t n) {
  const std::size_t m = cfg.m();
  const std::size_t nm = static_cast<std::size_t>(cfg.nm());
  atom_energy_.resize(n);
  g_rmat_.resize(env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.s_col.resize(nm);
    sc.row_cache.resize(nm * 2 * m);
    sc.a_t.resize(4 * m);
    sc.ga_t.resize(4 * m);
    sc.a_mat.resize(4 * m);
    sc.g_a.resize(4 * m);
  }
}

template <class Coef>
std::size_t FusedKernel<Coef>::workspace_bytes() const {
  std::size_t b = env_.storage_bytes() + env_ws_.bytes() + prod_ws_.bytes() +
                  g_rmat_.capacity() * sizeof(double) +
                  atom_energy_.capacity() * sizeof(double) +
                  scratch_.capacity() * sizeof(ThreadScratch);
  for (const ThreadScratch& sc : scratch_) b += sc.bytes();
  return b;
}

template <class Coef>
md::ForceResult FusedKernel<Coef>::compute(const core::DPModel& model,
                                           const std::vector<tab::Table<Coef>>& tables,
                                           const FusedOptions& opts, const md::Box& box,
                                           md::Atoms& atoms, const md::NeighborList& nlist,
                                           bool periodic) {
  ScopedTimer timer("fused.compute", "kernel");
  const ModelConfig& cfg = model.config();
  {
    ScopedTimer t("fused.env_mat", "kernel");
    build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, opts.env_kernel, periodic);
  }
  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const std::size_t m_sub = cfg.axis_neuron;
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(cfg, n);

  std::size_t slots_processed = 0;
  double energy_total = 0.0;

  {
    ScopedTimer timer_desc("fused.descriptor", "kernel");
    // BuildTeam, not `#pragma omp parallel`: the zero-suppression TSan floor
    // (common/team.hpp) — libgomp's reduction write-back on the region's
    // capture frame is invisible to TSan. Partials live in ThreadScratch
    // and fold on the master in ascending thread order.
    const int team_size = static_cast<int>(scratch_.size());
    // SIMD level resolved once per compute(), outside the team (same pattern
    // as prod_force): every thread runs the same kernel instance.
    const Rank1Fn<T> rank1_update = pick_rank1<T>(simd::active());
    const SlotGradientFn<T> slot_gradient = pick_slot_gradient<T>(simd::active());
    // Slots walked per (atom, type) block: the filled ones, or every
    // reserved slot of the dense layout when redundancy removal is off.
    auto slot_count = [&](std::size_t i, int ty) {
      return static_cast<std::size_t>((env_.compact() || opts.skip_padding)
                                          ? env_.count(i, ty)
                                          : cfg.sel[static_cast<std::size_t>(ty)]);
    };
    BuildTeam& team = BuildTeam::team();
    auto body = [&](int tid, int nthreads) {
      ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
      sc.slots_partial = 0;
      sc.energy_partial = 0.0;
      const std::size_t i_begin = chunk_bound(n, tid, nthreads);
      const std::size_t i_end = chunk_bound(n, tid + 1, nthreads);
      for (std::size_t i = i_begin; i < i_end; ++i) {
        std::memset(sc.a_t.data(), 0, 4 * m * sizeof(T));

        // ---- Pass 1: one batched table walk per type block into the row
        // cache (indexed by the dense in-atom offset in both env layouts),
        // then the rank-1 contraction over the cached value rows ----------
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const tab::Table<Coef>& table = tables[model.pair_index(atoms.type[i], ty)];
          const std::size_t base = env_.block_begin(i, ty);
          const std::size_t cnt = slot_count(i, ty);
          if (cnt == 0) continue;
          // The s values sit in the first column of the contiguous env rows.
          const double* rbase = env_.rmat_at(base);
          for (std::size_t k = 0; k < cnt; ++k) sc.s_col[k] = static_cast<T>(rbase[4 * k]);
          T* cache0 =
              sc.row_cache.data() + static_cast<std::size_t>(cfg.type_offset(ty)) * 2 * m;
          table.eval_with_deriv_blocked_batch(sc.s_col.data(), 1, cnt, cache0, cache0 + m,
                                              2 * m);
          for (std::size_t k = 0; k < cnt; ++k) {
            const double* rrow = rbase + 4 * k;
            const T r[4] = {static_cast<T>(rrow[0]), static_cast<T>(rrow[1]),
                            static_cast<T>(rrow[2]), static_cast<T>(rrow[3])};
            rank1_update(r, cache0 + k * 2 * m, m, sc.a_t.data());
          }
          sc.slots_partial += cnt;
        }

        // ---- Descriptor + fitting in double ------------------------------
        for (std::size_t k = 0; k < 4 * m; ++k)
          sc.a_mat[k] = static_cast<double>(sc.a_t[k]) * scale;
        const double e_i = core::descriptor_fit_atom(model.fitting(atoms.type[i]),
                                                     sc.a_mat.data(), m, m_sub, scale,
                                                     sc.scratch, sc.g_a.data());
        atom_energy_[i] = e_i;
        sc.energy_partial += e_i;

        // ---- Pass 2 from the cache: fuse dE/dR~ and dE/ds per slot -------
        for (std::size_t k = 0; k < 4 * m; ++k) sc.ga_t[k] = static_cast<T>(sc.g_a[k]);
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const std::size_t base = env_.block_begin(i, ty);
          const T* cache0 =
              sc.row_cache.data() + static_cast<std::size_t>(cfg.type_offset(ty)) * 2 * m;
          const std::size_t cnt = slot_count(i, ty);
          for (std::size_t k = 0; k < cnt; ++k) {
            const double* rrow = env_.rmat_at(base + k);
            const T r[4] = {static_cast<T>(rrow[0]), static_cast<T>(rrow[1]),
                            static_cast<T>(rrow[2]), static_cast<T>(rrow[3])};
            const T* row = cache0 + k * 2 * m;
            slot_gradient(r, row, row + m, sc.ga_t.data(), m, g_rmat_.data() + (base + k) * 4);
          }
        }
        // Dense layout without skip_padding walked the padded tails above;
        // their g_rmat rows were written too (and are never read by the
        // scatter, which walks counts only).
      }
    };
    team.run(team_size, BodyRef(body));
    for (const ThreadScratch& sc : scratch_) {
      slots_processed += sc.slots_partial;
      energy_total += sc.energy_partial;
    }
  }

  slots_processed_ = slots_processed;
  slots_total_ = n * static_cast<std::size_t>(nm);
  {
    static obs::Counter& slots_metric =
        obs::MetricsRegistry::instance().counter("fused.slots_processed");
    static obs::Gauge& padding_metric =
        obs::MetricsRegistry::instance().gauge("fused.padding_fraction");
    static obs::Counter& bytes_saved_metric =
        obs::MetricsRegistry::instance().counter("fused.bytes_saved");
    slots_metric.inc(slots_processed);
    padding_metric.set(env_.padding_fraction());
    if (env_.compact()) {
      // Env payload saved by the CSR plus the padded g_rmat rows never
      // materialized; clamped — tiny systems can spend more on the prefix
      // than the padding they avoid.
      const std::size_t dense = env_.dense_bytes() + slots_total_ * 4 * sizeof(double);
      const std::size_t compact =
          env_.compact_bytes() + env_.stored_slots() * 4 * sizeof(double);
      if (dense > compact) bytes_saved_metric.inc(dense - compact);
    }
  }
  CostRegistry::instance().add(
      "fused.descriptor",
      {static_cast<double>(slots_processed) * 47.0 * static_cast<double>(m),
       static_cast<double>(slots_processed) * 12.0 * static_cast<double>(m) * sizeof(Coef),
       static_cast<double>(slots_processed) * 4.0 * sizeof(double)});

  md::ForceResult out;
  out.energy = energy_total;
  {
    ScopedTimer t("fused.prod_force", "kernel");
    atoms.zero_forces();
    prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                      prod_ws_);
  }
  return out;
}

template class FusedKernel<double>;
template class FusedKernel<float>;
template class FusedKernel<_Float16>;

}  // namespace dp::fused
