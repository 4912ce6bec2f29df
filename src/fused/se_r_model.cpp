#include "fused/se_r_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cstring>

#include "common/cost.hpp"
#include "common/team.hpp"
#include "common/timer.hpp"
#include "dp/descriptor.hpp"
#include "dp/prod_force.hpp"

namespace dp::fused {

using core::ModelConfig;

SeRFusedDP::SeRFusedDP(const tab::TabulatedDP& tabulated) : tab_(tabulated) {
  const auto& cfg = tabulated.model().config();
  DP_CHECK_MSG(cfg.descriptor == core::DescriptorKind::SeR,
               "SeRFusedDP needs a model configured with DescriptorKind::SeR");
  // Cache the padding row g(0) of every table.
  const int nt = cfg.ntypes;
  const std::size_t m = cfg.m();
  for (int c = 0; c < (cfg.type_one_side ? 1 : nt); ++c)
    for (int t = 0; t < nt; ++t) {
      AlignedVector<double> g0(m);
      tabulated.table_pair(c, t).eval(0.0, g0.data());
      g_zero_.push_back(std::move(g0));
    }
}

void SeRFusedDP::prepare(std::size_t n) {
  const ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  atom_energy_.resize(n);
  g_rmat_.resize(env_.stored_slots() * 4);
  scratch_.resize(static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  for (ThreadScratch& sc : scratch_) {
    sc.row_cache.resize(static_cast<std::size_t>(cfg.nm()) * 2 * m);
    sc.g_tile.resize(core::kFitTile * m);
  }
}

md::ForceResult SeRFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                    const md::NeighborList& nlist, bool periodic) {
  ScopedTimer timer("se_r.compute");
  const core::DPModel& model = tab_.model();
  const ModelConfig& cfg = model.config();
  build_env_mat(cfg, box, atoms, nlist, env_, env_ws_, core::EnvMatKernel::Optimized,
                periodic);

  const std::size_t n = env_.n_atoms;
  const std::size_t m = cfg.m();
  const int nm = cfg.nm();
  const double scale = 1.0 / static_cast<double>(nm);
  prepare(n);

  // BuildTeam, not `#pragma omp parallel` — zero-suppression TSan floor
  // (common/team.hpp); per-thread partials fold on the master. Atoms are
  // tiled by type like FusedKernel's, so the fitting net runs as one GEMM
  // per layer over a tile.
  const int team_size = static_cast<int>(scratch_.size());
  BuildTeam& team = BuildTeam::team();
  auto cache_of = [&](ThreadScratch& sc, int ty) {
    return sc.row_cache.data() + static_cast<std::size_t>(cfg.type_offset(ty)) * 2 * m;
  };
  // Real slots are walked batched into the row cache (value / derivative
  // pairs); pass 1 and pass 2 each walk.
  auto walk = [&](ThreadScratch& sc, std::size_t i) {
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      const int limit = env_.count(i, ty);
      double* cache0 = cache_of(sc, ty);
      // The s values sit in the first column of the contiguous env rows.
      if (limit > 0)
        tab_.table_pair(atoms.type[i], ty)
            .eval_with_deriv_blocked_batch(env_.rmat_at(env_.block_begin(i, ty)), 4,
                                           static_cast<std::size_t>(limit), cache0, cache0 + m,
                                           2 * m);
    }
  };
  auto body = [&](int tid, int T) {
    ThreadScratch& sc = scratch_[static_cast<std::size_t>(tid)];
    sc.slots_partial = 0;
    sc.fit_flops = 0.0;
    auto tile = [&](int ct, const std::size_t* tile_atoms, std::size_t rows) {
      // ---- Pass 1: D = (1/N_m) sum over ALL slots of g(s_j); real slots
      // come from the cache, padded ones contribute the cached g(0)
      // analytically ----------------------------------------------------
      const nn::FittingNet& fit = model.fitting(ct);
      double* d_tile = fit.tile_input(sc.fit_ws, rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = tile_atoms[r];
        double* d_vec = d_tile + r * m;
        std::memset(d_vec, 0, m * sizeof(double));
        walk(sc, i);
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const int limit = env_.count(i, ty);
          const double* cache0 = cache_of(sc, ty);
          for (int k = 0; k < limit; ++k) {
            const double* row = cache0 + static_cast<std::size_t>(k) * 2 * m;
#pragma omp simd
            for (std::size_t b = 0; b < m; ++b) d_vec[b] += row[b];
          }
          sc.slots_partial += static_cast<std::size_t>(limit);
          const double n_padded =
              static_cast<double>(cfg.sel[static_cast<std::size_t>(ty)] - limit);
          const auto& g0 =
              g_zero_[cfg.type_one_side
                          ? static_cast<std::size_t>(ty)
                          : static_cast<std::size_t>(ct) * static_cast<std::size_t>(cfg.ntypes) +
                                static_cast<std::size_t>(ty)];
#pragma omp simd
          for (std::size_t b = 0; b < m; ++b) d_vec[b] += n_padded * g0[b];
        }
        for (std::size_t b = 0; b < m; ++b) d_vec[b] *= scale;
      }

      fit.forward_tile(sc.fit_ws, sc.e_tile);
      fit.backward_tile(sc.fit_ws, sc.g_tile.data());
      sc.fit_flops += 4.0 * static_cast<double>(rows) * fit.flops_per_eval();
      for (std::size_t r = 0; r < rows; ++r) atom_energy_[tile_atoms[r]] = sc.e_tile[r];

      // ---- Pass 2, re-walked: dE/ds_j = (1/N_m) <g_D, g'(s_j)> into column
      // 0; the directional columns are written as explicit zeros (g_rmat_
      // is a persistent buffer that is never bulk-zeroed) ------------------
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = tile_atoms[r];
        const double* g_d = sc.g_tile.data() + r * m;
        walk(sc, i);
        for (int ty = 0; ty < cfg.ntypes; ++ty) {
          const std::size_t base = env_.block_begin(i, ty);
          const int limit = env_.count(i, ty);
          const double* cache0 = cache_of(sc, ty);
          for (int k = 0; k < limit; ++k) {
            const std::size_t slot = base + static_cast<std::size_t>(k);
            const double* drow = cache0 + static_cast<std::size_t>(k) * 2 * m + m;
            double acc = 0.0;
#pragma omp simd reduction(+ : acc)
            for (std::size_t b = 0; b < m; ++b) acc += g_d[b] * drow[b];
            double* grow = g_rmat_.data() + slot * 4;
            grow[0] = acc * scale;
            grow[1] = 0.0;
            grow[2] = 0.0;
            grow[3] = 0.0;
          }
        }
      }
    };
    core::for_each_type_tile(atoms.type, cfg.ntypes, chunk_bound(n, tid, T),
                             chunk_bound(n, tid + 1, T), tile);
  };
  team.run(team_size, BodyRef(body));
  std::size_t slots = 0;
  double fit_flops = 0.0;
  for (const ThreadScratch& sc : scratch_) {
    slots += sc.slots_partial;
    fit_flops += sc.fit_flops;
  }
  // Same cost conventions as FusedKernel: two table walks per slot (22 of
  // fused.descriptor's 47 FLOPs per channel), plus the column sum and the
  // pass-2 dot; the fitting net at 4 FLOPs per multiply-add.
  CostRegistry::instance().add("se_r.descriptor",
                               {static_cast<double>(slots) * 25.0 * static_cast<double>(m),
                                static_cast<double>(slots) * 12.0 * static_cast<double>(m) *
                                    sizeof(double),
                                static_cast<double>(slots) * 4.0 * sizeof(double)});
  CostRegistry::instance().add("se_r.fit", {fit_flops, 0.0, 0.0});

  // Ascending atom order: the total's bits do not depend on the thread count.
  md::ForceResult out;
  for (std::size_t i = 0; i < n; ++i) out.energy += atom_energy_[i];
  atoms.zero_forces();
  prod_force_virial(env_, g_rmat_.data(), box, atoms, periodic, atoms.force, out.virial,
                    prod_ws_);
  return out;
}

}  // namespace dp::fused
