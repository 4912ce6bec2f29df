#include "probes.hpp"

#include <omp.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/team.hpp"
#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "nn/gemm.hpp"
#include "parallel/minimpi.hpp"
#include "tab/table_sp.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using dp::md::Atoms;

constexpr double kMiB = 1024.0 * 1024.0;
/// Rows of the GEMM probe: the atom tile a batched fitting net would use.
constexpr std::size_t kGemmTile = 64;

volatile double g_sink = 0.0;  // keeps every probe's result observable

/// One filled environment slot: which embedding table serves it and its s.
struct Slot {
  std::size_t table;
  double s;
};

std::vector<Slot> filled_slots(const dp::core::DPModel& model, const dp::core::EnvMat& env,
                               const Atoms& atoms) {
  std::vector<Slot> out;
  out.reserve(env.filled_slots());
  for (std::size_t i = 0; i < env.n_atoms; ++i) {
    for (int t = 0; t < env.ntypes; ++t) {
      const std::size_t table = model.pair_index(atoms.type[i], t);
      const std::size_t begin = env.block_begin(i, t);
      for (int k = 0; k < env.count(i, t); ++k)
        out.push_back({table, env.rmat_at(begin + static_cast<std::size_t>(k))[0]});
    }
  }
  return out;
}

/// Runs body(t, begin, end) over contiguous chunks of [0, n) on the
/// program's own thread team (dp::BuildTeam, sized like its kernels by
/// OpenMP's thread count), and returns the sum of the bodies' results.
template <class Body>
double team_sum(std::size_t n, Body&& body) {
  const int team = std::max(1, omp_get_max_threads());
  std::vector<double> partial(static_cast<std::size_t>(team), 0.0);
  // Each participant writes only its own slot; run() returns after every
  // participant has checked in under the team mutex, which orders the
  // writes before the sum below.
  auto job = [&](int t, int nt) {
    partial[static_cast<std::size_t>(t)] =
        body(t, dp::chunk_bound(n, t, nt), dp::chunk_bound(n, t + 1, nt));
  };
  dp::BuildTeam::team().run(team, dp::BodyRef(job));
  return sum(partial);
}

template <class Table, class Real>
double walk(const std::vector<Table>& tables, const std::vector<Slot>& slots, std::size_t m) {
  return team_sum(slots.size(), [&](int, std::size_t begin, std::size_t end) {
    std::vector<Real> g(m), dg(m);
    double acc = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      tables[slots[k].table]->eval_with_deriv(static_cast<Real>(slots[k].s), g.data(),
                                              dg.data());
      acc += static_cast<double>(g[0] + dg[m - 1]);
    }
    return acc;
  });
}

/// The fused path's stages as standalone public calls, one round each:
/// env-mat, two table walks (FusedDP walks every slot in pass 1 and again
/// in pass 2), descriptor forward + backward, fitting forward + backward,
/// prod-force. Random A, descriptor and gradient inputs stand in for the
/// intermediate values, which do not change the work done.
struct StageProbe {
  const ProbeInput& in;
  const dp::core::ModelConfig& mc = in.model->config();
  dp::md::NeighborList nl{mc.rcut, in.skin};
  dp::core::EnvMat env;
  dp::core::EnvMatWorkspace env_ws;
  dp::core::ProdForceWorkspace pf_ws;
  std::vector<Slot> slots;
  std::vector<const dp::tab::TabulatedEmbedding*> tables;
  std::vector<std::unique_ptr<dp::tab::TabulatedEmbeddingSP>> sp_owned;
  std::vector<const dp::tab::TabulatedEmbeddingSP*> tables_sp;
  dp::AlignedVector<double> g_rmat;
  std::vector<dp::Vec3> forces;

  explicit StageProbe(const ProbeInput& p) : in(p) {
    nl.build(in.cfg.box, in.cfg.atoms.pos);
    dp::core::build_env_mat(mc, in.cfg.box, in.cfg.atoms, nl, env, env_ws);
    if (in.tab != nullptr) {
      slots = filled_slots(*in.model, env, in.cfg.atoms);
      for (int c = 0; c < mc.ntypes; ++c)
        for (int t = 0; t < mc.ntypes; ++t) {
          const std::size_t idx = in.model->pair_index(c, t);
          if (idx >= tables.size()) {
            tables.resize(idx + 1);
            tables_sp.resize(idx + 1);
          }
          tables[idx] = &in.tab->table_pair(c, t);
          if (in.mixed && tables_sp[idx] == nullptr) {
            sp_owned.push_back(std::make_unique<dp::tab::TabulatedEmbeddingSP>(*tables[idx]));
            tables_sp[idx] = sp_owned.back().get();
          }
        }
    }
    dp::Rng rng(in.seed ^ 0x5eedULL);
    g_rmat.resize(env.stored_slots() * 4);
    for (double& g : g_rmat) g = rng.uniform(-1e-3, 1e-3);
    forces.resize(in.cfg.atoms.size());
  }

  void env_mat() {
    ScopedSpan s("dp.env_mat");
    dp::core::build_env_mat(mc, in.cfg.box, in.cfg.atoms, nl, env, env_ws);
  }

  void table_walk() {
    ScopedSpan s("tab.walk");
    using SP = const dp::tab::TabulatedEmbeddingSP*;
    using DP = const dp::tab::TabulatedEmbedding*;
    g_sink = in.mixed ? walk<SP, float>(tables_sp, slots, mc.m())
                      : walk<DP, double>(tables, slots, mc.m());
  }

  void descriptor() {
    const std::size_t m = mc.m(), msub = mc.axis_neuron;
    ScopedSpan s("dp.descriptor");
    g_sink = team_sum(in.cfg.atoms.size(), [&](int t, std::size_t begin, std::size_t end) {
      dp::Rng rng(in.seed + static_cast<std::uint64_t>(t));
      std::vector<double> a(4 * m), d(msub * m), gd(msub * m), ga(4 * m);
      for (double& x : a) x = rng.uniform(-0.1, 0.1);
      for (double& x : gd) x = rng.uniform(-0.1, 0.1);
      double acc = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        dp::core::descriptor_forward(a.data(), m, msub, d.data());
        dp::core::descriptor_backward(a.data(), gd.data(), m, msub, ga.data());
        acc += d[0] + ga[0];
      }
      return acc;
    });
  }

  /// Returns the flops of one forward + backward pass over every atom.
  double fit() {
    const std::size_t dim = mc.descriptor_dim();
    const auto& types = in.cfg.atoms.type;
    {
      ScopedSpan s("nn.fit");
      g_sink = team_sum(types.size(), [&](int t, std::size_t begin, std::size_t end) {
        dp::Rng rng(in.seed + 17 + static_cast<std::uint64_t>(t));
        std::vector<double> d(dim), gd(dim);
        for (double& x : d) x = rng.uniform(-0.1, 0.1);
        dp::nn::FittingNet::Workspace ws;
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto& net = in.model->fitting(types[i]);
          acc += net.forward(d.data(), ws);
          net.backward(ws, gd.data());
          acc += gd[0];
        }
        return acc;
      });
    }
    double flops = 0.0;
    for (int t : types) flops += 4.0 * in.model->fitting(t).flops_per_eval();
    return flops;
  }

  void prod_force() {
    dp::Mat3 virial{};
    ScopedSpan s("dp.prod_force");
    dp::core::prod_force_virial(env, g_rmat.data(), in.cfg.box, in.cfg.atoms, true, forces,
                                virial, pf_ws);
    g_sink = forces[0].x + virial.trace();
  }
};

void probe_neighbor_and_integrate(const ProbeInput& in, Report& rep) {
  dp::md::NeighborList nl(in.model->config().rcut, in.skin);
  for (int r = 0; r < in.reps; ++r) {
    ScopedSpan s("md.neighbor.build");
    nl.build(in.cfg.box, in.cfg.atoms.pos);
  }
  const SpanTotal nb = span_total("md.neighbor.build");
  rep.layer("md.neighbor.ms_per_build", nb.mean_s * 1e3, nb.count);

  Atoms atoms = in.cfg.atoms;
  constexpr int kIntegrateReps = 50;
  for (int r = 0; r < kIntegrateReps; ++r) {
    ScopedSpan s("md.integrate");
    dp::md::verlet_first_half(atoms, in.cfg.box, in.dt_ps);
    dp::md::verlet_second_half(atoms, in.dt_ps);
  }
  const SpanTotal it = span_total("md.integrate");
  rep.layer("md.integrate.us_per_step", it.mean_s * 1e6, it.count);
}

/// The whole force evaluation of the workload's path, called standalone.
void probe_force(const ProbeInput& in, Report& rep, std::size_t filled) {
  std::unique_ptr<dp::md::ForceField> ff;
  dp::fused::FusedDP* fused = nullptr;
  if (in.mixed) {
    ff = std::make_unique<dp::fused::MixedFusedDP>(*in.tab, dp::fused::MixedPrecision::Single);
  } else {
    auto f = std::make_unique<dp::fused::FusedDP>(*in.tab);
    fused = f.get();
    ff = std::move(f);
  }
  dp::md::NeighborList nl(ff->cutoff(), in.skin);
  nl.build(in.cfg.box, in.cfg.atoms.pos);
  Atoms atoms = in.cfg.atoms;
  ff->compute(in.cfg.box, atoms, nl, true);  // sizes the workspaces
  for (int r = 0; r < in.reps; ++r) {
    ScopedSpan s("fused.compute");
    g_sink = ff->compute(in.cfg.box, atoms, nl, true).energy;
  }
  const SpanTotal fc = span_total("fused.compute");
  const double n = static_cast<double>(atoms.size());
  rep.layer("fused.compute.ms_per_eval", fc.mean_s * 1e3, fc.count);
  if (fused != nullptr) {
    rep.layer("fused.slots_per_atom", static_cast<double>(fused->slots_processed()) / n, 1);
    rep.layer("fused.workspace_mib", static_cast<double>(fused->workspace_bytes()) / kMiB, 1);
    rep.layer("tab.table_mib", static_cast<double>(in.tab->total_bytes()) / kMiB, 1);
  } else {
    const auto& mixed = static_cast<const dp::fused::MixedFusedDP&>(*ff);
    // MixedFusedDP keeps no slot counter; the filled-slot count of the same
    // environment is the same number.
    rep.layer("fused.slots_per_atom", static_cast<double>(filled) / n, 1);
    rep.unreached("fused.workspace_mib", "MixedFusedDP exposes no workspace_bytes()");
    rep.layer("tab.table_mib", static_cast<double>(mixed.table_bytes()) / kMiB, 1);
  }
}

void probe_gemm(const ProbeInput& in, Report& rep) {
  const auto& layers = in.model->fitting(0).layers();
  const std::size_t k = layers.front().in_dim(), n = layers.front().out_dim();
  dp::Rng rng(in.seed ^ 0x6e33ULL);
  std::vector<double> a(kGemmTile * k), b(k * n), c(kGemmTile * n);
  for (double& x : a) x = rng.uniform(-0.1, 0.1);
  for (double& x : b) x = rng.uniform(-0.1, 0.1);
  const std::int64_t t0 = Tracer::now_ns();
  do {
    ScopedSpan s("nn.gemm");
    dp::nn::gemm(a.data(), b.data(), c.data(), kGemmTile, k, n);
    g_sink = c[0];
  } while (seconds_since(t0) < 0.1 * in.reps / 5.0);
  const SpanTotal g = span_total("nn.gemm");
  const double flops = 2.0 * static_cast<double>(kGemmTile * k * n);
  rep.layer("nn.gemm.gflops_fit_shape", flops / g.mean_s * 1e-9, g.count);
}

}  // namespace

SpanTotal span_total(const char* name) {
  const auto all = Tracer::summarize();
  const auto it = all.find(name);
  if (it == all.end() || it->second.count == 0) return {};
  const double n = static_cast<double>(it->second.count);
  return {it->second.total_s / n, it->second.total_s, it->second.count, it->second.self_s / n};
}

void probe_layers(const ProbeInput& in, Report& rep) {
  probe_neighbor_and_integrate(in, rep);
  StageProbe st(in);
  const double n = static_cast<double>(in.cfg.atoms.size());
  double fit_flops = 0.0;
  // Round 0 is an untraced warm-up: first-touch of every buffer and table.
  for (int r = -1; r < in.reps; ++r) {
    if (r == -1) Tracer::disable();
    if (r == 0) Tracer::enable(in.seed);
    st.env_mat();
    if (in.tab != nullptr) {
      st.table_walk();
      st.table_walk();
    }
    st.descriptor();
    fit_flops = st.fit();
    st.prod_force();
  }
  const SpanTotal env = span_total("dp.env_mat"), desc = span_total("dp.descriptor"),
                  fit = span_total("nn.fit"), pf = span_total("dp.prod_force");
  rep.layer("dp.env_mat.ms_per_eval", env.mean_s * 1e3, env.count);
  rep.layer("dp.descriptor.us_per_atom", desc.mean_s / n * 1e6, desc.count);
  rep.layer("dp.prod_force.ms_per_eval", pf.mean_s * 1e3, pf.count);
  rep.layer("nn.fit.us_per_atom", fit.mean_s / n * 1e6, fit.count);
  rep.layer("nn.fit.gflops", fit_flops / fit.mean_s * 1e-9, fit.count);
  probe_gemm(in, rep);

  if (in.tab == nullptr) {
    for (const char* name : {"fused.compute.ms_per_eval", "fused.slots_per_atom",
                             "fused.workspace_mib", "tab.walk.ns_per_slot", "tab.table_mib"})
      rep.unreached(name, "training evaluates the untabulated nets");
    rep.unreached("trace.coverage", "no fused force evaluation in training");
    return;
  }
  const SpanTotal walk = span_total("tab.walk");
  const double slots = static_cast<double>(std::max<std::size_t>(st.slots.size(), 1));
  rep.layer("tab.walk.ns_per_slot", walk.mean_s / slots * 1e9, walk.count);
  probe_force(in, rep, st.slots.size());
  const SpanTotal force = span_total("fused.compute");
  const double stages = env.mean_self_s + 2.0 * walk.mean_self_s + desc.mean_self_s +
                        fit.mean_self_s + pf.mean_self_s;
  rep.layer("trace.coverage", stages / force.mean_s, force.count);
}

void probe_allreduce(int ranks, std::size_t n, Report& rep) {
  constexpr int kWarmup = 20, kReps = 400;
  dp::par::run_parallel(ranks, [&](dp::par::Communicator& comm) {
    const std::vector<double> x(n, 1.0 + comm.rank());
    double acc = 0.0;
    for (int i = 0; i < kWarmup; ++i) acc += comm.allreduce_sum(x)[0];
    comm.barrier();
    for (int i = 0; i < kReps; ++i) {
      std::optional<ScopedSpan> s;
      if (comm.rank() == 0) s.emplace("par.allreduce");
      acc += comm.allreduce_sum(x)[0];
    }
    if (comm.rank() == 0) g_sink = acc;  // one writer; the join orders it
  });
  const SpanTotal ar = span_total("par.allreduce");
  rep.layer("par.allreduce.us", ar.mean_s * 1e6, ar.count);
}

}  // namespace perfbench
