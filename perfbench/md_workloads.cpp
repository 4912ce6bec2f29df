// The three MD workloads: copper-serial and copper-mixed run the serial
// md::Simulation driver, water-2rank runs par::run_distributed_md. Each is
// a closed loop (a step starts when the previous one has finished) over a
// fixed-length NVE segment that restarts from the seeded start state.
//
// Why segments: the model weights are untrained, so nothing keeps atoms
// apart. A trajectory left running reaches overlapping atoms (copper after
// ~250 fs, water after ~15 fs at 330 K), where the tables extrapolate and
// E_tot jumps. A time-bounded trajectory would get there sooner on a faster
// program, so every run instead repeats the same segment and does
// the same work per step at any speed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "dp/baseline_model.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "parallel/distributed_md.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using dp::md::Configuration;

constexpr double kTemperature = 330.0;  // K, the paper's initial temperature
constexpr double kSkin = 1.0;           // A, dpmd run's default
constexpr double kInterval = 0.01;      // table node spacing, dpmd's default
/// Copper lattice jitter [A]: a perfect lattice has zero force by symmetry,
/// which would make the force checks vacuous.
constexpr double kCopperJitter = 0.05;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
/// Segment lengths: one rebuild period of the serial driver (50 fs of
/// copper), two of the distributed one (10 fs of water).
constexpr int kSerialSegment = 50;
constexpr int kDistributedSegment = 20;

/// Tolerances of the correctness checks, set from measured runs with a wide
/// margin, and each well below the 1% error the self-test injects.
/// Forces: largest |F - F_ref| over the largest |F_ref|.
constexpr double kTabulationTol = 1e-6;     // fp64 tables vs the untabulated nets
constexpr double kMixedTol = 2e-4;          // fp32 tables vs the untabulated nets
constexpr double kDecompositionTol = 1e-9;  // 2 ranks vs 1, same kernel
/// Largest |E_tot(t) - E_tot(0)| per atom within a segment.
constexpr double kDriftTol = 1e-6;  // eV/atom

/// Forwards to the program's force field, with a span around every
/// compute() in a traced run, and optionally scales the returned forces
/// (the self-test's deliberate defect).
class ObservedForceField final : public dp::md::ForceField {
 public:
  ObservedForceField(std::unique_ptr<dp::md::ForceField> inner, bool perturb)
      : inner_(std::move(inner)), perturb_(perturb) {}

  dp::md::ForceResult compute(const dp::md::Box& box, dp::md::Atoms& atoms,
                              const dp::md::NeighborList& nlist, bool periodic) override {
    ScopedSpan s("md.force");
    const dp::md::ForceResult r = inner_->compute(box, atoms, nlist, periodic);
    if (perturb_)
      for (auto& f : atoms.force) f *= 1.0 + kPerturbation;
    return r;
  }
  double cutoff() const override { return inner_->cutoff(); }
  std::uint64_t extrapolations() const override { return inner_->extrapolations(); }
  std::size_t neighbor_reservation() const override { return inner_->neighbor_reservation(); }

 private:
  std::unique_ptr<dp::md::ForceField> inner_;
  bool perturb_;
};

struct MdSpec {
  bool water = false;
  bool mixed = false;
  int ranks = 1;
  double dt_fs = 1.0;
  double rmin = 1.8;  // A; lower end of the tabulated r range (dpmd's default)
};

MdSpec spec_for(const std::string& workload) {
  if (workload == "copper-serial") return {false, false, 1, 1.0, 1.8};
  if (workload == "copper-mixed") return {false, true, 1, 1.0, 1.8};
  return {true, false, 2, 0.5, 0.8};  // water-2rank
}

/// Model, tables and start configuration, all generated from the seed.
struct Inputs {
  std::unique_ptr<dp::core::DPModel> model;
  std::unique_ptr<dp::tab::TabulatedDP> tab;
  Configuration cfg;
};

Inputs make_inputs(const MdSpec& sp, const Options& opt) {
  Inputs in;
  const auto mc = sp.water ? dp::core::ModelConfig::water() : dp::core::ModelConfig::copper();
  in.model = std::make_unique<dp::core::DPModel>(mc, opt.seed);
  {
    ScopedSpan s("tab.build");
    in.tab = std::make_unique<dp::tab::TabulatedDP>(
        *in.model,
        dp::tab::TabulationSpec{0.0, dp::tab::TabulatedDP::s_max(mc, sp.rmin), kInterval});
  }
  if (sp.water) {
    in.cfg = dp::md::make_water(2, 2, 2, opt.seed);
  } else {
    const int cells = opt.tiny ? 5 : 6;  // 500 or 864 atoms; 5 is the least rc 8 A allows
    in.cfg = dp::md::make_fcc(cells, cells, cells, 3.634, 63.546, kCopperJitter, opt.seed);
  }
  return in;
}

std::unique_ptr<dp::md::ForceField> make_force_field(const MdSpec& sp,
                                                     const dp::tab::TabulatedDP& tab,
                                                     bool perturb) {
  std::unique_ptr<dp::md::ForceField> inner;
  if (sp.mixed)
    inner = std::make_unique<dp::fused::MixedFusedDP>(tab, dp::fused::MixedPrecision::Single);
  else
    inner = std::make_unique<dp::fused::FusedDP>(tab);
  return std::make_unique<ObservedForceField>(std::move(inner), perturb);
}

dp::md::SimulationConfig sim_config(const MdSpec& sp, const Options& opt, int steps) {
  dp::md::SimulationConfig sc;
  sc.dt = sp.dt_fs * 1e-3;
  sc.steps = steps;
  sc.temperature = kTemperature;
  sc.skin = kSkin;
  sc.seed = opt.seed;
  sc.thermo_every = 1;  // a sample (and the distributed on_sample hook) every step
  sc.rebuild_every = sp.ranks > 1 ? 10 : 50;
  return sc;
}

/// What one stretch of the closed loop measured.
struct Phase {
  std::vector<double> step_s;  ///< wall time of each timed step
  int steps = 0;               ///< MD steps advanced
  int force_evals = 0;         ///< global force evaluations, chunk starts included
  double drift = 0.0;          ///< largest |E_tot(t) - E_tot(0)| seen [eV]
  std::vector<dp::par::DistributedRunResult> chunks;
};

/// State of the serial driver; the force field outlives the simulation
/// that references it, the tables outlive both.
struct SerialRun {
  Inputs in;
  std::unique_ptr<dp::md::ForceField> ff;
  std::unique_ptr<dp::md::Simulation> sim;
  Configuration start;  ///< state after set-up, forces included
  double e_start = NAN;
  int segment_step = 0;
};

std::unique_ptr<SerialRun> setup_serial(const MdSpec& sp, const Options& opt) {
  auto run = std::make_unique<SerialRun>();
  run->in = make_inputs(sp, opt);
  run->ff = make_force_field(sp, *run->in.tab, opt.perturb);
  // steps = 1: every Simulation::run() call is one step between two samples.
  run->sim =
      std::make_unique<dp::md::Simulation>(run->in.cfg, *run->ff, sim_config(sp, opt, 1));
  run->start = run->sim->configuration();
  return run;
}

void serial_phase(SerialRun& run, std::int64_t deadline, int min_steps, Phase& ph,
                  Configuration* first_step) {
  while (ph.steps < min_steps || Tracer::now_ns() < deadline) {
    if (run.segment_step == kSerialSegment) {
      // Restart the segment. The driver's displacement check rebuilds the
      // neighbor list if the jump back exceeds half the skin.
      run.sim->configuration() = run.start;
      run.segment_step = 0;
    }
    const std::int64_t t0 = Tracer::now_ns();
    const std::vector<dp::md::ThermoSample>* trace = nullptr;
    {
      ScopedSpan s("md.step");
      trace = &run.sim->run();
    }
    ph.step_s.push_back(seconds_since(t0));
    // Only the very first sample before a step is current: after a restart
    // the driver still holds the previous step's potential energy.
    if (std::isnan(run.e_start)) run.e_start = trace->front().total();
    ph.drift = std::max(ph.drift, std::fabs(trace->back().total() - run.e_start));
    ++run.segment_step;
    ++ph.steps;
    ++ph.force_evals;
    if (first_step != nullptr && first_step->atoms.size() == 0)
      *first_step = run.sim->configuration();
  }
}

/// One run_distributed_md call of `steps` steps from the seeded start
/// state; `step_s` receives the wall time of every step after the first.
dp::par::DistributedRunResult distributed(const MdSpec& sp, const Options& opt,
                                          const Inputs& in, int steps,
                                          std::vector<double>* step_s) {
  dp::par::DistributedOptions o;
  o.gather_state = true;
  std::vector<std::int64_t> stamps;
  stamps.reserve(static_cast<std::size_t>(steps));
  // Called on every rank after each step's sample; rank 0 alone writes, and
  // run_parallel's join orders the write before the read below.
  o.on_sample = [&stamps](int rank, int) {
    if (rank == 0) stamps.push_back(Tracer::now_ns());
  };
  const auto factory = [&] { return make_force_field(sp, *in.tab, opt.perturb); };
  auto r =
      dp::par::run_distributed_md(sp.ranks, in.cfg, factory, sim_config(sp, opt, steps), o);
  // The first step has no start stamp: the driver's set-up precedes it.
  if (step_s != nullptr)
    for (std::size_t i = 1; i < stamps.size(); ++i)
      step_s->push_back((stamps[i] - stamps[i - 1]) * 1e-9);
  return r;
}

void distributed_phase(const MdSpec& sp, const Options& opt, const Inputs& in,
                       std::int64_t deadline, Phase& ph) {
  do {
    auto r = distributed(sp, opt, in, kDistributedSegment, &ph.step_s);
    ph.steps += kDistributedSegment;
    ph.force_evals += kDistributedSegment + 1;
    for (const auto& s : r.thermo)
      ph.drift = std::max(ph.drift, std::fabs(s.total() - r.thermo.front().total()));
    ph.chunks.push_back(std::move(r));
  } while (!opt.tiny && Tracer::now_ns() < deadline);
}

/// Forces of `cfg` from a fresh evaluation by `ff` (periodic, serial).
std::vector<dp::Vec3> reference_forces(dp::md::ForceField& ff, const Configuration& cfg) {
  dp::md::NeighborList nl(ff.cutoff(), kSkin);
  nl.build(cfg.box, cfg.atoms.pos);
  dp::md::Atoms atoms = cfg.atoms;
  ff.compute(cfg.box, atoms, nl, true);
  return atoms.force;
}

/// Largest |F - F_ref| over all atoms, divided by the largest |F_ref|.
double max_force_error(const std::vector<dp::Vec3>& f, const std::vector<dp::Vec3>& ref) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, norm(f[i] - ref[i]));
    scale = std::max(scale, norm(ref[i]));
  }
  return scale > 0.0 ? err / scale : err;
}

void check_forces(Report& rep, const std::string& name, const std::vector<dp::Vec3>& f,
                  const std::vector<dp::Vec3>& ref, double tol) {
  const double err = max_force_error(f, ref);
  char buf[160];
  std::snprintf(buf, sizeof buf, "max |dF| / max |F_ref| = %.3g, tolerance %.3g", err, tol);
  rep.check(name, err <= tol, buf);
}

void check_drift(Report& rep, const Phase& a, const Phase& b, std::size_t natoms, int segment) {
  const double drift = std::max(a.drift, b.drift) / static_cast<double>(natoms);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "max |E_tot(t) - E_tot(0)| / N = %.3g eV/atom in %d-step segments, bound %.3g",
                drift, segment, kDriftTol);
  rep.check("nve_energy_drift", std::isfinite(drift) && drift <= kDriftTol, buf);
}

void report_timed(const MdSpec& sp, const Phase& ph, std::size_t natoms,
                  const std::vector<double>& setups, double rss, Report& rep) {
  const double n = static_cast<double>(natoms);
  const std::size_t k = ph.step_s.size();
  const double rate = static_cast<double>(k) / sum(ph.step_s);
  rep.end_to_end("us_per_step_atom_p50", quantile(ph.step_s, 0.5) / n * 1e6, k);
  rep.info("us_per_step_atom_p90", quantile(ph.step_s, 0.9) / n * 1e6, "us", k);
  rep.info("steps_per_s", rate, "1/s", k);
  rep.info("ns_per_day", rate * sp.dt_fs * 1e-6 * 86400.0, "ns/day", k);
  rep.end_to_end("setup_s", median(setups), setups.size());
  rep.end_to_end("peak_rss_mib", rss, 1);
}

void report_distributed_layers(const Phase& ph, const dp::par::DistributedRunResult& setup_run,
                               Report& rep) {
  double wait = 0, hidden = 0, messages = 0, bytes = 0, rebuilds = 0, early = 0, imbalance = 0;
  std::size_t ghosts = 0;
  for (const auto& r : ph.chunks) {
    wait += r.halo_wait_seconds;
    hidden += r.halo_hidden_seconds;
    // A zero-step run carries the same set-up and gather traffic as every
    // chunk; what is left is the traffic of the steps themselves.
    messages += static_cast<double>(r.comm.messages - setup_run.comm.messages);
    bytes += static_cast<double>(r.comm.bytes - setup_run.comm.bytes);
    rebuilds += static_cast<double>(r.neighbor_rebuilds);
    early += static_cast<double>(r.early_rebuilds);
    ghosts = std::max(ghosts, r.max_ghost_atoms);
    imbalance = std::max(imbalance, r.load_imbalance);
  }
  const double steps = ph.steps;
  const std::size_t k = ph.chunks.size();
  rep.layer("par.halo.wait_s_per_step", wait / steps, k);
  rep.layer("par.halo.hidden_s_per_step", hidden / steps, k);
  rep.layer("par.halo.overlap_ratio", hidden + wait > 0 ? hidden / (hidden + wait) : 0.0, k);
  rep.layer("par.comm.messages_per_step", messages / steps, k);
  rep.layer("par.comm.kib_per_step", bytes / steps / 1024.0, k);
  rep.layer("par.ghosts_max", static_cast<double>(ghosts), k);
  rep.layer("par.load_imbalance", imbalance, k);
  rep.layer("par.early_rebuilds", early / steps * 100.0, k);
  rep.layer("md.neighbor.builds", rebuilds / steps * 100.0, k);
}

}  // namespace

void run_md(const Options& opt, Report& rep) {
  const MdSpec sp = spec_for(opt.workload);
  if (opt.trace) Tracer::enable(opt.seed);
  const std::int64_t t_start = Tracer::now_ns();
  const std::int64_t mid = t_start + static_cast<std::int64_t>(opt.seconds * 0.5e9);
  const std::int64_t end = t_start + static_cast<std::int64_t>(opt.seconds * 1e9);

  std::vector<double> setups;
  double rss = 0.0;
  std::unique_ptr<SerialRun> serial;
  Inputs dist;  // inputs of the distributed workload
  dp::par::DistributedRunResult setup_run;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = Tracer::now_ns();
    if (sp.ranks == 1) {
      serial = setup_serial(sp, opt);
    } else {
      dist = make_inputs(sp, opt);
      // A zero-step run is exactly the driver's set-up: decomposition,
      // ghost exchange, first neighbor build and first force evaluation.
      setup_run = distributed(sp, opt, dist, 0, nullptr);
    }
    setups.push_back(seconds_since(t0));
    // The first set-up has allocated everything a step uses (its force
    // evaluation sized the workspaces). Later set-ups and segments repeat
    // those allocations on fresh threads, whose malloc arenas only add
    // noise to the peak.
    if (i == 0) rss = peak_rss_mib();
  }
  const Inputs& in = serial ? serial->in : dist;
  const std::size_t natoms = in.cfg.atoms.size();
  const auto extrapolations = [&] {
    return serial ? serial->ff->extrapolations() : in.tab->extrapolations();
  };
  dp::obs::Counter& rebuilds =
      dp::obs::MetricsRegistry::instance().counter("md.neighbor_rebuilds");
  const std::uint64_t rebuilds_before = rebuilds.value();

  // Timed loop; a traced run splits it into an untraced and a traced half
  // so that the tracing overhead is measured in the same process.
  Phase a, b;
  Configuration first;  // serial: state after the first timed step
  if (opt.trace) Tracer::disable();
  const int min_steps = opt.tiny ? 3 : 10;
  if (serial)
    serial_phase(*serial, opt.trace ? mid : end, min_steps, a, &first);
  else
    distributed_phase(sp, opt, in, opt.trace ? mid : end, a);
  SpanTotal force_traced;
  std::uint64_t extrap_traced = 0;
  if (opt.trace) {
    const SpanTotal force_mid = span_total("md.force");
    const std::uint64_t extrap_mid = extrapolations();
    Tracer::enable(opt.seed);
    if (serial)
      serial_phase(*serial, end, min_steps, b, nullptr);
    else
      distributed_phase(sp, opt, in, end, b);
    const SpanTotal force_after = span_total("md.force");
    force_traced.total_s = force_after.total_s - force_mid.total_s;
    force_traced.count = force_after.count - force_mid.count;
    extrap_traced = extrapolations() - extrap_mid;
  }

  // ---- correctness
  Configuration last_gathered;
  if (!serial) {
    // The first timed step of the distributed driver, gathered.
    const auto r = distributed(sp, opt, in, 1, nullptr);
    first = in.cfg;
    first.atoms.pos = r.final_pos;
    first.atoms.force = r.final_force;
    const auto& last = (b.chunks.empty() ? a : b).chunks.back();
    last_gathered = in.cfg;
    last_gathered.atoms.pos = last.final_pos;
    last_gathered.atoms.force = last.final_force;
  }
  dp::core::BaselineDP baseline(*in.model);
  check_forces(rep, "forces_vs_untabulated_baseline", first.atoms.force,
               reference_forces(baseline, first), sp.mixed ? kMixedTol : kTabulationTol);
  if (!serial) {
    dp::fused::FusedDP fused(*in.tab);
    check_forces(rep, "gathered_forces_vs_serial_fused", last_gathered.atoms.force,
                 reference_forces(fused, last_gathered), kDecompositionTol);
  }
  const int segment = serial ? kSerialSegment : kDistributedSegment;
  check_drift(rep, a, b, natoms, segment);

  // ---- stamp and metrics
  rep.stamp("workload", opt.workload);
  rep.stamp("ranks", sp.ranks);
  rep.stamp("atoms", static_cast<double>(natoms));
  rep.stamp("dt_fs", sp.dt_fs);
  rep.stamp("segment_steps", segment);
  rep.stamp("path", sp.mixed ? "mixed-single" : "fused-fp64");
  rep.stamp("steps", a.steps + b.steps);
  report_timed(sp, a, natoms, setups, rss, rep);
  if (!opt.trace) return;

  const double evals = static_cast<double>(b.force_evals);
  rep.layer("md.force.ms_per_eval", force_traced.total_s / evals / sp.ranks * 1e3,
            force_traced.count);
  const SpanTotal tab_build = span_total("tab.build");
  rep.layer("tab.build_s", tab_build.mean_s, tab_build.count);
  rep.layer("tab.extrapolations_per_eval", static_cast<double>(extrap_traced) / evals,
            static_cast<std::size_t>(evals));
  rep.layer("trace.overhead_frac", median(b.step_s) / median(a.step_s) - 1.0, b.step_s.size());
  if (serial) {
    // Rebuild counts do not depend on tracing: count both halves.
    const int steps = a.steps + b.steps;
    rep.layer("md.neighbor.builds",
              static_cast<double>(rebuilds.value() - rebuilds_before) / steps * 100.0,
              static_cast<std::size_t>(steps));
    for (const char* name :
         {"par.halo.wait_s_per_step", "par.halo.hidden_s_per_step", "par.halo.overlap_ratio",
          "par.comm.messages_per_step", "par.comm.kib_per_step", "par.ghosts_max",
          "par.load_imbalance", "par.early_rebuilds", "par.allreduce.us"})
      rep.unreached(name, "serial driver");
  } else {
    report_distributed_layers(b, setup_run, rep);
    probe_allreduce(sp.ranks, 2, rep);  // the driver's per-step thermo reduction
  }
  rep.unreached("train.grad.ms_per_frame", "MD workload");
  rep.unreached("train.comm.kib_per_epoch", "MD workload");

  ProbeInput probe;
  probe.model = in.model.get();
  probe.tab = in.tab.get();
  probe.mixed = sp.mixed;
  probe.cfg = serial ? serial->start : first;
  probe.skin = kSkin;
  probe.dt_ps = sp.dt_fs * 1e-3;
  probe.seed = opt.seed;
  probe.reps = opt.tiny ? 1 : 5;
  probe_layers(probe, rep);
}

}  // namespace perfbench
