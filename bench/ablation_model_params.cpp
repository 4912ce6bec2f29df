// Design-choice ablations not tied to one paper figure (DESIGN.md Sec 6):
//   (a) embedding width d1 — the paper's FLOP formulas predict baseline cost
//       ~ d1^2 but tabulated cost ~ d1 (M = 4 d1), so the tabulation payoff
//       grows with the net;
//   (b) axis_neuron M< — descriptor/fitting cost vs accuracy knob;
//   (c) neighbor-list rebuild period — the paper rebuilds every 50 steps
//       with a 2 A skin; this sweeps the cost-safety tradeoff.
#include <cstdio>

#include "bench_util.hpp"
#include "fused/se_r_model.hpp"
#include "dp/baseline_model.hpp"
#include "md/simulation.hpp"

using namespace dpbench;

namespace {

void sweep_d1() {
  std::printf("(a) embedding width d1 (copper cluster, M = 4 d1)\n");
  std::printf("%6s %18s %18s %10s\n", "d1", "baseline us/atom", "fused us/atom", "ratio");
  print_rule(58);
  for (std::size_t d1 : {8u, 16u, 32u}) {
    dp::core::ModelConfig cfg = dp::core::ModelConfig::copper();
    cfg.embed_widths = {d1, 2 * d1, 4 * d1};
    cfg.axis_neuron = 8;
    cfg.fit_widths = {64, 64, 64};
    auto block = dp::md::make_fcc(3, 3, 3, 3.634, 63.546, 0.08, 5);
    dp::md::Configuration cluster;
    cluster.box = dp::md::Box(200, 200, 200);
    cluster.atoms = block.atoms;
    for (auto& r : cluster.atoms.pos) r += dp::Vec3{80, 80, 80};
    Workload w(cfg, 9, 0.01, 1.8, std::move(cluster), 1.0, false);
    const auto n = static_cast<double>(w.sys.atoms.size());

    dp::core::BaselineDP base(w.model);
    dp::fused::FusedDP fused(w.tabulated);
    const double tb = time_force_eval(base, w);
    const double tf = time_force_eval(fused, w);
    std::printf("%6zu %18.3f %18.3f %9.2fx\n", d1, tb / n * 1e6, tf / n * 1e6, tb / tf);
  }
  std::printf("expected: the baseline grows ~d1^2, the fused path ~d1 — the speedup\n"
              "ratio widens with the net, as the paper's (1+10 d1)/56 analysis says.\n\n");
}

void sweep_axis_neuron() {
  std::printf("(b) axis neurons M< (descriptor dim = M< x M)\n");
  std::printf("%6s %14s %16s\n", "M<", "descr. dim", "fused us/atom");
  print_rule(42);
  for (std::size_t ms : {4u, 8u, 16u, 32u}) {
    dp::core::ModelConfig cfg = dp::core::ModelConfig::copper();
    cfg.embed_widths = {16, 32, 64};
    cfg.axis_neuron = ms;
    cfg.fit_widths = {64, 64, 64};
    auto block = dp::md::make_fcc(3, 3, 3, 3.634, 63.546, 0.08, 5);
    dp::md::Configuration cluster;
    cluster.box = dp::md::Box(200, 200, 200);
    cluster.atoms = block.atoms;
    for (auto& r : cluster.atoms.pos) r += dp::Vec3{80, 80, 80};
    Workload w(cfg, 9, 0.01, 1.8, std::move(cluster), 1.0, false);
    dp::fused::FusedDP fused(w.tabulated);
    const double tf = time_force_eval(fused, w);
    std::printf("%6zu %14zu %16.3f\n", ms, cfg.descriptor_dim(),
                tf / static_cast<double>(w.sys.atoms.size()) * 1e6);
  }
  std::printf("expected: cost grows with M< through the fitting net's input layer;\n"
              "the paper fixes M< = 16 for both systems.\n\n");
}

void sweep_rebuild() {
  std::printf("(c) neighbor-list rebuild period (copper MD, 2 A skin)\n");
  std::printf("%10s %16s %14s\n", "period", "us/step/atom", "drift [eV]");
  print_rule(44);
  dp::core::ModelConfig cfg = dp::core::ModelConfig::tiny();
  cfg.rcut = 4.0;
  dp::core::DPModel model(cfg, 3);
  dp::tab::TabulatedDP tab(model, {0.0, dp::tab::TabulatedDP::s_max(cfg, 0.9), 0.01});
  for (int period : {1, 5, 25, 50}) {
    dp::fused::FusedDP ff(tab);
    auto sys = dp::md::make_fcc(5, 5, 5, 3.634, 63.546, 0.02, 4);
    dp::md::SimulationConfig sc;
    sc.dt = 0.001;
    sc.steps = 50;
    sc.temperature = 300.0;
    sc.skin = 2.0;
    sc.rebuild_every = period;
    sc.thermo_every = 50;
    dp::md::Simulation md(sys, ff, sc);
    dp::WallTimer t;
    const auto& trace = md.run();
    const double us = t.seconds() / md.force_evaluations() /
                      static_cast<double>(sys.atoms.size()) * 1e6;
    std::printf("%10d %16.3f %14.2e\n", period, us,
                trace.back().total() - trace.front().total());
  }
  std::printf("expected: rebuilding less often amortizes the list cost with no drift\n"
              "penalty while the skin/2 criterion holds — the paper settles on 50.\n");
}

}  // namespace

void sweep_descriptor() {
  std::printf("\n(d) descriptor flavor: se_a (paper) vs radial se_r\n");
  std::printf("%8s %14s %16s\n", "kind", "descr. dim", "us/step/atom");
  print_rule(42);
  for (int kind = 0; kind < 2; ++kind) {
    dp::core::ModelConfig cfg = dp::core::ModelConfig::copper();
    cfg.embed_widths = {16, 32, 64};
    cfg.axis_neuron = 8;
    cfg.fit_widths = {64, 64, 64};
    if (kind == 1) cfg.descriptor = dp::core::DescriptorKind::SeR;
    auto block = dp::md::make_fcc(3, 3, 3, 3.634, 63.546, 0.08, 5);
    dp::md::Configuration cluster;
    cluster.box = dp::md::Box(200, 200, 200);
    cluster.atoms = block.atoms;
    for (auto& r : cluster.atoms.pos) r += dp::Vec3{80, 80, 80};
    Workload w(cfg, 9, 0.01, 1.8, std::move(cluster), 1.0, false);
    double t;
    if (kind == 0) {
      dp::fused::FusedDP ff(w.tabulated);
      t = time_force_eval(ff, w);
    } else {
      dp::fused::SeRFusedDP ff(w.tabulated);
      t = time_force_eval(ff, w);
    }
    std::printf("%8s %14zu %16.3f\n", kind == 0 ? "se_a" : "se_r", cfg.descriptor_dim(),
                t / static_cast<double>(w.sys.atoms.size()) * 1e6);
  }
  std::printf("expected: se_r skips the 4-column contraction and shrinks the fitting\n"
              "input M< x M -> M; DeePMD trades its expressiveness for this speed.\n");
}

int main() {
  std::printf("Model / protocol ablations (DESIGN.md Sec 6)\n\n");
  sweep_d1();
  sweep_axis_neuron();
  sweep_rebuild();
  sweep_descriptor();
  return 0;
}
