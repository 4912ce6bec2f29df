// Precision ablation — the paper's future-work direction (Sec 7) and the
// counterpart of its Table 1 mixed-precision baseline rows: the fused
// kernel in double vs mixed (single-precision embedding work, double
// reductions). Reports speed, table memory, and the accuracy cost, and
// emits BENCH_mixed.json for the bench-regression gate (one "mixed" event
// per system keyed by atom count; see tools/bench_compare.py).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/simd.hpp"
#include "fused/mixed_model.hpp"
#include "obs/metrics.hpp"

using namespace dpbench;

namespace {

void run_system(const char* label, Workload& w, dp::obs::MetricsRegistry& reg) {
  const std::size_t n = w.sys.atoms.size();
  dp::fused::FusedDP fused(w.tabulated);
  dp::fused::MixedFusedDP mixed(w.tabulated, dp::fused::MixedPrecision::Single);
  dp::fused::MixedFusedDP half(w.tabulated, dp::fused::MixedPrecision::Half);

  dp::md::Atoms atoms_d = w.sys.atoms;
  const double e_d = fused.compute(w.sys.box, atoms_d, w.nlist, w.periodic).energy;

  auto accuracy = [&](dp::md::ForceField& ff, double& e_err, double& f_rmse) {
    dp::md::Atoms atoms = w.sys.atoms;
    const double e = ff.compute(w.sys.box, atoms, w.nlist, w.periodic).energy;
    e_err = std::abs(e_d - e) / static_cast<double>(n);
    f_rmse = 0;
    for (std::size_t i = 0; i < n; ++i) f_rmse += norm2(atoms_d.force[i] - atoms.force[i]);
    f_rmse = std::sqrt(f_rmse / (3.0 * static_cast<double>(n)));
  };
  double e_m, f_m, e_h, f_h;
  accuracy(mixed, e_m, f_m);
  accuracy(half, e_h, f_h);

  const double t_d = time_force_eval(fused, w);
  const double t_m = time_force_eval(mixed, w);
  const double t_h = time_force_eval(half, w);

  const double bytes_d = static_cast<double>(w.tabulated.total_bytes());
  const double bytes_m = static_cast<double>(mixed.table_bytes());
  const double bytes_h = static_cast<double>(half.table_bytes());

  // Coefficient traffic per force call: every neighbor pair walks one
  // 6-coefficient channel row per embedding output, in the table's element
  // width. Structural (neighbor list and model are deterministic), so the
  // per-step byte saving of the narrow tables is gated, not just the
  // resident table size.
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) pairs += w.nlist.neighbors(i).size();
  const std::size_t m = w.tabulated.model().config().m();
  const double coeff_reads = static_cast<double>(pairs * m * 6);

  std::printf("\n%s (%zu atoms)\n", label, n);
  std::printf("%-26s %14s %14s %14s\n", "", "double", "mixed-single", "mixed-half");
  print_rule(74);
  std::printf("%-26s %14.3f %14.3f %14.3f\n", "us/step/atom", t_d / n * 1e6, t_m / n * 1e6,
              t_h / n * 1e6);
  std::printf("%-26s %11.1f KB %11.1f KB %11.1f KB\n", "table memory", bytes_d / 1024.0,
              bytes_m / 1024.0, bytes_h / 1024.0);
  std::printf("%-26s %11.1f MB %11.1f MB %11.1f MB\n", "table bytes/step",
              coeff_reads * 8 / 1048576.0, coeff_reads * 4 / 1048576.0,
              coeff_reads * 2 / 1048576.0);
  std::printf("%-26s %14s %14.2e %14.2e\n", "energy err [eV/atom]", "0", e_m, e_h);
  std::printf("%-26s %14s %14.2e %14.2e\n", "force RMSE [eV/A]", "0", f_m, f_h);

  reg.record_event("mixed", {
                                {"atoms", static_cast<double>(n)},
                                {"table_bytes_double", bytes_d},
                                {"table_bytes_single", bytes_m},
                                {"table_bytes_half", bytes_h},
                                {"single_bytes_ratio", bytes_m / bytes_d},
                                {"half_bytes_ratio", bytes_h / bytes_d},
                                {"step_bytes_double", coeff_reads * 8},
                                {"step_bytes_single", coeff_reads * 4},
                                {"step_bytes_half", coeff_reads * 2},
                                {"double_seconds", t_d},
                                {"single_seconds", t_m},
                                {"half_seconds", t_h},
                                {"single_force_rmse", f_m},
                                {"half_force_rmse", f_h},
                                {"lanes_sp", static_cast<double>(dp::simd::lanes_sp())},
                            });
}

}  // namespace

int main() {
  std::printf("Precision ablation (paper Sec 7 future work / Table 1 mixed rows)\n");
  dp::obs::MetricsRegistry reg;
  auto water = water_workload();
  run_system("water", *water, reg);
  auto copper = copper_workload();
  run_system("copper", *copper, reg);
  std::printf(
      "\nReading: the float tables halve (quarter, for half precision) both the\n"
      "shipped model memory and the coefficient bytes streamed per step, at\n"
      "negligible accuracy cost — the 1/N_m-normalized descriptor keeps\n"
      "per-slot gradients small, so float noise stays ~1e-10 eV/A here. All\n"
      "three widths run the same fused kernel and batched blocked walk, so\n"
      "while the working set is cache-resident the time stays near the\n"
      "double path's; the 3x of the paper's mixed-precision baseline needs\n"
      "the memory-bound regime of its accelerator (Sec 7).\n");
  if (reg.write_json_file("BENCH_mixed.json")) std::printf("wrote BENCH_mixed.json\n");
  return 0;
}
