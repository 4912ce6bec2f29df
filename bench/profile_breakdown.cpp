// Kernel-time breakdown per inference path (paper Sec 2.2: "more than 90
// percent of the total time are spent on execution of the embedding net" in
// the baseline — the observation the whole optimization campaign starts
// from). Uses the timer sections the kernels self-report. A section is shown
// as its mean per registry add times the evaluations, so a section added
// once per team thread per call (fused.fit) shows the mean thread's time,
// comparable with the wall-clock sections beside it.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "dp/baseline_model.hpp"

using namespace dpbench;

namespace {

void profile(const char* label, dp::md::ForceField& ff, Workload& w, int reps,
             const char* prefix) {
  auto& reg = dp::TimerRegistry::instance();
  reg.clear();
  for (int r = 0; r < reps; ++r) ff.compute(w.sys.box, w.sys.atoms, w.nlist, w.periodic);
  const double total = reg.get(std::string(prefix) + ".compute").total_seconds;
  std::printf("\n%s (total %.3f s over %d evals)\n", label, total, reps);
  std::printf("%-32s %12s %9s\n", "section", "seconds", "share");
  print_rule(56);
  for (const auto& [name, stats] : reg.sorted_by_total()) {
    if (name == std::string(prefix) + ".compute") continue;
    if (name.rfind(prefix, 0) != 0) continue;
    const double seconds = stats.mean_seconds() * reps;
    std::printf("%-32s %12.3f %8.1f%%\n", name.c_str(), seconds, 100.0 * seconds / total);
  }
}

}  // namespace

int main() {
  std::printf("Kernel-time breakdown (paper Sec 2.2 / 3.2 profiling claims)\n");
  auto w = copper_workload();

  {
    dp::core::BaselineDP ff(w->model);
    profile("baseline path, copper", ff, *w, 2, "baseline");
  }
  {
    dp::tab::CompressedDP ff(w->tabulated);
    profile("tabulated (unfused) path, copper", ff, *w, 4, "compressed");
  }
  {
    dp::fused::FusedDP ff(w->tabulated);
    profile("fused path, copper", ff, *w, 8, "fused");
  }

  std::printf(
      "\nExpected shape (paper): the baseline spends >90%% of its time in the\n"
      "embedding net (fwd+bwd GEMM pipelines); tabulation collapses that and\n"
      "the remaining cost spreads over descriptor/fitting, env-mat and the\n"
      "force scatter — which is why the later optimizations target those.\n");
  return 0;
}
