// Step benchmark driver: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--perturb-force] [--trace-out FILE]
//
// Prints a stamp, every metric with its unit and sample count and every
// correctness check, then as the last line one JSON object with `correct`,
// `attempted` and `failed` (correctness checks) and `metrics`: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/simd.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct WorkloadInfo {
  const char* name;
  int ranks;
  int threads_per_rank;
};

// The MD workloads use all 4 cores of the reference host: one team of 4, or
// 2 ranks x 2 threads. Training runs 2 ranks x 1 thread: on its small frames
// a second thread per rank added no speed and doubled the run-to-run spread.
constexpr WorkloadInfo kWorkloads[] = {
    {"copper-serial", 1, 4},
    {"copper-mixed", 1, 4},
    {"water-2rank", 2, 2},
    {"train-2rank", 2, 1},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload copper-serial|copper-mixed|"
               "water-2rank|train-2rank --seed N --seconds S --trace 0|1 [--tiny] "
               "[--perturb-force] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--perturb-force") {
      o.perturb = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  const WorkloadInfo* w = nullptr;
  for (const auto& k : kWorkloads)
    if (opt.workload == k.name) w = &k;
  if (w == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
  // Rank threads take their OpenMP team size from OMP_NUM_THREADS, so the
  // environment, not this process, has to set it.
  if (omp_get_max_threads() != w->threads_per_rank) {
    std::fprintf(stderr, "perfbench: %s needs OMP_NUM_THREADS=%d (have %d)\n", w->name,
                 w->threads_per_rank, omp_get_max_threads());
    return 2;
  }

  perfbench::Report rep;
  rep.stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.stamp("omp_threads_per_rank", omp_get_max_threads());
  rep.stamp("simd", dp::simd::name(dp::simd::active()));
  rep.stamp("build", PERFBENCH_BUILD_TYPE);
  rep.stamp("seed", static_cast<double>(opt.seed));
  rep.stamp("seconds", opt.seconds);
  rep.stamp("trace", opt.trace ? "1" : "0");
  if (opt.tiny) rep.stamp("size", "tiny");
  if (opt.perturb) rep.stamp("perturbed_forces", perfbench::kPerturbation);
  try {
    if (opt.workload == "train-2rank")
      perfbench::run_train(opt, rep);
    else
      perfbench::run_md(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !opt.trace_out.empty() && !perfbench::Tracer::write_jsonl(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return rep.print(opt.trace) ? 0 : 1;
}
