// Standalone calls into each layer's public functions, run once the traced
// workload loop has finished, on the workload's own final state. Each call
// sits inside a span; the layer metrics are read back from the spans.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "dp/dp_model.hpp"
#include "md/lattice.hpp"
#include "tab/tabulated_model.hpp"

namespace perfbench {

struct ProbeInput {
  const dp::core::DPModel* model = nullptr;
  /// Tables of the inference path; null for training, which evaluates the
  /// untabulated nets.
  const dp::tab::TabulatedDP* tab = nullptr;
  bool mixed = false;  ///< single-precision fused path
  dp::md::Configuration cfg;
  double skin = 1.0;
  double dt_ps = 0.001;
  std::uint64_t seed = 1;
  int reps = 5;
};

/// md.neighbor.ms_per_build, md.integrate.us_per_step, the fused.*, tab.*
/// (except build time and extrapolations), dp.* and nn.* metrics, and
/// trace.coverage.
void probe_layers(const ProbeInput& in, Report& rep);

/// par.allreduce.us: Communicator::allreduce_sum over `n` doubles in a
/// `ranks`-rank in-process world.
void probe_allreduce(int ranks, std::size_t n, Report& rep);

/// Durations [s] and count of the spans named `name` recorded so far.
struct SpanTotal {
  double mean_s = 0.0;
  double total_s = 0.0;
  std::size_t count = 0;
  double mean_self_s = 0.0;  ///< mean duration minus time covered by child spans
};
SpanTotal span_total(const char* name);

}  // namespace perfbench
