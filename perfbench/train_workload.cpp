// train-2rank: data-parallel training of the tiny model on LJ-labelled
// copper frames through train::train_distributed, in a closed loop (an
// epoch starts when the previous one has finished).
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "probes.hpp"
#include "train/distributed_trainer.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr int kSetups = 3;
/// Frames per epoch: one epoch with the force loss on takes about 0.1 s on
/// 2 ranks of a 4-core host.
constexpr int kFrames = 12;
constexpr int kTinyFrames = 4;
/// 108-atom frames rather than dpmd train's 32: on 32-atom frames with 2
/// threads per rank the epoch was mostly thread-team hand-offs, and the
/// median epoch varied by 30% between runs.
constexpr int kCells = 3;
/// Epochs per train_distributed call (the Adam moments live for one call).
/// Every call starts 2 rank threads and their thread teams; four epochs
/// per call keep that start-up a small, steady part of each sample.
constexpr int kEpochsPerCall = 4;
constexpr double kJitter = 0.12;

struct TrainInputs {
  std::unique_ptr<dp::core::DPModel> model;
  dp::train::Dataset data;
  dp::train::TrainConfig tc;
};

TrainInputs make_inputs(const Options& opt) {
  TrainInputs in;
  auto mc = dp::core::ModelConfig::tiny();
  mc.rcut = 4.0;
  in.model = std::make_unique<dp::core::DPModel>(mc, opt.seed);
  in.data = dp::train::Dataset::lj_copper(opt.tiny ? kTinyFrames : kFrames, kCells, kJitter,
                                          opt.seed);
  in.tc.learning_rate = 3e-3;
  in.tc.pref_f = 1.0;  // force loss on
  return in;
}

bool all_finite(const dp::core::DPModel& model) {
  auto finite = [](const double* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      if (!std::isfinite(p[i])) return false;
    return true;
  };
  auto layers_finite = [&](const std::vector<dp::nn::DenseLayer>& layers) {
    for (const auto& l : layers)
      if (!finite(l.weights().data(), l.weights().size()) ||
          !finite(l.bias().data(), l.bias().size()))
        return false;
    return true;
  };
  const auto& cfg = model.config();
  for (std::size_t k = 0; k < model.n_embedding_nets(); ++k) {
    const int c = cfg.type_one_side ? 0 : static_cast<int>(k) / cfg.ntypes;
    const int t = cfg.type_one_side ? static_cast<int>(k) : static_cast<int>(k) % cfg.ntypes;
    if (!layers_finite(model.embedding_pair(c, t).layers())) return false;
  }
  for (int t = 0; t < cfg.ntypes; ++t)
    if (!layers_finite(model.fitting(t).layers())) return false;
  return true;
}

struct Epochs {
  std::vector<double> epoch_s;  ///< mean epoch time of each call
  std::vector<double> rmse;     ///< every epoch's RMSE
  double comm_bytes = 0.0;
};

void epoch_loop(TrainInputs& in, std::int64_t deadline, int min_calls, Epochs& out) {
  while (static_cast<int>(out.epoch_s.size()) < min_calls || Tracer::now_ns() < deadline) {
    const std::int64_t t0 = Tracer::now_ns();
    dp::train::DistributedTrainResult r;
    {
      ScopedSpan s("train.call");
      r = dp::train::train_distributed(kRanks, *in.model, in.data, in.tc, kEpochsPerCall);
    }
    out.epoch_s.push_back(seconds_since(t0) / kEpochsPerCall);
    out.rmse.insert(out.rmse.end(), r.epoch_rmse.begin(), r.epoch_rmse.end());
    out.comm_bytes += static_cast<double>(r.comm.bytes);
  }
}

}  // namespace

void run_train(const Options& opt, Report& rep) {
  if (opt.trace) Tracer::enable(opt.seed);
  const std::int64_t t_start = Tracer::now_ns();
  const std::int64_t mid = t_start + static_cast<std::int64_t>(opt.seconds * 0.5e9);
  const std::int64_t end = t_start + static_cast<std::int64_t>(opt.seconds * 1e9);

  // Set-up: model, dataset, and one first epoch on a throwaway copy of the
  // model (the training analogue of the first force evaluation).
  std::vector<double> setups;
  double rss = 0.0;
  TrainInputs in;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = Tracer::now_ns();
    in = make_inputs(opt);
    dp::core::DPModel warm = *in.model;
    dp::train::train_distributed(kRanks, warm, in.data, in.tc, 1);
    setups.push_back(seconds_since(t0));
    // Every epoch repeats the first one's allocations on fresh rank threads,
    // whose malloc arenas only add noise to the peak.
    if (i == 0) rss = peak_rss_mib();
  }
  const std::size_t frames = in.data.size();
  const double atoms_per_frame = static_cast<double>(in.data.frames.front().sys.atoms.size());

  Epochs a, b;
  const int min_calls = opt.tiny ? 1 : 3;
  if (opt.trace) Tracer::disable();
  epoch_loop(in, opt.trace ? mid : end, min_calls, a);
  if (opt.trace) {
    Tracer::enable(opt.seed);
    epoch_loop(in, end, min_calls, b);
  }

  // ---- correctness
  std::vector<double> rmse = a.rmse;
  rmse.insert(rmse.end(), b.rmse.begin(), b.rmse.end());
  char buf[160];
  std::snprintf(buf, sizeof buf, "energy RMSE %.6g -> %.6g eV/atom over %zu epochs",
                rmse.front(), rmse.back(), rmse.size());
  rep.check("training_reduces_rmse", rmse.back() < rmse.front(), buf);
  rep.check("parameters_finite", all_finite(*in.model), "every weight and bias of every net");

  // ---- stamp and metrics
  rep.stamp("workload", opt.workload);
  rep.stamp("ranks", kRanks);
  rep.stamp("frames", static_cast<double>(frames));
  rep.stamp("atoms", atoms_per_frame);
  rep.stamp("epochs", static_cast<double>(rmse.size()));
  const std::size_t k = a.epoch_s.size();
  const double atom_evals = static_cast<double>(frames) * atoms_per_frame;
  rep.end_to_end("us_per_step_atom_p50", quantile(a.epoch_s, 0.5) / atom_evals * 1e6, k);
  rep.info("us_per_step_atom_p90", quantile(a.epoch_s, 0.9) / atom_evals * 1e6, "us", k);
  rep.info("steps_per_s", static_cast<double>(k) / sum(a.epoch_s), "1/s", k);
  rep.end_to_end("setup_s", median(setups), setups.size());
  rep.end_to_end("peak_rss_mib", rss, 1);
  rep.info("train_frames_per_s", static_cast<double>(k * frames) / sum(a.epoch_s), "frames/s",
           k);
  rep.info("train_epoch_ms_p90", quantile(a.epoch_s, 0.9) * 1e3, "ms", k);
  if (!opt.trace) return;

  rep.layer("trace.overhead_frac", median(b.epoch_s) / median(a.epoch_s) - 1.0,
            b.epoch_s.size());
  // The threads transport folds allreduce payloads in shared memory and
  // counts only point-to-point bytes, so add the gradient payload each
  // rank contributes to the one allreduce per epoch.
  dp::train::ModelGrads grads;
  grads.init(*in.model);
  const std::size_t payload = grads.to_vector().size() + 1;  // + the loss
  rep.layer("train.comm.kib_per_epoch",
            (b.comm_bytes / static_cast<double>(b.epoch_s.size() * kEpochsPerCall) +
             static_cast<double>(payload * sizeof(double) * kRanks)) /
                1024.0,
            b.epoch_s.size());

  // Per-frame gradient cost, on a copy of the trained model.
  dp::core::DPModel model = *in.model;
  dp::train::ModelGrads g, scratch;
  g.init(model);
  scratch.init(model);
  for (const auto& frame : in.data.frames) {
    ScopedSpan s("train.grad");
    dp::train::accumulate_frame_gradients(model, frame, in.tc,
                                          1.0 / static_cast<double>(frames), g, scratch);
  }
  const SpanTotal grad = span_total("train.grad");
  rep.layer("train.grad.ms_per_frame", grad.mean_s * 1e3, grad.count);
  probe_allreduce(kRanks, payload, rep);

  for (const char* name : {"md.force.ms_per_eval", "md.integrate.us_per_step",
                           "md.neighbor.builds", "tab.build_s", "tab.extrapolations_per_eval",
                           "par.halo.wait_s_per_step", "par.halo.hidden_s_per_step",
                           "par.halo.overlap_ratio", "par.comm.messages_per_step",
                           "par.comm.kib_per_step", "par.ghosts_max", "par.load_imbalance",
                           "par.early_rebuilds"})
    rep.unreached(name, "training runs no MD loop");

  ProbeInput probe;
  probe.model = in.model.get();
  probe.cfg = in.data.frames.front().sys;
  probe.skin = in.tc.skin;
  probe.seed = opt.seed;
  probe.reps = opt.tiny ? 1 : 20;
  probe_layers(probe, rep);
  // Training frames are static: the MD stepping probe does not apply.
  rep.unreached("md.integrate.us_per_step", "training runs no MD loop");
}

}  // namespace perfbench
