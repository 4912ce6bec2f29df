#include "train/distributed_trainer.hpp"

#include <gtest/gtest.h>

#include "../parallel/transport_harness.hpp"
#include "common/thread_annotations.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/transport.hpp"

namespace dp::train {
namespace {

using core::DPModel;
using core::ModelConfig;

ModelConfig tcfg() {
  ModelConfig cfg = ModelConfig::tiny();
  cfg.rcut = 4.0;
  return cfg;
}

double max_weight_diff(const DPModel& a, const DPModel& b) {
  double m = 0;
  for (int t = 0; t < a.config().ntypes; ++t) {
    for (std::size_t l = 0; l < a.embedding(t).layers().size(); ++l) {
      const auto& wa = a.embedding(t).layers()[l].weights();
      const auto& wb = b.embedding(t).layers()[l].weights();
      for (std::size_t k = 0; k < wa.size(); ++k)
        m = std::max(m, std::abs(wa.data()[k] - wb.data()[k]));
    }
    for (std::size_t l = 0; l < a.fitting(t).layers().size(); ++l) {
      const auto& wa = a.fitting(t).layers()[l].weights();
      const auto& wb = b.fitting(t).layers()[l].weights();
      for (std::size_t k = 0; k < wa.size(); ++k)
        m = std::max(m, std::abs(wa.data()[k] - wb.data()[k]));
    }
  }
  return m;
}

/// Every weight and bias of every embedding and fitting layer, in a fixed
/// order.
std::vector<double> parameters(const DPModel& m) {
  std::vector<double> p;
  const auto append = [&p](const auto& layers) {
    for (const auto& layer : layers) {
      const auto& w = layer.weights();
      p.insert(p.end(), w.data(), w.data() + w.size());
      p.insert(p.end(), layer.bias().begin(), layer.bias().end());
    }
  };
  for (int t = 0; t < m.config().ntypes; ++t) {
    append(m.embedding(t).layers());
    append(m.fitting(t).layers());
  }
  return p;
}

void expect_bitwise_equal(const DPModel& a, const DPModel& b) {
  const auto pa = parameters(a);
  const auto pb = parameters(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    ASSERT_EQ(pa[i], pb[i]) << "parameter " << i;  // exact, not a tolerance
}

TEST(GradsFlatView, RoundTrip) {
  DPModel model(tcfg(), 1);
  ModelGrads g;
  g.init(model);
  // Fill with recognizable values via a real gradient pass.
  auto frame = Dataset::lj_copper(1, 2, 0.1, 2).frames[0];
  md::NeighborList nl(model.config().rcut, 0.5);
  nl.build(frame.sys.box, frame.sys.atoms.pos);
  g.zero();
  energy_with_gradients(model, frame.sys.box, frame.sys.atoms, nl, 1.0, &g);

  const auto flat = g.to_vector();
  EXPECT_GT(flat.size(), 100u);
  ModelGrads g2;
  g2.init(model);
  g2.from_vector(flat);
  EXPECT_DOUBLE_EQ(g2.squared_norm(), g.squared_norm());
  ModelGrads diff = g2;
  diff.add_scaled(g, -1.0);
  EXPECT_DOUBLE_EQ(diff.squared_norm(), 0.0);
}

TEST(GradsFlatView, SizeMismatchRejected) {
  DPModel model(tcfg(), 3);
  ModelGrads g;
  g.init(model);
  EXPECT_THROW(g.from_vector(std::vector<double>(7)), Error);
}

TEST(DistributedTraining, TwoRanksMatchOneRankToReassociation) {
  // Shard-then-sum reassociates the floating-point accumulation, so ranks
  // agree with the serial run to rounding (a few ulps per step).
  auto data = Dataset::lj_copper(8, 2, 0.12, 4);
  TrainConfig tc;
  tc.learning_rate = 3e-3;

  DPModel m1(tcfg(), 5);
  DPModel m2(tcfg(), 5);
  const auto r1 = train_distributed(1, m1, data, tc, 5);
  const auto r2 = train_distributed(2, m2, data, tc, 5);
  EXPECT_LT(max_weight_diff(m1, m2), 1e-10);
  for (int e = 0; e < 5; ++e) EXPECT_NEAR(r1.epoch_rmse[e], r2.epoch_rmse[e], 1e-12);
}

TEST(DistributedTraining, FourRanksMatchToRounding) {
  // Sharding reassociates the gradient sum (four shard partials folded in
  // rank order vs one serial sum), so only reassociation noise is allowed.
  auto data = Dataset::lj_copper(8, 2, 0.12, 6);
  TrainConfig tc;
  tc.learning_rate = 3e-3;
  DPModel m1(tcfg(), 7);
  DPModel m4(tcfg(), 7);
  train_distributed(1, m1, data, tc, 4);
  train_distributed(4, m4, data, tc, 4);
  EXPECT_LT(max_weight_diff(m1, m4), 1e-8);
}

TEST(DistributedTraining, FourRanksBitwiseRepeatable) {
  // The gradient allreduce folds in rank order, never arrival order, so a
  // repeated 4-rank run reproduces every parameter exactly.
  auto data = Dataset::lj_copper(8, 2, 0.12, 6);
  TrainConfig tc;
  tc.learning_rate = 3e-3;
  DPModel a(tcfg(), 7);
  DPModel b(tcfg(), 7);
  const auto ra = train_distributed(4, a, data, tc, 3);
  const auto rb = train_distributed(4, b, data, tc, 3);
  expect_bitwise_equal(a, b);
  for (int e = 0; e < 3; ++e) EXPECT_EQ(ra.epoch_rmse[e], rb.epoch_rmse[e]);
}

/// 3-rank training through train_distributed_rank over a shm or tcp world;
/// returns rank 0's trained replica.
DPModel train_over(par::TransportKind kind, const DPModel& init, const Dataset& data,
                   const TrainConfig& tc, int epochs, std::vector<double>& rmse) {
  DPModel out = init;
  Mutex out_mu;
  const auto base = par::test_world::backend_config(kind, 3, "train");
  par::test_world::run_world(base, [&](par::Communicator& comm) {
    DPModel replica = init;
    auto r = train_distributed_rank(comm, replica, data, tc, epochs);
    if (comm.rank() == 0) {
      MutexLock lock(out_mu);
      out = replica;
      rmse = std::move(r.epoch_rmse);
    }
  });
  return out;
}

TEST(DistributedTraining, BitwiseAcrossTransports) {
  // Same code over the same bytes: only the transport changes, and every
  // backend folds the gradient allreduce in rank order.
  auto data = Dataset::lj_copper(6, 2, 0.12, 14);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.pref_f = 10.0;
  const DPModel init(tcfg(), 15);
  DPModel threads = init;
  const auto rt = train_distributed(3, threads, data, tc, 3);
  for (const auto kind : {par::TransportKind::Shm, par::TransportKind::Tcp}) {
    std::vector<double> rmse;
    const DPModel other = train_over(kind, init, data, tc, 3, rmse);
    expect_bitwise_equal(threads, other);
    ASSERT_EQ(rmse.size(), rt.epoch_rmse.size());
    for (std::size_t e = 0; e < rmse.size(); ++e) EXPECT_EQ(rmse[e], rt.epoch_rmse[e]);
  }
}

TEST(DistributedTraining, LossDecreases) {
  auto data = Dataset::lj_copper(12, 2, 0.12, 8);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  DPModel model(tcfg(), 9);
  const auto r = train_distributed(4, model, data, tc, 15);
  EXPECT_LT(r.epoch_rmse.back(), 0.5 * r.epoch_rmse.front());
  EXPECT_GT(r.comm.reductions, 0u);
}

TEST(DistributedTraining, TrainedModelIsCopiedOut) {
  auto data = Dataset::lj_copper(6, 2, 0.12, 10);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  DPModel model(tcfg(), 11);
  const DPModel before = model;
  train_distributed(2, model, data, tc, 3);
  EXPECT_GT(max_weight_diff(before, model), 0.0);
}

TEST(DistributedTraining, ForceLossSupported) {
  // The shared frame-gradient path carries the force term into the
  // data-parallel trainer too.
  auto data = Dataset::lj_copper(8, 2, 0.12, 12);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.pref_f = 100.0;
  DPModel model(tcfg(), 13);
  EnergyTrainer probe(model, tc);  // for evaluate_forces only
  const double f_before = probe.evaluate_forces(data);
  // Full-batch: one optimizer step per epoch, so give it a real budget.
  train_distributed(4, model, data, tc, 40);
  EnergyTrainer probe_after(model, tc);
  EXPECT_LT(probe_after.evaluate_forces(data), 0.9 * f_before);
}

}  // namespace
}  // namespace dp::train
