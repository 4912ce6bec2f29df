// Cross-process transport backends (shm, tcp) exercised in-process through
// the run_world harness (transport_harness.hpp): one ProcessGroup per rank
// thread, exactly as separate processes would construct them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "md/lj.hpp"
#include "parallel/distributed_md.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/transport.hpp"
#include "transport_harness.hpp"

namespace dp::par {
namespace {

using test_world::backend_config;
using test_world::run_world;

/// P2p + collective smoke shared by both backends.
void backend_smoke(const TransportConfig& base) {
  run_world(base, [&](Communicator& comm) {
    const int rank = comm.rank();
    const int size = comm.size();
    ASSERT_EQ(size, base.world);

    // Ring exchange: send right, receive from the left, tagged by sender.
    const std::vector<double> payload{static_cast<double>(rank), 2.5 * rank};
    const int right = (rank + 1) % size;
    const int left = (rank + size - 1) % size;
    comm.send_vec(right, 100 + rank, payload);
    const auto got = comm.recv_vec<double>(left, 100 + left);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], static_cast<double>(left));
    EXPECT_EQ(got[1], 2.5 * left);

    // Out-of-order tag matching through the nonblocking API: post the
    // receive for the *second* message first.
    if (rank == 0) {
      for (int r = 1; r < size; ++r) {
        Request late = comm.irecv(r, 8);
        Request early = comm.irecv(r, 7);
        const auto a = early.take_vec<int>();
        const auto b = late.take_vec<int>();
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0], r);
        EXPECT_EQ(b[0], 10 * r);
      }
    } else {
      comm.isend_vec(0, 7, std::vector<int>{rank});
      comm.isend_vec(0, 8, std::vector<int>{10 * rank});
    }

    comm.barrier();

    // Collectives: deterministic results on every rank.
    EXPECT_EQ(comm.allreduce_sum(static_cast<std::uint64_t>(rank) + 1),
              static_cast<std::uint64_t>(size) * (size + 1) / 2);
    EXPECT_EQ(comm.allreduce_max(static_cast<double>(rank)),
              static_cast<double>(size - 1));
    const auto summed = comm.allreduce_sum(std::vector<double>{1.0, static_cast<double>(rank)});
    ASSERT_EQ(summed.size(), 2u);
    EXPECT_EQ(summed[0], static_cast<double>(size));
    EXPECT_EQ(summed[1], static_cast<double>(size * (size - 1) / 2));

    const auto bcast = comm.broadcast(
        rank == 1 ? std::vector<double>{3.0, 4.0} : std::vector<double>{}, 1);
    ASSERT_EQ(bcast.size(), 2u);
    EXPECT_EQ(bcast[0], 3.0);
    EXPECT_EQ(bcast[1], 4.0);

    const auto gathered = comm.gatherv(std::vector<double>{static_cast<double>(rank)}, 0);
    if (rank == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(size));
      for (int r = 0; r < size; ++r) EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r);
    } else {
      EXPECT_TRUE(gathered.empty());
    }

    // Counter sanity: this rank moved messages, and on a cross-process
    // backend they crossed the wire.
    const CommStats cs = comm.stats();
    EXPECT_GT(cs.messages, 0u);
    EXPECT_GT(cs.wire_bytes, 0u);
    EXPECT_STREQ(cs.transport, base.kind == TransportKind::Shm ? "shm" : "tcp");
  });
}

TEST(Transport, ShmPointToPointAndCollectives) {
  backend_smoke(backend_config(TransportKind::Shm, 2, "smoke2"));
  backend_smoke(backend_config(TransportKind::Shm, 4, "smoke4"));
}

TEST(Transport, TcpPointToPointAndCollectives) {
  backend_smoke(backend_config(TransportKind::Tcp, 2, "smoke2"));
  backend_smoke(backend_config(TransportKind::Tcp, 4, "smoke4"));
}

/// Contributions whose sum depends on the fold order: rank r sends
/// kOrderSensitive rotated by r, so each element sees the four values in a
/// different rank order. 1e16 + 1 rounds back to 1e16, so e.g.
/// ((1e16 + 1) - 1e16) + 1 = 1 while (1e16 - 1e16) + 1 + 1 = 2.
constexpr double kOrderSensitive[4] = {1e16, 1.0, -1e16, 1.0};

std::vector<double> order_sensitive_contribution(int rank) {
  std::vector<double> x(4);
  const auto r = static_cast<std::size_t>(rank);
  for (std::size_t k = 0; k < 4; ++k) x[k] = kOrderSensitive[(k + r) % 4];
  return x;
}

/// ((x0 + x1) + x2) + x3 per element: the rank-order fold.
std::vector<double> rank_order_sum() {
  std::vector<double> sum = order_sensitive_contribution(0);
  for (int r = 1; r < 4; ++r) {
    const auto x = order_sensitive_contribution(r);
    for (std::size_t k = 0; k < 4; ++k) sum[k] += x[k];
  }
  return sum;
}

void expect_rank_order_fold(Communicator& comm) {
  const auto got = comm.allreduce_sum(order_sensitive_contribution(comm.rank()));
  const auto want = rank_order_sum();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]) << "element " << k;
}

TEST(Transport, AllreduceFoldsInRankOrder) {
  // Not vacuous: the same four values folded in two rotations disagree.
  const auto want = rank_order_sum();
  ASSERT_NE(want[0], want[1]);
  // Arrival order varies with the thread schedule, so repeat the world.
  for (int rep = 0; rep < 200; ++rep) run_parallel(4, expect_rank_order_fold);
  run_world(backend_config(TransportKind::Shm, 4, "fold"), expect_rank_order_fold);
  run_world(backend_config(TransportKind::Tcp, 4, "fold"), expect_rank_order_fold);
}

/// The tentpole acceptance check, in-binary: an MD run over a cross-process
/// backend must produce forces bitwise identical to the in-process threads
/// world, because every rank executes the same code over the same bytes —
/// only the transport underneath changes.
void parity_vs_threads(TransportKind kind, const char* test) {
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.08, 51);
  md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = 8;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.rebuild_every = 5;
  sc.thermo_every = 4;
  sc.seed = 99;

  DistributedOptions opts;
  opts.grid = {2, 1, 1};
  opts.gather_state = true;

  const auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };
  const auto reference = run_distributed_md(2, sys, factory, sc, opts);
  ASSERT_EQ(reference.final_force.size(), sys.atoms.size());

  const TransportConfig base = backend_config(kind, 2, test);
  DistributedRunResult cross;
  Mutex cross_mu;
  run_world(base, [&](Communicator& comm) {
    auto r = run_distributed_md_rank(comm, sys, factory, sc, opts);
    if (comm.rank() == 0) {
      MutexLock lock(cross_mu);
      cross = std::move(r);
    }
  });

  ASSERT_EQ(cross.final_force.size(), reference.final_force.size());
  for (std::size_t i = 0; i < reference.final_force.size(); ++i) {
    // Bitwise: EXPECT_EQ on doubles is exact equality, which is the claim.
    EXPECT_EQ(cross.final_force[i].x, reference.final_force[i].x) << "atom " << i;
    EXPECT_EQ(cross.final_force[i].y, reference.final_force[i].y) << "atom " << i;
    EXPECT_EQ(cross.final_force[i].z, reference.final_force[i].z) << "atom " << i;
  }
  EXPECT_EQ(cross.neighbor_rebuilds, reference.neighbor_rebuilds);
  ASSERT_EQ(cross.thermo.size(), reference.thermo.size());
  for (std::size_t i = 0; i < reference.thermo.size(); ++i) {
    EXPECT_EQ(cross.thermo[i].potential, reference.thermo[i].potential);
    EXPECT_EQ(cross.thermo[i].temperature, reference.thermo[i].temperature);
  }
}

TEST(Transport, ShmMdParityWithThreads) { parity_vs_threads(TransportKind::Shm, "parity"); }

TEST(Transport, TcpMdParityWithThreads) { parity_vs_threads(TransportKind::Tcp, "parity"); }

TEST(Transport, BootstrapTimeoutFailsCleanly) {
  // A lone rank of a two-rank tcp world: nobody ever dials the rendezvous
  // listener, so the bootstrap must give up after the configured timeout
  // with a DP_CHECK error — not hang.
  TransportConfig cfg = backend_config(TransportKind::Tcp, 2, "timeout");
  cfg.rank = 0;
  cfg.timeout_seconds = 0.5;
  EXPECT_THROW(ProcessGroup pg(cfg), Error);
}

TEST(Transport, ShmBootstrapTimeoutFailsCleanly) {
  TransportConfig cfg = backend_config(TransportKind::Shm, 2, "timeout");
  cfg.rank = 0;
  cfg.timeout_seconds = 0.5;
  EXPECT_THROW(ProcessGroup pg(cfg), Error);
}

TEST(Transport, EnvConfigRoundTrip) {
  ::setenv("DP_TRANSPORT", "tcp", 1);
  ::setenv("DP_RANK", "3", 1);
  ::setenv("DP_WORLD", "8", 1);
  ::setenv("DP_RENDEZVOUS", "127.0.0.1:4242", 1);
  ::setenv("DP_TIMEOUT", "2.5", 1);
  const TransportConfig cfg = transport_config_from_env();
  EXPECT_EQ(cfg.kind, TransportKind::Tcp);
  EXPECT_EQ(cfg.rank, 3);
  EXPECT_EQ(cfg.world, 8);
  EXPECT_EQ(cfg.rendezvous, "127.0.0.1:4242");
  EXPECT_EQ(cfg.timeout_seconds, 2.5);
  for (const char* v : {"DP_TRANSPORT", "DP_RANK", "DP_WORLD", "DP_RENDEZVOUS", "DP_TIMEOUT"})
    ::unsetenv(v);
}

}  // namespace
}  // namespace dp::par
