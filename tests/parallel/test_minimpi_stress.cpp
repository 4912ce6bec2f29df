// Stress and edge-case coverage for the message-passing runtime: message
// ordering under load, interleaved tags, large payloads, zero-size
// messages, and collective/point-to-point interleaving.
#include <gtest/gtest.h>

#include <numeric>

#include "parallel/minimpi.hpp"

namespace dp::par {
namespace {

TEST(MiniMpiStress, ManyMessagesPreserveFifoPerTag) {
  run_parallel(2, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    const int n = 500;
    for (int k = 0; k < n; ++k) {
      std::vector<int> payload{comm.rank(), k};
      comm.send_vec(other, 5, payload);
    }
    for (int k = 0; k < n; ++k) {
      const auto got = comm.recv_vec<int>(other, 5);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], other);
      EXPECT_EQ(got[1], k);  // FIFO within one (src, tag) stream
    }
  });
}

TEST(MiniMpiStress, InterleavedTagsResolveCorrectly) {
  run_parallel(3, [](Communicator& comm) {
    // Everyone sends one message per tag to everyone (self included).
    for (int dest = 0; dest < 3; ++dest)
      for (int tag = 0; tag < 7; ++tag) {
        std::vector<int> v{comm.rank() * 100 + tag};
        comm.send_vec(dest, tag, v);
      }
    // Receive in scrambled order.
    for (int tag = 6; tag >= 0; --tag)
      for (int src = 2; src >= 0; --src) {
        const auto got = comm.recv_vec<int>(src, tag);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], src * 100 + tag);
      }
  });
}

TEST(MiniMpiStress, LargePayloadIntegrity) {
  run_parallel(2, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    std::vector<double> big(1 << 20);  // 8 MB
    std::iota(big.begin(), big.end(), static_cast<double>(comm.rank()));
    comm.send_vec(other, 1, big);
    const auto got = comm.recv_vec<double>(other, 1);
    ASSERT_EQ(got.size(), big.size());
    EXPECT_DOUBLE_EQ(got.front(), static_cast<double>(other));
    EXPECT_DOUBLE_EQ(got.back(), static_cast<double>(other) + (1 << 20) - 1);
  });
}

TEST(MiniMpiStress, ZeroSizeMessages) {
  run_parallel(2, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    comm.send_vec(other, 9, std::vector<int>{});
    EXPECT_TRUE(comm.recv_vec<int>(other, 9).empty());
  });
}

TEST(MiniMpiStress, CollectivesInterleavedWithP2P) {
  run_parallel(4, [](Communicator& comm) {
    double running = 0.0;
    for (int round = 0; round < 30; ++round) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_vec(next, round, std::vector<int>{round});
      running += comm.allreduce_sum(1.0);  // = 4 each round
      EXPECT_EQ(comm.recv_vec<int>(prev, round).at(0), round);
    }
    EXPECT_DOUBLE_EQ(running, 120.0);
  });
}

TEST(MiniMpiStress, SendToInvalidRankThrows) {
  EXPECT_THROW(run_parallel(2,
                            [](Communicator& comm) {
                              std::vector<int> v{1};
                              comm.send_vec(5, 0, v);
                            }),
               Error);
}

TEST(MiniMpiStress, ManyRanksAllreduce) {
  run_parallel(16, [](Communicator& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(total, 120.0);  // 0+1+...+15
  });
}

TEST(MiniMpiStress, StatsAggregateAcrossRanks) {
  const auto stats = run_parallel(4, [](Communicator& comm) {
    for (int dest = 0; dest < comm.size(); ++dest)
      comm.send_vec(dest, 0, std::vector<char>{'x'});
    for (int src = 0; src < comm.size(); ++src) comm.recv_vec<char>(src, 0);
    comm.barrier();
  });
  // 16 one-byte sends, plus the barrier's 3 arrivals at rank 0 and its 3
  // releases: collectives are zero-byte p2p messages and are counted.
  EXPECT_EQ(stats.messages, 22u);
  EXPECT_EQ(stats.bytes, 16u);
  EXPECT_GE(stats.barriers, 1u);
}

TEST(MiniMpiStress, BroadcastDeliversRootData) {
  run_parallel(4, [](Communicator& comm) {
    std::vector<double> mine{static_cast<double>(comm.rank()), 1.0};
    const auto got = comm.broadcast(mine, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], 2.0);  // everyone sees rank 2's data
  });
}

TEST(MiniMpiStress, GathervConcatenatesInRankOrder) {
  run_parallel(3, [](Communicator& comm) {
    // Rank r contributes r+1 values, all equal to r.
    std::vector<double> mine(static_cast<std::size_t>(comm.rank() + 1),
                             static_cast<double>(comm.rank()));
    const auto got = comm.gatherv(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(got.size(), 6u);  // 1 + 2 + 3
      EXPECT_DOUBLE_EQ(got[0], 0.0);
      EXPECT_DOUBLE_EQ(got[1], 1.0);
      EXPECT_DOUBLE_EQ(got[2], 1.0);
      EXPECT_DOUBLE_EQ(got[5], 2.0);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

}  // namespace
}  // namespace dp::par
