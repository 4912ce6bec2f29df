// Runs a multi-process-shaped world inside one test binary: each rank runs
// on its own std::thread and constructs its own ProcessGroup, exactly as
// separate processes would. That shape is real for both cross-process
// backends — the shm segment is mapped once per group, the tcp mesh
// connects over loopback — while keeping the test a single binary that
// sanitizers can see end to end.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parallel/minimpi.hpp"
#include "parallel/transport.hpp"

namespace dp::par::test_world {

/// Globally unique shm segment token: two test binaries under ctest -j must
/// not collide in /dev/shm, and two tests in one binary must not reuse a
/// segment that a crashed predecessor left behind.
inline std::string unique_segment(const char* test) {
  static std::atomic<int> counter{0};
  std::ostringstream os;
  os << "dp_test_" << test << "_" << ::getpid() << "_"
     << counter.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

/// Bootstrap config for a `world`-rank shm or tcp world (rank filled in by
/// run_world).
inline TransportConfig backend_config(TransportKind kind, int world, const char* test) {
  TransportConfig cfg;
  cfg.kind = kind;
  cfg.world = world;
  cfg.timeout_seconds = 60.0;
  if (kind == TransportKind::Shm) {
    cfg.rendezvous = unique_segment(test);
  } else {
    std::ostringstream os;
    os << "127.0.0.1:" << pick_free_tcp_port();
    cfg.rendezvous = os.str();
  }
  return cfg;
}

/// Runs `fn(comm)` on every rank of a multi-process-shaped world, one
/// ProcessGroup per thread. Exceptions become test failures (gtest cannot
/// propagate them across threads).
inline void run_world(const TransportConfig& base,
                      const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(base.world));
  for (int r = 0; r < base.world; ++r) {
    threads.emplace_back([&, r] {
      TransportConfig cfg = base;
      cfg.rank = r;
      try {
        ProcessGroup pg(cfg);
        fn(pg.comm());
      } catch (const std::exception& e) {
        ADD_FAILURE() << "rank " << r << ": " << e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace dp::par::test_world
