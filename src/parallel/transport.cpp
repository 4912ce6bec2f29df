#include "parallel/transport.hpp"

#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "parallel/minimpi.hpp"

namespace dp::par {

// The collectives of every backend, over tagged p2p.
//
// Shape: a gather to rank 0 (in rank order) followed by a broadcast from
// rank 0. Tags live in the reserved kCollectiveTag space so they can never
// collide with application traffic, and each collective round-trips through
// rank 0 before anyone returns — which is also the synchronization argument:
// rank 0 receives from every rank (their contribution happens-before its
// send of the result/release), and every rank receives rank 0's reply
// (rank 0's fold happens-before their return). FIFO matching per (src, tag)
// keeps back-to-back collectives on the same tags correctly paired.

void Transport::barrier(int me) {
  constexpr int kArrive = kCollectiveTag;
  constexpr int kRelease = kCollectiveTag + 1;
  const int n = size();
  if (me == 0) {
    for (int r = 1; r < n; ++r) (void)recv(0, r, kArrive);
    for (int r = 1; r < n; ++r) send(0, r, kRelease, nullptr, 0);
  } else {
    send(me, 0, kArrive, nullptr, 0);
    (void)recv(me, 0, kRelease);
  }
  n_barriers_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> Transport::allreduce(int me, const std::vector<double>& x,
                                         bool take_max) {
  constexpr int kContrib = kCollectiveTag + 2;
  constexpr int kResult = kCollectiveTag + 3;
  const int n = size();
  std::vector<double> out;
  if (me == 0) {
    out = x;
    for (int r = 1; r < n; ++r) {
      const auto bytes = recv(0, r, kContrib);
      DP_CHECK_MSG(bytes.size() == x.size() * sizeof(double),
                   "allreduce size mismatch across ranks");
      std::vector<double> part(x.size());
      if (!bytes.empty()) std::memcpy(part.data(), bytes.data(), bytes.size());
      // Rank-order fold: deterministic regardless of message arrival order.
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (take_max)
          out[i] = std::max(out[i], part[i]);
        else
          out[i] += part[i];
      }
    }
    for (int r = 1; r < n; ++r)
      send(0, r, kResult, out.data(), out.size() * sizeof(double));
  } else {
    send(me, 0, kContrib, x.data(), x.size() * sizeof(double));
    const auto bytes = recv(me, 0, kResult);
    DP_CHECK_MSG(bytes.size() == x.size() * sizeof(double),
                 "allreduce result size mismatch");
    out.resize(x.size());
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }
  n_reductions_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

TransportKind parse_transport_kind(const std::string& s) {
  if (s == "threads") return TransportKind::Threads;
  if (s == "shm") return TransportKind::Shm;
  if (s == "tcp") return TransportKind::Tcp;
  DP_CHECK_MSG(false, "unknown transport '" << s << "' (threads|shm|tcp)");
  return TransportKind::Threads;
}

TransportConfig transport_config_from_env() {
  TransportConfig cfg;
  if (const char* v = std::getenv("DP_TRANSPORT")) cfg.kind = parse_transport_kind(v);
  if (const char* v = std::getenv("DP_RANK")) cfg.rank = std::atoi(v);
  if (const char* v = std::getenv("DP_WORLD")) cfg.world = std::atoi(v);
  if (const char* v = std::getenv("DP_RENDEZVOUS")) cfg.rendezvous = v;
  if (const char* v = std::getenv("DP_TIMEOUT")) cfg.timeout_seconds = std::atof(v);
  return cfg;
}

ProcessGroup::ProcessGroup(const TransportConfig& cfg) : rank_(cfg.rank) {
  DP_CHECK_MSG(cfg.world >= 1, "world size must be at least 1");
  DP_CHECK_MSG(cfg.rank >= 0 && cfg.rank < cfg.world,
               "rank " << cfg.rank << " outside world of " << cfg.world);
  switch (cfg.kind) {
    case TransportKind::Shm:
      transport_ = make_shm_transport(cfg);
      break;
    case TransportKind::Tcp:
      transport_ = make_tcp_transport(cfg);
      break;
    case TransportKind::Threads:
      DP_CHECK_MSG(false,
                   "threads transport has no process bootstrap — use "
                   "run_parallel()");
      break;
  }
  comm_.reset(new Communicator(transport_.get(), cfg.rank));
}

ProcessGroup::~ProcessGroup() = default;

}  // namespace dp::par
