#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span {
  const char* name;
  std::int64_t t0, t1;
  int parent;  ///< index in the same thread's buffer, -1 for a root
};

struct Buffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int> open;  ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::uint64_t g_run_id = 0;
std::mutex g_mu;  // guards g_buffers (the list, not the per-thread contents)
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buf = g_buffers.back().get();
    buf->thread = static_cast<int>(g_buffers.size()) - 1;
    buf->spans.reserve(4096);
  }
  return *buf;
}

}  // namespace

void Tracer::enable(std::uint64_t run_id) {
  g_run_id = run_id;
  g_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_release); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int Tracer::open(const char* name) {
  Buffer& b = local_buffer();
  const int parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back({name, now_ns(), 0, parent});
  const int handle = static_cast<int>(b.spans.size()) - 1;
  b.open.push_back(handle);
  return handle;
}

void Tracer::close(int handle) {
  Buffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(handle)].t1 = now_ns();
  b.open.pop_back();
}

std::map<std::string, Tracer::NameStats> Tracer::summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, NameStats> out;
  for (const auto& b : g_buffers) {
    std::vector<double> child_s(b->spans.size(), 0.0);
    for (const Span& s : b->spans)
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += (s.t1 - s.t0) * 1e-9;
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      NameStats& st = out[s.name];
      const double d = (s.t1 - s.t0) * 1e-9;
      ++st.count;
      st.total_s += d;
      st.self_s += d - child_s[i];
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      char parent[32] = "null";
      if (s.parent >= 0) std::snprintf(parent, sizeof parent, "\"%d.%d\"", b->thread, s.parent);
      std::fprintf(f,
                   "{\"run\":%llu,\"id\":\"%d.%zu\",\"parent\":%s,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(g_run_id), b->thread, i, parent, s.name,
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
