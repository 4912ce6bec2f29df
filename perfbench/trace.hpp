// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into the
// program's public functions; nothing inside the program is instrumented.
// Each thread appends to its own buffer (no lock on the hot path); buffers
// are owned by a registry that outlives the threads, and are only read
// after every recording thread has been joined, so the join is the
// happens-before edge for the reads in summarize() and write_jsonl().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Tracer {
 public:
  /// Aggregate of every span with one name.
  struct NameStats {
    std::size_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< durations minus the time covered by child spans
  };

  /// Turns recording on for the rest of the process; `run_id` is stamped on
  /// every span written out.
  static void enable(std::uint64_t run_id);
  static void disable();
  static bool enabled();

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on the same thread. Returns a handle for close().
  static int open(const char* name);
  static void close(int handle);

  /// Per-name statistics over every recorded span. Call only after all
  /// recording threads have been joined.
  static std::map<std::string, NameStats> summarize();

  /// Writes one JSON object per span (name, start, end, parent, run id).
  /// Returns false when the file cannot be written.
  static bool write_jsonl(const std::string& path);

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// RAII span; free when tracing is off (one relaxed load).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : handle_(Tracer::enabled() ? Tracer::open(name) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int handle_;
};

}  // namespace perfbench
