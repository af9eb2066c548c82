// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files only — around calls
// into the model checker's public functions (decorators in timed.h, the
// history replay in replay.cc). Each thread appends to its own log, so
// concurrent swarm workers never contend; a span's parent is the span
// open on the same thread when it started. Logs stay in memory until
// WriteJson() at exit. Recording is off unless set_enabled(true), and an
// off tracer costs one relaxed load per scope.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;   // index into Tracer::names()
  std::int32_t parent = -1;  // index in the same thread's log; -1 = root
  std::uint32_t run = 0;    // Tracer::set_run() value when opened
  Nanos start = 0;
  Nanos end = 0;
};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of unfinished span indices
};

// Per-name totals over a set of runs. Self time is a span's duration
// minus the part of it its child spans cover.
struct LayerTable {
  std::map<std::string, Nanos> self;
  std::map<std::string, Nanos> total;
  std::map<std::string, std::vector<Nanos>> durations;  // per span
};

class Tracer {
 public:
  static Tracer& Get();

  // Interns a span name; call before recording starts.
  std::uint32_t Name(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  // Tags spans opened from now on (any thread) with `run`.
  void set_run(std::uint32_t run) { run_.store(run, std::memory_order_relaxed); }

  // Span bracket; returns the span's index in this thread's log, or -1
  // when recording is off. Close(-1) is a no-op.
  std::int32_t Open(std::uint32_t name);
  void Close(std::int32_t index);

  // Aggregates the spans of the given runs. Call only after every thread
  // that recorded has been joined.
  LayerTable Aggregate(const std::vector<std::uint32_t>& runs) const;

  // One JSON document: span names, run descriptions, and every span as
  // [name, start_ns, end_ns, parent, run, thread] (parent is an index in
  // the same thread's span list).
  bool WriteJson(const std::string& path,
                 const std::map<std::uint32_t, std::string>& runs,
                 const std::string& workload) const;

 private:
  ThreadLog& Local();

  mutable std::mutex mu_;  // guards names_ and logs_ (not the logs' spans)
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> run_{0};
};

class Scope {
 public:
  explicit Scope(std::uint32_t name) : index_(Tracer::Get().Open(name)) {}
  ~Scope() { Tracer::Get().Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
