// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the program's public functions
// (nothing inside src/ is instrumented) and written out once, at exit, as
// Chrome trace-event JSON (chrome://tracing, Perfetto).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;   ///< Module the timed call belongs to.
    uint64_t id = 0;
    uint64_t parent = 0; ///< Span that caused this one (0: none).
    uint64_t op = 0;     ///< The pass or round the span belongs to.
    int tid = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  /// Times one call; records the span when it goes out of scope, unless
  /// `tracer` is null. Spans nest per thread. A span opened on a thread with no open span (a
  /// boot on an orchestrator worker) takes the outermost open span of
  /// the thread that opened one as its parent.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    Clock::time_point start_;
  };

  explicit Tracer(uint64_t op = 0) : epoch_(Clock::now()), op_(op) {}

  /// Tags every span opened from now on with operation `op`.
  void SetOp(uint64_t op) { op_.store(op, std::memory_order_relaxed); }

  /// Durations in ms of every recorded span named `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON; false on IO failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  std::atomic<uint64_t> op_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> root_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Guarded by mutex_.
};

/// Calls `fn` inside a span (none when `tracer` is null).
template <typename Fn>
auto
Traced(Tracer* tracer, const char* name, const char* layer, Fn&& fn)
{
  Tracer::Scope scope(tracer, name, layer);
  return fn();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
