#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

/// Small stable thread ids for the trace viewer's rows.
int
ThreadId()
{
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint64_t> open_spans;

std::string
Escaped(const std::string& s)
{
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string layer)
    : tracer_(tracer)
{
  if (!tracer_) return;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.id = tracer_->next_id_.fetch_add(1);
  span_.op = tracer_->op_.load(std::memory_order_relaxed);
  span_.tid = ThreadId();
  if (!open_spans.empty()) {
    span_.parent = open_spans.back();
  } else {
    span_.parent = tracer_->root_.load();
    if (span_.parent == 0) {
      uint64_t expected = 0;
      tracer_->root_.compare_exchange_strong(expected, span_.id);
    }
  }
  open_spans.push_back(span_.id);
  start_ = Clock::now();
}

Tracer::Scope::~Scope()
{
  if (!tracer_) return;
  const Clock::time_point end = Clock::now();
  open_spans.pop_back();
  uint64_t self = span_.id;
  tracer_->root_.compare_exchange_strong(self, 0);
  span_.start_us =
      std::chrono::duration<double, std::micro>(start_ - tracer_->epoch_)
          .count();
  span_.dur_us = std::chrono::duration<double, std::micro>(end - start_)
                     .count();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(std::move(span_));
}

std::vector<double>
Tracer::DurationsMs(const std::string& name) const
{
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_us / 1000.0);
  }
  return out;
}

bool
Tracer::WriteChromeJson(const std::string& path) const
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                 i ? ",\n" : "", Escaped(s.name).c_str(),
                 Escaped(s.layer).c_str(), s.tid, s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
