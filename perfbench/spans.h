// In-memory span log for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer: one "job" span per timed job and, under it, one span per
// layer call (network set-up, one per host around the host-level entry
// point). Every span carries its name, layer, start, end, parent and job
// id. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kNoParent = UINT64_MAX;

struct Span {
  std::string name;
  std::string layer;
  uint64_t job = 0;
  uint64_t parent = kNoParent;
  double start = 0.0;  // seconds since the log's origin
  double end = 0.0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Opens a span and returns its id. Thread-safe: host threads open and
  // close their spans concurrently.
  uint64_t begin(std::string name, std::string layer, uint64_t job,
                 uint64_t parent = kNoParent);
  void end(uint64_t id);

  std::vector<Span> spans() const;

  // Per job, the summed self time of each layer's spans: a span's duration
  // minus the part of it that its child spans cover. Concurrent host spans
  // add up, so a layer's self time is in thread-seconds.
  std::map<uint64_t, std::map<std::string, double>> selfTimeByJob() const;

  bool writeJson(const std::string& path) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII helper; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer, uint64_t job,
             uint64_t parent = kNoParent)
      : log_(log),
        id_(log ? log->begin(std::move(name), std::move(layer), job, parent)
                : kNoParent) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_) {
      log_->end(id_);
    }
  }
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace perfbench
