// In-memory span recorder for the traced replay. Spans are recorded by
// the benchmark around calls into the library's public entry points (no
// instrumentation inside the program); each has a name, the layer it is
// charged to, start and end, and the span that caused it. Spans stay in
// memory until the run ends, then reduce to per-layer self times: a
// span's duration minus the part of its interval its children cover.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t id = 0;      // 1-based; 0 means "no span"
  uint32_t parent = 0;  // 0 for a root
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
};

// Self time of every span, indexed like `spans`: its duration minus the
// union of its children's intervals clipped to it. Children may overlap
// (parallel tasks under one job span); overlapped time is subtracted
// once.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

struct LayerBreakdown {
  // Summed self time per layer, in microseconds.
  std::map<std::string, double> self_us;
  // Root span duration and the share of it covered by its descendants
  // (1 - root self time / root duration).
  double root_us = 0.0;
  double coverage = 0.0;
};

// Breakdown of the tree under the single root span named `root_name`.
LayerBreakdown Breakdown(const std::vector<Span>& spans,
                         const std::string& root_name);

class Tracer {
 public:
  // A disabled tracer records nothing; its scopes cost one branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // RAII span. The parent is the innermost open scope on this thread,
  // unless one is given (spans opened on executor threads under a span
  // of the submitting thread).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer,
          uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer* tracer_;
    uint32_t id_ = 0;
    uint32_t saved_current_ = 0;
  };

  // Innermost open span on the calling thread (0 if none).
  static uint32_t Current();

  std::vector<Span> spans() const;

 private:
  double NowUs() const;
  uint32_t Open(const char* name, const char* layer, uint32_t parent);
  void Close(uint32_t id);

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; spans_[id - 1]
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
