// In-memory span recorder for the benchmark's traced run. A span wraps one
// call from the benchmark into a layer's public function: name, start, end,
// the enclosing span, the request it belongs to, and any counts observed
// at that boundary. Spans stay in memory and are written out once, as
// Chrome trace-event JSON (loads in Perfetto and about:tracing).
//
// A Span always times itself, so untraced runs use the same code for their
// end-to-end numbers; with tracing off, recording costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  int64_t request = 0;  ///< 0 = not part of a request
  uint32_t thread = 0;
  std::vector<std::pair<std::string, double>> counts;

  double ms() const { return (end_ns - start_ns) / 1e6; }
  double Count(const std::string& key) const;
};

/// CPU time consumed so far by the calling thread (ns). Single-threaded
/// work timed with it is insensitive to how much of a core other
/// processes on the host take, which wall time is not.
int64_t ThreadCpuNs();
/// CPU time consumed so far by all threads of the process (ns).
int64_t ProcessCpuNs();

class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  int64_t NowNs() const;
  int64_t NextId();
  void Record(SpanRecord span);
  /// Every span recorded so far, in completion order.
  std::vector<SpanRecord> Snapshot() const;
  /// Writes the spans as {"traceEvents": [...]} complete ("X") events.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  int64_t next_id_ = 0;  // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Times a scope; records it as a span when tracing is on. Nested Spans on
/// one thread become children; `request` (when nonzero) tags this span
/// and, by inheritance, its descendants.
class Span {
 public:
  explicit Span(const char* name, int64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a count observed at this boundary (kept only when traced).
  void Count(const char* key, double value);
  /// Milliseconds since the span opened.
  double ElapsedMs() const;

 private:
  const char* name_;
  int64_t start_ns_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t request_ = 0;
  int64_t saved_request_ = 0;
  std::vector<std::pair<std::string, double>> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
