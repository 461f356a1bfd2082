// Span recorder for the traced run. Spans are recorded only here, in the
// benchmark, around each call into one of the program's public layers: name,
// start, end, parent and a trace id (one voter's registration spans share the
// voter as trace id, one ballot's cast spans share the cast index). They stay
// in memory and are written once, at exit, as Chrome trace-event JSON with
// each span's self time (duration minus the part its children cover).
//
// The recorder is single-threaded: every span opens and closes on the
// benchmark's driving thread. Work the program fans out to its executor is
// covered by the span of the call that waits for it.
#ifndef LIFEBENCH_SRC_TRACE_H_
#define LIFEBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lifebench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t trace_id = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  // total duration of direct children

    double duration_us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
    double self_us() const { return static_cast<double>(end_ns - start_ns - child_ns) * 1e-3; }
  };

  Tracer();

  // Recording is switched per call site, so a traced run can interleave
  // traced and untraced samples of the same phase and measure the
  // recorder's own overhead.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index (or -1
  // when disabled).
  int64_t Begin(const char* name, uint64_t trace_id);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" complete events; args carry trace id,
  // parent and self time). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

// RAII span; free when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t trace_id)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.Begin(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      tracer_.End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_;
};

}  // namespace lifebench

#endif  // LIFEBENCH_SRC_TRACE_H_
