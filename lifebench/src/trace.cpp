#include "lifebench/src/trace.h"

#include <cstdio>

#include "src/common/status.h"

namespace lifebench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t trace_id) {
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int64_t index) {
  votegral::Require(!open_.empty() && open_.back() == index, "Tracer: spans must nest");
  open_.pop_back();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"trace_id\":%llu,\"parent\":%lld,\"self_us\":%.3f}}%s\n",
                 s.name, static_cast<double>(s.start_ns) * 1e-3, s.duration_us(), i,
                 static_cast<unsigned long long>(s.trace_id), static_cast<long long>(s.parent),
                 s.self_us(), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace lifebench
