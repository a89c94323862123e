// In-memory span recording for the traced replay. A span is a name, a start
// and end time, the span that caused it and the id of the request it
// belongs to. Spans are appended to one vector while the replay runs and
// written out (one TSV line each) when it ends; the summariser prints each
// layer's self time (its duration minus the part its child spans cover)
// and its count.

#ifndef XKS_LOADBENCH_SPANS_H_
#define XKS_LOADBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "loadbench/bench_common.h"
#include "src/common/status.h"

namespace xks::loadbench {

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and reads no clock.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  struct Span {
    const char* name = "";
    uint32_t request = 0;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    double duration_us() const { return (end_ns - start_ns) / 1e3; }
  };

  /// Opens a span under `parent` (-1 = a root of the current request);
  /// returns its id, or -1 when disabled.
  int32_t Begin(const char* name, int32_t parent = -1);
  void End(int32_t span);
  void set_request(uint32_t request) { request_ = request; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (µs) of the spans named `name`, per request.
  std::map<uint32_t, double> SumByRequest(const std::string& name) const;

  /// Writes "request\tspan\tparent\tname\tstart_ns\tend_ns" lines.
  Status WriteTsv(const std::string& path) const;

  /// Per-name count and self time (total and mean per span), one line
  /// each, largest total first.
  std::string Summary() const;

 private:
  bool enabled_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, int32_t parent = -1)
      : recorder_(recorder), id_(recorder->Begin(name, parent)) {}
  ~SpanScope() { recorder_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_SPANS_H_
