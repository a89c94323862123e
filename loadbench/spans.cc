#include "loadbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace xks::loadbench {

int32_t SpanRecorder::Begin(const char* name, int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
}

std::map<uint32_t, double> SpanRecorder::SumByRequest(const std::string& name) const {
  std::map<uint32_t, double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out[span.request] += span.duration_us();
  }
  return out;
}

Status SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  out << "request\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

std::string SpanRecorder::Summary() const {
  struct Row {
    double self_us = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.duration_us();
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    row.self_us += spans_[i].duration_us() - child_us[i];
    ++row.count;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "span %-24s %10s %14s %14s\n", "name", "count",
                "self_ms_total", "self_us_mean");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "span %-24s %10llu %14.2f %14.2f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.self_us / 1e3, row.self_us / static_cast<double>(row.count));
    out << line;
  }
  return out.str();
}

}  // namespace xks::loadbench
