#include "loadbench/bench_common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace xks::loadbench {
namespace {

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

double Random::Exponential(double mean) {
  // 1 - Unit() lies in (0, 1], so the log is finite.
  return -std::log(1.0 - Unit()) * mean;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  cumulative_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

size_t Zipf::Draw(Random* random) const {
  const double u = random->Unit();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) return cumulative_.size() - 1;
  return static_cast<size_t>(it - cumulative_.begin());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double SupportedTailPercentile(size_t n) {
  if (n >= 1000) return 99;
  if (n >= 100) return 90;
  return 0;
}

void OpCounts::Merge(const OpCounts& other) {
  for (const auto& [op, n] : other.attempted_) attempted_[op] += n;
  for (const auto& [op, by_status] : other.failed_) {
    for (const auto& [status, n] : by_status) failed_[op][status] += n;
  }
}

uint64_t OpCounts::attempted() const {
  uint64_t total = 0;
  for (const auto& [op, n] : attempted_) total += n;
  return total;
}

uint64_t OpCounts::failed() const {
  uint64_t total = 0;
  for (const auto& [op, by_status] : failed_) {
    for (const auto& [status, n] : by_status) total += n;
  }
  return total;
}

std::string OpCounts::ToString() const {
  std::ostringstream out;
  for (const auto& [op, n] : attempted_) {
    uint64_t failed = 0;
    std::string detail;
    auto it = failed_.find(op);
    if (it != failed_.end()) {
      for (const auto& [status, count] : it->second) {
        failed += count;
        detail += " " + status + "=" + std::to_string(count);
      }
    }
    out << "ops " << op << " attempted=" << n << " failed=" << failed << detail
        << "\n";
  }
  return out.str();
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Check(const std::string& name, bool passed,
                   const std::string& detail) {
  if (!passed) ++checks_failed_;
  notes_.push_back(std::string("check ") + (passed ? "PASS " : "FAIL ") + name +
                   (detail.empty() ? "" : ": " + detail));
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("%s", ops_.ToString().c_str());
  for (const Entry& m : metrics_) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += all_checks_passed() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(ops_.attempted(), 1));
  json += ", \"failed\": " + std::to_string(ops_.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "loadbench: +%.3fs %s\n",
               MsBetween(start, Clock::now()) / 1e3, what.c_str());
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line: user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return now.tv_sec + now.tv_nsec / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

size_t NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

const char* BuildType() {
#ifdef XKS_LOADBENCH_BUILD_TYPE
  return XKS_LOADBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void PrintRunHeader(const std::string& binary, const std::string& workload,
                    uint64_t seed, double seconds, bool trace,
                    const std::map<std::string, double>& phase_seconds) {
  const char* commit = std::getenv("XKS_LOADBENCH_COMMIT");
  std::string json = "{\"binary\": " + JsonString(binary) +
                     ", \"num_cpus\": " + std::to_string(NumCpus()) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": " + JsonString(BuildType()) +
                     ", \"compiler\": " + JsonString(__VERSION__) +
                     ", \"commit\": " +
                     JsonString(commit != nullptr ? commit : "unknown") +
                     ", \"workload\": " + JsonString(workload) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"seconds\": " + JsonNumber(seconds) +
                     ", \"trace\": " + (trace ? "1" : "0") +
                     ", \"phases\": {";
  bool first = true;
  for (const auto& [phase, length] : phase_seconds) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(phase) + ": " + JsonNumber(length);
  }
  json += "}}";
  std::printf("# run-header %s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace xks::loadbench
