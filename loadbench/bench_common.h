// Shared plumbing of the load benchmark: a seeded random source, sample
// summaries, the run report (human-readable lines plus the final JSON
// object), the run header and process memory readings.

#ifndef XKS_LOADBENCH_BENCH_COMMON_H_
#define XKS_LOADBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xks::loadbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: the benchmark's only random source, so every input and
/// schedule is a pure function of the seed on every platform.
class Random {
 public:
  explicit Random(uint64_t seed) : state_(seed * 0x2545F4914F6CDD1DULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Sampler over ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Random* random) const;

 private:
  std::vector<double> cumulative_;
};

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The highest percentile of `n` samples that keeps at least ten samples
/// beyond it: 99 needs 1000, 90 needs 100; 0 when even p90 has no tail.
double SupportedTailPercentile(size_t n);

/// Operation tallies per operation type, failures broken down by status.
class OpCounts {
 public:
  void Ok(const std::string& op) { ++attempted_[op]; }
  void Failed(const std::string& op, const std::string& status) {
    ++attempted_[op];
    ++failed_[op][status];
  }
  void Merge(const OpCounts& other);
  uint64_t attempted() const;
  uint64_t failed() const;
  /// One "ops <type> attempted=N failed=M [status=count ...]" line each.
  std::string ToString() const;

 private:
  std::map<std::string, uint64_t> attempted_;
  std::map<std::string, std::map<std::string, uint64_t>> failed_;
};

/// Collects the run's metrics and output-check verdicts, and prints them.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Informational figure: printed, not part of the final JSON object.
  void Note(const std::string& line);
  /// Records a check; a false verdict makes the run fail.
  void Check(const std::string& name, bool passed, const std::string& detail);
  bool all_checks_passed() const { return checks_failed_ == 0; }
  OpCounts& ops() { return ops_; }
  /// Prints notes, checks and metrics as text, then the final JSON line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  size_t checks_failed_ = 0;
  OpCounts ops_;
};

/// One progress line on stderr ("loadbench: +1.234s <what>").
void Progress(const std::string& what);

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// CPU time (user + system) consumed by this process / by the calling
/// thread, in seconds. Time the hypervisor gives other guests is not
/// charged to either.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Peak resident set of this process in MiB (VmHWM), 0 when unreadable.
double PeakRssMb();

/// Hardware threads available to this process (sched affinity), >= 1.
size_t NumCpus();

/// Prints the "# run-header {...}" line; the compare script keys on it.
void PrintRunHeader(const std::string& binary, const std::string& workload,
                    uint64_t seed, double seconds, bool trace,
                    const std::map<std::string, double>& phase_seconds);

/// The build type this binary was compiled under ("Release", ...).
const char* BuildType();

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_BENCH_COMMON_H_
