// Load generators over loopback XksClient connections.
//
//   * Closed loop: each connection sends its next request when the previous
//     reply arrives. Used for single-connection latency and for peak_qps
//     with one connection per core.
//   * Open loop: sessions arrive on a seeded Poisson schedule regardless of
//     how fast replies come back. A session's first page is timed from its
//     intended send time, so a stall also charges every request it delayed
//     (no coordinated omission); follow-up cursor pages are timed from the
//     moment the previous page arrived. The generator reports how late it
//     sent (actual minus intended send time) and keeps each connection's
//     in-flight count below the service's per-client quota.
//
// Every non-OK reply counts as a failed operation, broken down by status.

#ifndef XKS_LOADBENCH_LOAD_H_
#define XKS_LOADBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "loadbench/bench_common.h"
#include "src/api/search_types.h"

namespace xks::loadbench {

/// What the checks need from one received page.
struct HitSummary {
  DocumentId document = 0;
  double score = 0;
  /// Root Dewey code of the fragment, read from the snippet's first line.
  std::string root;
};
struct PageSummary {
  bool ok = false;
  std::string status;  ///< Status code name when !ok.
  uint64_t total_hits = 0;
  bool total_is_exact = true;
  bool has_cursor = false;
  std::vector<HitSummary> hits;
};
PageSummary Summarize(const SearchResponse& response);

struct PhaseResult {
  std::string name;
  double elapsed_s = 0;
  uint64_t completed_ok = 0;
  /// Latencies of the phase's main operation and of cursor pages.
  std::vector<double> latency_ms;
  std::vector<double> next_page_ms;
  /// Open loop only: actual minus intended send time of first pages.
  std::vector<double> lateness_ms;
  OpCounts ops;
  /// Reply checks that failed during the phase (first few described).
  uint64_t check_failures = 0;
  std::vector<std::string> failure_examples;
  /// Transport-level failure (connection lost); fails the run.
  std::string transport_error;

  void Fail(const std::string& what);
  /// One-line summary for the text report.
  std::string Describe() const;
};

/// Checks one reply of request `index`; returns an empty string when fine.
using ReplyCheck =
    std::function<std::string(size_t index, const SearchResponse& response)>;

struct ClosedLoopConfig {
  std::string name;
  uint16_t port = 0;
  size_t connections = 1;
  /// Runs until this long has elapsed and every connection has finished at
  /// least `min_rounds` whole passes over the request list.
  double seconds = 1;
  size_t min_rounds = 0;
  uint64_t seed = 0;
};

/// Each connection cycles over `requests` (seeded order per pass).
PhaseResult RunClosedLoop(const ClosedLoopConfig& config,
                          const std::vector<SearchRequest>& requests,
                          const ReplyCheck& check);

/// One open-loop session: a first page and up to `extra_pages` cursor pages.
struct Session {
  SearchRequest first;
  size_t extra_pages = 0;
  size_t tag = 0;  ///< Caller's label (pool index), echoed in the results.
  /// Filled by the run: every page received, in order.
  std::vector<PageSummary> pages;
};

struct OpenLoopConfig {
  std::string name;
  uint16_t port = 0;
  size_t connections = 1;
};

/// Seeded Poisson arrival offsets (seconds from phase start): rate x
/// seconds arrivals with exponential gaps.
std::vector<double> PoissonSchedule(double rate, double seconds, uint64_t seed);

/// Runs `sessions` (one per scheduled arrival, in order; size must match
/// the schedule) and records their pages in place.
PhaseResult RunOpenLoop(const OpenLoopConfig& config,
                        const std::vector<double>& schedule,
                        std::vector<Session>* sessions);

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_LOAD_H_
