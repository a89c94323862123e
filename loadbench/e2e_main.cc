// xks_loadbench — the end-to-end benchmark command. It hosts the system in
// this process (one node, or a two-shard fleet behind the coordinator),
// drives it over loopback XksClient connections, prints every end-to-end
// metric by name and unit, the operations attempted and failed per type,
// and the verdict of every output check; the last line is one JSON object.
//
//   xks_loadbench --workload <paper-exhaustive|interactive-fleet|churn>
//                 --seed <n> --seconds <s>
//
// It uses only the public surfaces: api, server, coord, datagen, and xml /
// text for the checks. The per-layer numbers come from the separate
// xks_layer_replay target (see replay_main.cc).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "loadbench/bench_common.h"
#include "loadbench/checks.h"
#include "loadbench/hosting.h"
#include "loadbench/inputs.h"
#include "loadbench/load.h"
#include "loadbench/reference.h"
#include "src/server/client.h"
#include "src/server/wire.h"

namespace xks::loadbench {
namespace {

/// Set-up is repeated this many times per run, half before the timed
/// phases and half after the workload has ended; setup_s is the median.
constexpr size_t kSetupRepeats = 12;
/// Offered open-loop rates (sessions/s) and the churn writer's rate
/// (mutations/s); see README.md for why they sit below saturation.
constexpr double kFleetRate = 200;
constexpr double kChurnReadRate = 110;
constexpr double kChurnWriteRate = 1;
/// Share of the churn run spent in the open loop (the rest is the peak
/// phase): at kChurnReadRate over a 20 s run the phase line's p99 keeps ten
/// samples beyond it.
constexpr double kChurnOpenShare = 0.7;
/// Whole rounds the paper-exhaustive latency phase must complete: 13 x 80
/// requests keeps ten samples beyond the phase line's p99.
constexpr size_t kPaperLatencyRounds = 13;
/// Mutation probe of the read-only workloads: rounds over every document.
constexpr size_t kProbeRounds = 4;
/// Full walks after the run: every pool rank below kWalkedHead and every
/// kWalkedTailStride-th rank after it.
constexpr size_t kWalkedHead = 64;
constexpr size_t kWalkedTailStride = 16;
/// Closed-loop peak phases run as this many slices; peak_qps is the median
/// slice rate, so one stalled slice does not move it.
constexpr size_t kPeakSlices = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
};

std::string Format(const char* fmt, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, value);
  return buffer;
}

/// Host CPU steal during the timed phases: the share of this machine's CPU
/// time the hypervisor gave to other guests. Printed so runs made under
/// host contention can be told apart.
void NoteSteal(const CpuTicks& before, Report* report) {
  const CpuTicks after = ReadCpuTicks();
  const uint64_t total = after.total - before.total;
  report->Note("host steal share during the timed phases: " +
               Format("%.2f", total == 0 ? 0.0 : 100.0 * (after.steal - before.steal) / total) +
               "%");
}

/// query_cpu_ms: process CPU time (server, coordinator and client threads
/// together) per query completed in the phase. Unlike wall-clock latency it
/// is not charged for time the host gives to other guests, which made the
/// wall-clock medians too unsteady to gate on a shared host.
void CpuPerQuery(double cpu_seconds, const PhaseResult& phase, Report* report) {
  report->Metric("query_cpu_ms",
                 cpu_seconds * 1e3 / std::max<uint64_t>(phase.completed_ok, 1), "ms");
}

/// Shared end-of-run bookkeeping for every phase.
void Absorb(const PhaseResult& phase, Report* report) {
  report->Note(phase.Describe());
  report->ops().Merge(phase.ops);
  report->Check("phase " + phase.name + " transport", phase.transport_error.empty(),
                phase.transport_error);
  std::string detail = std::to_string(phase.check_failures) + " failed";
  for (const std::string& f : phase.failure_examples) detail += "; " + f;
  report->Check("phase " + phase.name + " reply checks", phase.check_failures == 0,
                phase.check_failures == 0 ? "" : detail);
}

/// The closed-loop peak phase as kPeakSlices equal slices; returns the
/// median slice throughput.
double RunPeak(ClosedLoopConfig config, const std::vector<SearchRequest>& requests,
               const ReplyCheck& check, Report* report) {
  const std::string name = config.name;
  config.seconds /= kPeakSlices;
  config.min_rounds = 0;
  std::vector<double> qps;
  for (size_t i = 0; i < kPeakSlices; ++i) {
    config.name = name + "-" + std::to_string(i + 1);
    config.seed += 1;
    const PhaseResult slice = RunClosedLoop(config, requests, check);
    Absorb(slice, report);
    qps.push_back(slice.completed_ok / std::max(slice.elapsed_s, 1e-9));
  }
  return Median(qps);
}

/// Wall-clock figures, printed but not gated: see README.md (End-to-end
/// metrics).
void WallClockNotes(const PhaseResult& latency, double peak_qps, Report* report) {
  report->Note("metric query_p50_ms = " +
               Format("%.6g", Percentile(latency.latency_ms, 50)) + " ms");
  report->Note("metric peak_qps = " + Format("%.6g", peak_qps) + " queries/s");
}

/// Times set-up: half the repeats before the timed phases (the last one's
/// hosting serves the workload) and half after the workload has released
/// it, so the median spans the whole run; this host's speed drifts over
/// tens of seconds. Reports the median as setup_s.
class SetupTimer {
 public:
  /// `start` must own what it captures: it runs again after the workload
  /// function has returned.
  template <typename Hosting>
  Result<std::unique_ptr<Hosting>> Start(
      std::function<Result<std::unique_ptr<Hosting>>()> start) {
    std::unique_ptr<Hosting> hosting;
    for (size_t i = 0; i < kSetupRepeats / 2; ++i) {
      hosting.reset();
      Result<std::unique_ptr<Hosting>> started = Timed(start);
      if (!started.ok()) return started.status();
      hosting = std::move(started).value();
    }
    again_ = [this, start] { return Timed(start).status(); };
    return hosting;
  }

  /// Runs the remaining set-ups and reports setup_s.
  void Finish(Report* report) {
    if (!again_) return;
    while (seconds_.size() < kSetupRepeats) {
      if (Status s = again_(); !s.ok()) {
        report->Check("setup", false, s.ToString());
        return;
      }
    }
    report->Metric("setup_s", Median(seconds_), "s");
  }

 private:
  /// Times one set-up; the hosting's teardown is not timed.
  template <typename Start>
  auto Timed(const Start& start) {
    const Clock::time_point t0 = Clock::now();
    auto started = start();
    seconds_.push_back(MsBetween(t0, Clock::now()) / 1e3);
    return started;
  }

  std::vector<double> seconds_;
  std::function<Status()> again_;
};

/// Open-loop connections: each runs a sender and a receiver thread, so
/// half as many connections as cores keeps the load generator within one
/// thread per core.
size_t OpenLoopConnections() { return std::max<size_t>(1, NumCpus() / 2); }

/// The seed-independent head of the pool, ranked and unranked: the request
/// list of the interactive peak phases.
std::vector<SearchRequest> HeadRequests(const std::vector<PoolQuery>& pool) {
  std::vector<SearchRequest> out;
  for (size_t rank = 0; rank < kPoolHead; ++rank) {
    for (const bool ranked : {true, false}) {
      out.push_back(FirstPageRequest(pool[rank], ranked));
    }
  }
  return out;
}

size_t XmlBytes(const std::vector<XmlDoc>& docs) {
  size_t bytes = 0;
  for (const XmlDoc& doc : docs) bytes += doc.xml.size();
  return bytes;
}

/// Replaces documents in `rounds` passes with their next seed variant,
/// timing each ReplaceDocumentXml; every call must publish exactly one new
/// epoch. `db_of` maps a corpus position to the database holding it.
void MutationProbe(size_t rounds,
                   const std::function<Database*(size_t)>& db_of,
                   Report* report) {
  Progress("mutation probe");
  std::vector<std::vector<XmlDoc>> variants;
  for (size_t v = 1; v <= rounds; ++v) variants.push_back(GenerateCorpusXml(v));
  std::vector<double> ms;
  uint64_t bad = 0;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t d = 0; d < variants[r].size(); ++d) {
      Database* db = db_of(d);
      const uint64_t before = db->epoch();
      const Clock::time_point t0 = Clock::now();
      Result<DocumentId> id =
          db->ReplaceDocumentXml(variants[r][d].spec.name, variants[r][d].xml);
      ms.push_back(MsBetween(t0, Clock::now()));
      if (!id.ok()) {
        report->ops().Failed("mutation", std::string(StatusCodeName(id.status().code())));
        continue;
      }
      report->ops().Ok("mutation");
      if (db->epoch() != before + 1) ++bad;
    }
  }
  report->Note("mutation samples ms: min=" + Format("%.1f", Percentile(ms, 0)) +
               " p25=" + Format("%.1f", Percentile(ms, 25)) +
               " p50=" + Format("%.1f", Percentile(ms, 50)) +
               " p75=" + Format("%.1f", Percentile(ms, 75)) +
               " max=" + Format("%.1f", Percentile(ms, 100)));
  report->Check("mutation probe advances the epoch by one", bad == 0,
                std::to_string(bad) + " bad");
  report->Metric("mutation_p50_ms", Median(ms), "ms");
}

// ---------------------------------------------------------------------------
// paper-exhaustive

void RunPaperExhaustive(const Args& args, SetupTimer* setup, Report* report) {
  const std::vector<XmlDoc> docs = GenerateCorpusXml();
  const std::vector<PoolQuery> queries = PaperQueries();
  std::vector<SearchRequest> requests;
  std::vector<std::string> texts;
  for (const PruningPolicy pruning :
       {PruningPolicy::kValidContributor, PruningPolicy::kContributor}) {
    for (const PoolQuery& q : queries) {
      requests.push_back(ExhaustiveRequest(q, pruning));
      texts.push_back(q.text);
    }
  }
  // Expected totals come from the definitional reference, computed before
  // timing so replies can be checked as they arrive.
  std::vector<size_t> expected_totals;
  {
    const auto ref = BuildReference(CorpusPlan());
    for (const std::string& text : texts) {
      expected_totals.push_back(ReferenceCount(ref, text));
    }
  }

  Result<std::unique_ptr<SingleNode>> started =
      setup->Start<SingleNode>([docs] { return StartSingleNode(docs); });
  if (!started.ok()) {
    report->Check("setup", false, started.status().ToString());
    return;
  }
  SingleNode& node = *started.value();
  report->Metric("stored_bytes_per_xml_byte",
                 static_cast<double>(StoredBytes(node.db)) / XmlBytes(docs),
                 "ratio");

  const ReplyCheck check = [&](size_t i, const SearchResponse& r) -> std::string {
    if (r.total_hits == expected_totals[i] && r.hits.size() == r.total_hits) {
      return "";
    }
    return "'" + texts[i] + "' total_hits " + std::to_string(r.total_hits) +
           ", reference " + std::to_string(expected_totals[i]);
  };
  const CpuTicks ticks = ReadCpuTicks();
  ClosedLoopConfig warm;
  warm.name = "warmup";
  warm.port = node.port();
  warm.min_rounds = 1;
  warm.seconds = 0;
  warm.seed = args.seed;
  Absorb(RunClosedLoop(warm, requests, check), report);

  ClosedLoopConfig latency = warm;
  latency.name = "latency";
  latency.seconds = args.seconds * 0.55;
  latency.min_rounds = kPaperLatencyRounds;
  const double cpu_before = ProcessCpuSeconds();
  const PhaseResult latency_result = RunClosedLoop(latency, requests, check);
  CpuPerQuery(ProcessCpuSeconds() - cpu_before, latency_result, report);
  Absorb(latency_result, report);

  ClosedLoopConfig peak = warm;
  peak.name = "peak";
  peak.connections = NumCpus();
  peak.seconds = args.seconds * 0.45;
  const double peak_qps = RunPeak(peak, requests, check, report);

  WallClockNotes(latency_result, peak_qps, report);
  NoteSteal(ticks, report);
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");

  Progress("checks");
  // Checks outside the timed window.
  const auto ref = BuildReference(CorpusPlan());
  Result<XksClient> client = XksClient::Connect("127.0.0.1", node.port(), 5000);
  if (!client.ok()) {
    report->Check("connect", false, client.status().ToString());
    return;
  }
  std::string reference_problem;
  std::string wire_problem;
  for (size_t i = 0; i < requests.size(); ++i) {
    SearchRequest in_process = requests[i];
    in_process.include_raw_fragments = true;
    Result<SearchResponse> answer = node.db.Search(in_process);
    if (!answer.ok()) {
      reference_problem = answer.status().ToString();
      break;
    }
    if (reference_problem.empty()) {
      reference_problem = CheckExhaustiveAnswer(ref, texts[i], answer.value());
    }
    Result<SearchResponse> plain = node.db.Search(requests[i]);
    Result<XksClient::Reply> reply = client.value().Call(requests[i]);
    if (!plain.ok() || !reply.ok() || !reply.value().outcome.ok()) {
      wire_problem = "request " + std::to_string(i) + " failed";
    } else if (wire_problem.empty() &&
               reply.value().raw_response != EncodeSearchResponse(plain.value())) {
      wire_problem = "'" + texts[i] + "': wire bytes differ from the in-process answer";
    }
  }
  report->Check("hits, roots and keyword nodes equal the definitional reference",
                reference_problem.empty(), reference_problem);
  report->Check("wire bytes equal EncodeSearchResponse of the in-process answer",
                wire_problem.empty(), wire_problem);

  MutationProbe(kProbeRounds, [&](size_t) { return &node.db; }, report);
}

// ---------------------------------------------------------------------------
// interactive-fleet and churn share the Zipf pool and session shape.

std::vector<Session> MakeSessions(const std::vector<PoolQuery>& pool,
                                  size_t count, bool walks, uint64_t seed) {
  std::vector<Session> sessions;
  for (const SessionDraw& draw : DrawSessions(count, walks, seed)) {
    Session s;
    s.tag = draw.pool_index;
    s.first = FirstPageRequest(pool[draw.pool_index], draw.ranked);
    s.extra_pages = draw.extra_pages;
    sessions.push_back(std::move(s));
  }
  return sessions;
}

std::vector<SearchRequest> FirstPages(const std::vector<Session>& sessions) {
  std::vector<SearchRequest> out;
  for (const Session& s : sessions) out.push_back(s.first);
  return out;
}

/// Brings the result cache to its steady state with a Zipf stream before
/// timing (users do not pay a cold cache on every run).
void WarmCache(uint16_t port, const std::vector<PoolQuery>& pool, uint64_t seed,
               Report* report) {
  ClosedLoopConfig warm;
  warm.name = "warmup";
  warm.port = port;
  warm.connections = NumCpus();
  warm.min_rounds = 1;
  warm.seconds = 0;
  warm.seed = seed;
  const std::vector<Session> sessions = MakeSessions(pool, 400, false, seed + 17);
  Absorb(RunClosedLoop(warm, FirstPages(sessions), nullptr), report);
}

void WalkChecks(const std::vector<Session>& sessions,
                const std::vector<size_t>& expected, Report* report) {
  size_t walked = 0;
  std::string problem;
  for (const Session& s : sessions) {
    if (s.pages.size() > 1) ++walked;
    std::string p = CheckWalk(s.pages, s.first.rank, expected[s.tag]);
    if (!p.empty() && problem.empty()) problem = "'" + s.first.query + "': " + p;
  }
  report->Check("timed sessions: order, no repeats, exact totals",
                problem.empty(), problem);
  report->Note("sessions=" + std::to_string(sessions.size()) +
               " walked=" + std::to_string(walked));
}

void RunInteractiveFleet(const Args& args, SetupTimer* setup, Report* report) {
  const std::vector<XmlDoc> docs = GenerateCorpusXml();
  const std::vector<PoolQuery> pool = QueryPool();
  const std::vector<double> schedule =
      PoissonSchedule(kFleetRate, args.seconds * 0.6, args.seed);
  std::vector<Session> sessions =
      MakeSessions(pool, schedule.size(), /*walks=*/true, args.seed);

  Result<std::unique_ptr<Fleet>> started =
      setup->Start<Fleet>([docs] { return StartFleet(docs, 2); });
  if (!started.ok()) {
    report->Check("setup", false, started.status().ToString());
    return;
  }
  Fleet& fleet = *started.value();
  size_t stored = 0;
  for (const auto& db : fleet.shard_dbs) stored += StoredBytes(*db);
  report->Metric("stored_bytes_per_xml_byte",
                 static_cast<double>(stored) / XmlBytes(docs), "ratio");

  const CpuTicks ticks = ReadCpuTicks();
  WarmCache(fleet.port(), pool, args.seed, report);
  OpenLoopConfig open;
  open.name = "open-loop";
  open.port = fleet.port();
  open.connections = OpenLoopConnections();
  const double cpu_before = ProcessCpuSeconds();
  const PhaseResult open_result = RunOpenLoop(open, schedule, &sessions);
  CpuPerQuery(ProcessCpuSeconds() - cpu_before, open_result, report);
  Absorb(open_result, report);

  ClosedLoopConfig peak;
  peak.name = "peak";
  peak.port = fleet.port();
  peak.connections = NumCpus();
  peak.seconds = args.seconds * 0.4;
  peak.seed = args.seed;
  const double peak_qps = RunPeak(peak, HeadRequests(pool), nullptr, report);

  WallClockNotes(open_result, peak_qps, report);
  NoteSteal(ticks, report);
  report->Note("metric next_page_p50_ms = " +
               Format("%.6g", Percentile(open_result.next_page_ms, 50)) + " ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");

  Progress("checks");
  // Checks outside the timed window.
  const auto ref = BuildReference(CorpusPlan());
  std::vector<size_t> expected;
  for (const PoolQuery& q : pool) expected.push_back(ReferenceCount(ref, q.text));
  WalkChecks(sessions, expected, report);

  Result<XksClient> client = XksClient::Connect("127.0.0.1", fleet.port(), 5000);
  if (!client.ok()) {
    report->Check("connect", false, client.status().ToString());
    return;
  }
  // Full walks of the pool's head and a sample of its tail, both orders;
  // pages of ten unless the result set is large.
  std::string walk_problem;
  for (size_t i = 0; i < pool.size() && walk_problem.empty(); ++i) {
    if (i >= kWalkedHead && i % kWalkedTailStride != 0) continue;
    for (const bool ranked : {true, false}) {
      SearchRequest request = FirstPageRequest(pool[i], ranked);
      request.top_k = std::max<size_t>(10, expected[i] / 20);
      std::vector<PageSummary> pages;
      for (;;) {
        Result<XksClient::Reply> reply = client.value().Call(request);
        if (!reply.ok() || !reply.value().outcome.ok()) {
          walk_problem = "'" + pool[i].text + "': page failed";
          break;
        }
        pages.push_back(Summarize(reply.value().outcome.value()));
        if (reply.value().outcome.value().next_cursor.empty()) break;
        request.cursor = reply.value().outcome.value().next_cursor;
      }
      if (walk_problem.empty()) {
        std::string p = CheckWalk(pages, ranked, expected[i]);
        if (!p.empty()) walk_problem = "'" + pool[i].text + "': " + p;
      }
    }
  }
  report->Check("full walks via the coordinator equal the definitional count",
                walk_problem.empty(), walk_problem);

  Progress("coordinator against the union corpus");
  // The coordinator against one node serving the union corpus, on a sample
  // of first and second pages (cache bypassed, stats off).
  Database union_db;
  std::string union_problem;
  if (Status s = Ingest(docs, &union_db); !s.ok()) union_problem = s.ToString();
  for (size_t i = 0; i < 16 && union_problem.empty(); ++i) {
    for (const bool ranked : {true, false}) {
      SearchRequest request = FirstPageRequest(pool[i], ranked);
      request.use_cache = false;
      // Each side continues on its own cursor family.
      std::string union_cursor;
      std::string coord_cursor;
      for (int page = 0; page < 2 && union_problem.empty(); ++page) {
        SearchRequest union_request = request;
        union_request.cursor = union_cursor;
        SearchRequest coord_request = request;
        coord_request.cursor = coord_cursor;
        Result<SearchResponse> want = union_db.Search(union_request);
        Result<XksClient::Reply> got = client.value().Call(coord_request);
        if (!want.ok() || !got.ok() || !got.value().outcome.ok()) {
          union_problem = "'" + pool[i].text + "': request failed";
          break;
        }
        SearchResponse a = want.value();
        SearchResponse b = got.value().outcome.value();
        union_cursor = a.next_cursor;
        coord_cursor = b.next_cursor;
        a.next_cursor.clear();
        b.next_cursor.clear();
        if (union_cursor.empty() != coord_cursor.empty() ||
            EncodeSearchResponse(a) != EncodeSearchResponse(b)) {
          union_problem = "'" + pool[i].text + "' page " + std::to_string(page) +
                          ": coordinator differs from the union corpus";
        }
        if (union_cursor.empty()) break;
      }
    }
  }
  report->Check("coordinator pages equal the single-node union corpus",
                union_problem.empty(), union_problem);

  MutationProbe(kProbeRounds,
                [&](size_t d) {
                  return fleet.shard_dbs[fleet.ShardOf(static_cast<DocumentId>(d))]
                      .get();
                },
                report);
}

// ---------------------------------------------------------------------------
// churn

void RunChurn(const Args& args, SetupTimer* setup, Report* report) {
  const std::vector<XmlDoc> docs = GenerateCorpusXml();
  std::vector<std::vector<XmlDoc>> variants = {docs};
  for (size_t v = 1; v < kVariants; ++v) {
    variants.push_back(GenerateCorpusXml(v));
  }
  const std::vector<PoolQuery> pool = QueryPool();
  const std::vector<double> schedule =
      PoissonSchedule(kChurnReadRate, args.seconds * kChurnOpenShare, args.seed);
  std::vector<Session> sessions =
      MakeSessions(pool, schedule.size(), /*walks=*/false, args.seed);

  Result<std::unique_ptr<SingleNode>> started =
      setup->Start<SingleNode>([docs] { return StartSingleNode(docs); });
  if (!started.ok()) {
    report->Check("setup", false, started.status().ToString());
    return;
  }
  SingleNode& node = *started.value();
  report->Metric("stored_bytes_per_xml_byte",
                 static_cast<double>(StoredBytes(node.db)) / XmlBytes(docs),
                 "ratio");
  const CpuTicks ticks = ReadCpuTicks();
  WarmCache(node.port(), pool, args.seed, report);

  // One writer at a fixed rate for the whole timed window, cycling every
  // document through its seed variants.
  std::vector<size_t> current(docs.size(), 0);
  std::vector<double> mutation_ms;
  uint64_t epoch_problems = 0;
  OpCounts writer_ops;
  std::atomic<bool> stop_writer{false};
  // The writer's own CPU time, kept out of the readers' CPU per query.
  std::atomic<double> writer_cpu{0};
  const Clock::time_point writer_start = Clock::now();
  std::thread writer([&] {
    for (size_t j = 0;; ++j) {
      const Clock::time_point due =
          writer_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(j / kChurnWriteRate));
      while (Clock::now() < due && !stop_writer.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_writer.load()) return;
      const size_t d = j % docs.size();
      const size_t v = (j / docs.size() + 1) % kVariants;
      const uint64_t before = node.db.epoch();
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = ThreadCpuSeconds();
      Result<DocumentId> id =
          node.db.ReplaceDocumentXml(variants[v][d].spec.name, variants[v][d].xml);
      writer_cpu.store(writer_cpu.load() + ThreadCpuSeconds() - cpu0);
      mutation_ms.push_back(MsBetween(t0, Clock::now()));
      if (!id.ok()) {
        writer_ops.Failed("mutation", std::string(StatusCodeName(id.status().code())));
        continue;
      }
      writer_ops.Ok("mutation");
      current[d] = v;
      if (node.db.epoch() != before + 1) ++epoch_problems;
    }
  });

  OpenLoopConfig open;
  open.name = "open-loop";
  open.port = node.port();
  open.connections = OpenLoopConnections();
  const double cpu_before = ProcessCpuSeconds();
  const double writer_cpu_before = writer_cpu.load();
  const PhaseResult open_result = RunOpenLoop(open, schedule, &sessions);
  CpuPerQuery(ProcessCpuSeconds() - cpu_before - (writer_cpu.load() - writer_cpu_before),
              open_result, report);

  ClosedLoopConfig peak;
  peak.name = "peak";
  peak.port = node.port();
  peak.connections = NumCpus();
  peak.seconds = args.seconds * (1 - kChurnOpenShare);
  peak.seed = args.seed;
  Absorb(open_result, report);
  const double peak_qps = RunPeak(peak, HeadRequests(pool), nullptr, report);
  stop_writer.store(true);
  writer.join();
  report->ops().Merge(writer_ops);

  WallClockNotes(open_result, peak_qps, report);
  NoteSteal(ticks, report);
  report->Metric("mutation_p50_ms", Median(mutation_ms), "ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report->Note("mutations=" + std::to_string(mutation_ms.size()) +
               " final_epoch=" + std::to_string(node.db.epoch()));
  report->Check("every mutation advances the epoch by one", epoch_problems == 0,
                std::to_string(epoch_problems) + " bad");

  // The final corpus against the definitional reference.
  std::vector<DocSpec> final_specs;
  for (size_t d = 0; d < docs.size(); ++d) {
    final_specs.push_back(variants[current[d]][d].spec);
  }
  const auto ref = BuildReference(final_specs);
  std::string problem;
  for (const PoolQuery& q : pool) {
    SearchRequest request = ExhaustiveRequest(q, PruningPolicy::kValidContributor);
    request.include_raw_fragments = true;
    Result<SearchResponse> answer = node.db.Search(request);
    if (!answer.ok()) {
      problem = answer.status().ToString();
      break;
    }
    problem = CheckExhaustiveAnswer(ref, q.text, answer.value());
    if (!problem.empty()) break;
  }
  report->Check("final corpus equals the definitional reference", problem.empty(),
                problem);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args, bool* trace) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      *trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  bool trace = false;
  if (!ParseArgs(argc, argv, &args, &trace)) {
    std::fprintf(stderr,
                 "usage: xks_loadbench --workload <paper-exhaustive|"
                 "interactive-fleet|churn> --seed N --seconds S\n");
    return 2;
  }
  if (trace) {
    std::fprintf(stderr, "xks_loadbench: traced runs are xks_layer_replay's\n");
    return 2;
  }
  if (std::strcmp(BuildType(), "Release") != 0) {
    std::fprintf(stderr, "xks_loadbench: refusing a %s build; build Release\n",
                 BuildType());
    return 2;
  }
  std::map<std::string, std::function<void(const Args&, SetupTimer*, Report*)>> workloads = {
      {"paper-exhaustive", RunPaperExhaustive},
      {"interactive-fleet", RunInteractiveFleet},
      {"churn", RunChurn},
  };
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "xks_loadbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::map<std::string, double> phases;
  if (args.workload == "paper-exhaustive") {
    phases = {{"latency", args.seconds * 0.55}, {"peak", args.seconds * 0.45}};
  } else {
    const double open = args.workload == "churn" ? kChurnOpenShare : 0.6;
    phases = {{"open-loop", args.seconds * open}, {"peak", args.seconds * (1 - open)}};
  }
  PrintRunHeader("xks_loadbench", args.workload, args.seed, args.seconds, false,
                 phases);

  Report report;
  const Status self_test = SelfTest();
  report.Check("reference self-test on the paper's Figure 1 examples",
               self_test.ok(), self_test.ok() ? "" : self_test.ToString());
  if (self_test.ok()) {
    SetupTimer setup;
    it->second(args, &setup, &report);
    setup.Finish(&report);
  }
  report.Print();
  return report.all_checks_passed() ? 0 : 1;
}

}  // namespace
}  // namespace xks::loadbench

int main(int argc, char** argv) { return xks::loadbench::Main(argc, argv); }
