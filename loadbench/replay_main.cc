// xks_layer_replay — the traced run behind every workload's per-layer
// metrics. It rebuilds the workload's inputs from the seed and replays each
// distinct request of the workload in process, stage by stage, recording a
// span around every call into a layer (names match the per-layer metric
// names). Spans stay in memory and are written out when the run ends; a
// summary of each layer's self time and count is printed.
//
//   xks_layer_replay --workload <name> --seed <n> --seconds <s>
//                    [--spans-dir <dir>]
//
// Unlike xks_loadbench this target links the internal stage functions
// (src/core, src/lca, src/storage, src/xml), so a change to an internal
// signature breaks only this target; the end-to-end command still builds.
// End-to-end metrics never come from here.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>

#include "loadbench/bench_common.h"
#include "loadbench/hosting.h"
#include "loadbench/inputs.h"
#include "loadbench/load.h"
#include "loadbench/spans.h"
#include "src/common/worker_pool.h"
#include "src/core/engine.h"
#include "src/core/metadata.h"
#include "src/core/prune.h"
#include "src/core/ranking.h"
#include "src/core/rtf.h"
#include "src/lca/slca.h"
#include "src/server/client.h"
#include "src/server/wire.h"
#include "src/storage/store.h"
#include "src/xml/parser.h"

namespace xks::loadbench {
namespace {

/// Repetitions whose minimum is kept for the idle round-trip comparisons.
constexpr int kIdleRepeats = 3;
/// Interactive sessions whose distinct first pages the stage replay covers,
/// and sessions in the in-process cache stream.
constexpr size_t kReplaySessions = 600;
constexpr size_t kCacheStreamSessions = 4000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string spans_dir;
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

template <typename F>
double TimeUs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return UsBetween(t0, Clock::now());
}

/// The workload's distinct requests, as its clients send them.
std::vector<SearchRequest> DistinctRequests(const std::string& workload,
                                            uint64_t seed) {
  std::vector<SearchRequest> out;
  if (workload == "paper-exhaustive") {
    for (const PruningPolicy pruning :
         {PruningPolicy::kValidContributor, PruningPolicy::kContributor}) {
      for (const PoolQuery& q : PaperQueries()) {
        out.push_back(ExhaustiveRequest(q, pruning));
      }
    }
    return out;
  }
  // The interactive workloads' distinct first pages, in order of first
  // appearance in the session stream.
  const std::vector<PoolQuery> pool = QueryPool();
  std::set<std::pair<size_t, bool>> seen;
  for (const SessionDraw& d : DrawSessions(kReplaySessions, false, seed)) {
    if (seen.emplace(d.pool_index, d.ranked).second) {
      out.push_back(FirstPageRequest(pool[d.pool_index], d.ranked));
    }
  }
  return out;
}

/// Per-request counts gathered by the stage replay.
struct StageCounts {
  size_t postings = 0;
  size_t lca_nodes = 0;
  size_t rtfs = 0;
  size_t trees = 0;
  size_t raw_nodes = 0;
  size_t kept_nodes = 0;
  size_t hits_shown = 0;
  size_t snippet_bytes = 0;
};

/// Replays the part of one request the program does not time on its own
/// (include_stats reports keyword nodes, LCA, RTF and build+prune as one
/// figure): per document, getKeywordNodes → getLCA → getRTF (+ SLCA flag
/// pass) under one "replay.inputs" span, then build and prune apart, rank
/// when the request is ranked, and the page's snippets. Unranked paged
/// requests stop scanning once the page plus one look-ahead hit is known,
/// as a serial Snapshot::Search does.
Status ReplayStages(const Database& db, const SearchRequest& request,
                    SpanRecorder* spans, StageCounts* counts) {
  KeywordQuery query;
  XKS_ASSIGN_OR_RETURN(query, KeywordQuery::Parse(request.query));
  SearchOptions options;
  options.pruning = request.pruning;
  const size_t depth_normalizer =
      db.document_count() > 1 ? db.corpus_max_depth() : 0;
  const size_t needed = request.top_k == 0 ? SIZE_MAX : request.top_k + 1;

  struct Candidate {
    size_t doc;
    size_t fragment;
    double score;
  };
  std::vector<SearchResult> results;
  std::vector<Candidate> candidates;
  const int32_t root = spans->Begin("replay");
  for (DocumentId id = 0; id < db.document_count(); ++id) {
    std::shared_ptr<const ShreddedStore> store;
    XKS_ASSIGN_OR_RETURN(store, db.store(id));
    SearchResult result;
    std::vector<Rtf> rtfs;
    {
      SpanScope s(spans, "replay.inputs", root);
      const KeywordNodeLists lists = GetKeywordNodes(*store, query);
      for (const PostingList* list : lists.views) counts->postings += list->size();
      const std::vector<Dewey> lcas = GetLcaNodes(lists.views, options);
      counts->lca_nodes += lcas.size();
      rtfs = GetRtfs(lcas, lists.views);
      if (!lcas.empty()) {
        const std::vector<Dewey> slcas = SlcaIndexedLookup(lists.views);
        for (Rtf& rtf : rtfs) {
          rtf.root_is_slca = std::binary_search(slcas.begin(), slcas.end(), rtf.root);
        }
      }
    }
    counts->rtfs += rtfs.size();
    std::vector<FragmentTree> raw(rtfs.size());
    {
      SpanScope s(spans, "core.build", root);
      const StoreMetadata metadata(store.get());
      for (size_t i = 0; i < rtfs.size(); ++i) {
        XKS_ASSIGN_OR_RETURN(raw[i], BuildFragmentTree(rtfs[i], metadata));
      }
    }
    counts->trees += raw.size();
    result.fragments.resize(rtfs.size());
    {
      SpanScope s(spans, "core.prune", root);
      for (size_t i = 0; i < rtfs.size(); ++i) {
        result.fragments[i].fragment =
            PruneFragment(raw[i], request.pruning, query.size());
      }
    }
    for (size_t i = 0; i < rtfs.size(); ++i) {
      counts->raw_nodes += raw[i].size();
      counts->kept_nodes += result.fragments[i].fragment.size();
      result.fragments[i].rtf = std::move(rtfs[i]);
    }
    if (request.rank) {
      std::vector<FragmentScore> scores;
      {
        SpanScope s(spans, "core.rank", root);
        scores = RankFragments(result, query.size(), request.weights, depth_normalizer);
      }
      for (const FragmentScore& score : scores) {
        candidates.push_back(Candidate{results.size(), score.fragment_index, score.total});
      }
    } else {
      for (size_t i = 0; i < result.fragments.size(); ++i) {
        candidates.push_back(Candidate{results.size(), i, 0.0});
      }
    }
    results.push_back(std::move(result));
    if (!request.rank && candidates.size() >= needed) break;
  }
  if (request.rank) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });
  }
  const size_t shown =
      request.top_k == 0 ? candidates.size() : std::min(request.top_k, candidates.size());
  counts->hits_shown += shown;
  {
    SpanScope s(spans, "core.snippet", root);
    for (size_t i = 0; i < shown; ++i) {
      const Candidate& c = candidates[i];
      counts->snippet_bytes +=
          results[c.doc].fragments[c.fragment].fragment.ToTreeString(query.size()).size();
    }
  }
  spans->End(root);
  return Status::OK();
}

/// One serial, cache-bypassing Database::Search with include_stats: the
/// program's own per-stage times and counts, from the same execution as
/// its wall time.
struct ColdSearch {
  double wall_us = 1e300;
  SearchResponse response;
  /// Summed per-document stage times the program reports (µs).
  double stages_us() const {
    const StageTimings& t = response.timings;
    return (t.get_keyword_nodes_ms + t.get_lca_ms + t.get_rtf_ms + t.prune_ms) * 1e3;
  }
};

/// Cache behaviour on the workload's own request stream, replayed in
/// process against a database with the default cache (churn interleaves its
/// mutations at the same read:write ratio as the end-to-end run).
CacheStats ReplayCacheStream(const std::string& workload, uint64_t seed,
                             const std::vector<XmlDoc>& docs, Report* report) {
  Database db;
  if (Status s = Ingest(docs, &db); !s.ok()) {
    report->Check("cache stream ingest", false, s.ToString());
    return {};
  }
  std::vector<SearchRequest> stream;
  if (workload == "paper-exhaustive") {
    const std::vector<SearchRequest> distinct = DistinctRequests(workload, seed);
    for (int round = 0; round < 2; ++round) {
      stream.insert(stream.end(), distinct.begin(), distinct.end());
    }
  } else {
    const std::vector<PoolQuery> pool = QueryPool();
    for (const SessionDraw& d : DrawSessions(kCacheStreamSessions, false, seed)) {
      stream.push_back(FirstPageRequest(pool[d.pool_index], d.ranked));
    }
  }
  std::vector<std::vector<XmlDoc>> variants;
  if (workload == "churn") {
    for (size_t v = 1; v < kVariants; ++v) variants.push_back(GenerateCorpusXml(v));
  }
  CacheStats total;
  size_t mutation = 0;
  auto absorb = [&total](const CacheStats& s) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.rejected += s.rejected;
  };
  for (size_t i = 0; i < stream.size(); ++i) {
    // Churn: one mutation per 100 reads (2 writes/s against 200 reads/s).
    if (!variants.empty() && i > 0 && i % 100 == 0) {
      absorb(db.cache_stats());  // the next epoch starts a fresh cache
      const XmlDoc& next = variants[(mutation / docs.size()) % variants.size()]
                                   [mutation % docs.size()];
      ++mutation;
      if (!db.ReplaceDocumentXml(next.spec.name, next.xml).ok()) {
        report->Check("cache stream mutation", false, next.spec.name);
      }
    }
    if (!db.Search(stream[i]).ok()) {
      report->Check("cache stream search", false, stream[i].query);
      break;
    }
  }
  absorb(db.cache_stats());
  if (workload == "interactive-fleet") {
    // Working set of the pool against the default 64 MiB budget: every
    // distinct first page once into an unbounded cache, head ranks first.
    Database unbounded;
    CacheConfig config;
    config.capacity_bytes = size_t{1} << 40;
    config.max_entry_bytes = 0;
    unbounded.set_cache_config(config);
    if (Ingest(docs, &unbounded).ok()) {
      const std::vector<PoolQuery> pool = QueryPool();
      std::string line = "pool working set (MiB by Zipf rank prefix):";
      for (size_t rank = 0; rank < pool.size(); ++rank) {
        for (const bool ranked : {true, false}) {
          (void)unbounded.Search(FirstPageRequest(pool[rank], ranked));
        }
        if (((rank + 1) & rank) == 0 || rank + 1 == pool.size()) {
          line += " " + std::to_string(rank + 1) + ":" +
                  std::to_string(unbounded.cache_stats().bytes_in_use >> 20);
        }
      }
      report->Note(line);
    }
  }
  return total;
}

/// Ingest-side layers: parse, shred, encode, and publish (ReplaceDocument
/// of a pre-parsed document minus its shred time).
void IngestLayers(const std::vector<XmlDoc>& docs, SpanRecorder* spans, Report* report) {
  double parse_us = 0;
  double shred_us = 0;
  double megabytes = 0;
  double encoded = 0;
  for (const XmlDoc& doc : docs) {
    megabytes += doc.xml.size() / 1e6;
    Result<Document> parsed = Status::Internal("unset");
    {
      SpanScope s(spans, "xml.parse");
      parse_us += TimeUs([&] { parsed = ParseXml(doc.xml); });
    }
    if (!parsed.ok()) {
      report->Check("parse " + doc.spec.name, false, parsed.status().ToString());
      return;
    }
    ShreddedStore store;
    {
      SpanScope s(spans, "storage.shred");
      shred_us += TimeUs([&] { store = ShreddedStore::Build(parsed.value()); });
    }
    std::string bytes;
    store.EncodeTo(&bytes);
    encoded += bytes.size();
  }
  report->Metric("xml.parse_ms_per_mb", parse_us / 1e3 / megabytes, "ms/MB");
  report->Metric("storage.shred_ms_per_mb", shred_us / 1e3 / megabytes, "ms/MB");
  report->Metric("storage.encoded_bytes_per_doc", encoded / docs.size(), "bytes");

  Database db;
  if (Status s = Ingest(docs, &db); !s.ok()) {
    report->Check("publish ingest", false, s.ToString());
    return;
  }
  std::vector<double> publish_ms;
  for (size_t v = 1; v < kVariants; ++v) {
    for (const DocSpec& spec : CorpusPlan(v)) {
      const Document doc = Generate(spec);
      double shred = 0;
      {
        SpanScope s(spans, "storage.shred");
        shred = TimeUs([&] { (void)ShreddedStore::Build(doc); });
      }
      double replace = 0;
      Status status;
      {
        SpanScope s(spans, "api.replace");
        replace = TimeUs([&] { status = db.ReplaceDocument(spec.name, doc).status(); });
      }
      if (!status.ok()) {
        report->Check("publish " + spec.name, false, status.ToString());
        return;
      }
      publish_ms.push_back((replace - shred) / 1e3);
    }
  }
  report->Metric("api.publish_ms", Median(publish_ms), "ms");
}

/// The request the coordinator sends a shard for a first page.
SearchRequest LocalisedRequest(const SearchRequest& request, size_t union_depth) {
  SearchRequest local = request;
  local.include_scan_breakdown = true;
  if (request.rank) local.shared_depth_normalizer = union_depth;
  return local;
}

Result<double> MinRoundTripUs(XksClient* client, const SearchRequest& request,
                              XksClient::Reply* last) {
  double best = 1e300;
  for (int i = 0; i < kIdleRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Result<XksClient::Reply> reply = client->Call(request);
    const double us = UsBetween(t0, Clock::now());
    if (!reply.ok()) return reply.status();
    if (!reply.value().outcome.ok()) return reply.value().outcome.status();
    best = std::min(best, us);
    *last = std::move(reply).value();
  }
  return best;
}

int Run(const Args& args) {
  Report report;
  SpanRecorder spans(/*enabled=*/true);
  const std::vector<XmlDoc> docs = GenerateCorpusXml();
  const std::vector<SearchRequest> requests = DistinctRequests(args.workload, args.seed);
  Progress("ingest layers");
  IngestLayers(docs, &spans, &report);

  Progress("cache stream");
  const CacheStats cache = ReplayCacheStream(args.workload, args.seed, docs, &report);
  const uint64_t probes = cache.hits + cache.misses;
  report.Metric("cache.hit_ratio", probes == 0 ? 0.0 : double(cache.hits) / probes,
                "ratio");
  report.Metric("cache.evictions", cache.evictions, "count");
  report.Metric("cache.rejected", cache.rejected, "count");

  Progress("parallel for");
  {
    std::vector<double> us;
    const size_t tasks = NumCpus();
    for (int i = 0; i < 300; ++i) {
      us.push_back(TimeUs([&] {
        (void)ParallelFor(tasks, [](size_t) { return Status::OK(); });
      }));
    }
    report.Metric("common.parallel_for_us", Median(us), "us");
  }

  // The in-process stage replay, traced and untraced, against Search.
  Progress("stage replay");
  Result<std::unique_ptr<SingleNode>> node_or = StartSingleNode(docs);
  if (!node_or.ok()) {
    report.Check("single node", false, node_or.status().ToString());
    report.Print();
    return 1;
  }
  SingleNode& node = *node_or.value();
  SpanRecorder untraced(/*enabled=*/false);
  std::vector<StageCounts> counts(requests.size());
  std::vector<ColdSearch> cold(requests.size());
  std::vector<double> warm_us(requests.size(), 1e300);
  double traced_total_us = 0;
  double untraced_total_us = 0;
  size_t disagreements = 0;
  std::string first_disagreement;
  for (size_t r = 0; r < requests.size(); ++r) {
    spans.set_request(static_cast<uint32_t>(r));
    SearchRequest serial = requests[r];
    serial.max_parallelism = 1;
    serial.use_cache = false;
    SearchRequest with_stats = serial;
    with_stats.include_stats = true;
    for (int i = 0; i < kIdleRepeats; ++i) {
      Result<SearchResponse> response = Status::Internal("unset");
      double us = 0;
      {
        SpanScope s(&spans, "api.search_cold");
        us = TimeUs([&] { response = node.db.Search(with_stats); });
      }
      if (!response.ok()) {
        report.Check("cold search", false, response.status().ToString());
        report.Print();
        return 1;
      }
      if (us < cold[r].wall_us) cold[r] = ColdSearch{us, std::move(response).value()};
    }
    // Tracing overhead: the traced pass against the mean of an untraced
    // pass before and after it, so neither side runs on warmer caches.
    StageCounts scratch;
    const auto untraced_pass = [&] {
      return TimeUs([&] { (void)ReplayStages(node.db, serial, &untraced, &scratch); });
    };
    untraced_total_us += untraced_pass() / 2;
    Status replayed;
    traced_total_us += TimeUs([&] { replayed = ReplayStages(node.db, serial, &spans, &counts[r]); });
    untraced_total_us += untraced_pass() / 2;
    if (!replayed.ok()) {
      report.Check("replay", false, replayed.ToString());
      break;
    }
    // The replay must do what the program did on this request, and the
    // program's stage times must fit inside its own wall time.
    const SearchResponse& program = cold[r].response;
    const StageCounts& c = counts[r];
    const bool agrees = c.postings == program.keyword_node_count &&
                        c.rtfs == program.total_hits &&
                        c.raw_nodes == program.pruning.raw_nodes &&
                        c.kept_nodes == program.pruning.kept_nodes &&
                        c.hits_shown == program.hits.size() &&
                        cold[r].stages_us() <= cold[r].wall_us;
    if (!agrees && disagreements++ == 0) {
      first_disagreement = requests[r].query + ": replay postings/rtfs/raw/kept/shown " +
                           std::to_string(c.postings) + "/" + std::to_string(c.rtfs) + "/" +
                           std::to_string(c.raw_nodes) + "/" + std::to_string(c.kept_nodes) +
                           "/" + std::to_string(c.hits_shown) + ", program " +
                           std::to_string(program.keyword_node_count) + "/" +
                           std::to_string(program.total_hits) + "/" +
                           std::to_string(program.pruning.raw_nodes) + "/" +
                           std::to_string(program.pruning.kept_nodes) + "/" +
                           std::to_string(program.hits.size()) + ", stages " +
                           std::to_string(cold[r].stages_us()) + " us of " +
                           std::to_string(cold[r].wall_us) + " us";
    }
    SearchRequest warm = serial;
    warm.use_cache = true;
    (void)node.db.Search(warm);  // fill
    for (int i = 0; i < kIdleRepeats; ++i) {
      SpanScope s(&spans, "api.search_warm");
      warm_us[r] = std::min(warm_us[r], TimeUs([&] { (void)node.db.Search(warm); }));
    }
  }
  report.Check("per request: replay counts equal the program's include_stats, and its "
               "stage times fit in its Search time",
               disagreements == 0,
               disagreements == 0 ? "" : std::to_string(disagreements) +
                                             " disagree; first: " + first_disagreement);

  // The program's own figures, from the fastest of the cold executions.
  const double n = static_cast<double>(requests.size());
  StageTimings timings;
  PruningStats pruning;
  double postings = 0;
  double rtfs = 0;
  double shown = 0;
  std::vector<double> cold_us;
  std::vector<double> self_us;
  for (const ColdSearch& c : cold) {
    timings.Accumulate(c.response.timings);
    pruning.Accumulate(c.response.pruning);
    postings += c.response.keyword_node_count;
    rtfs += c.response.total_hits;
    shown += c.response.hits.size();
    cold_us.push_back(c.wall_us);
    self_us.push_back(c.wall_us - c.stages_us());
  }
  report.Metric("index.keyword_nodes_us", timings.get_keyword_nodes_ms * 1e3 / n, "us");
  report.Metric("index.postings_per_query", postings / n, "count");
  report.Metric("lca.lca_us", timings.get_lca_ms * 1e3 / n, "us");
  report.Metric("core.rtf_us", timings.get_rtf_ms * 1e3 / n, "us");
  report.Metric("core.raw_nodes_per_query", pruning.raw_nodes / n, "count");
  report.Metric("core.kept_per_raw",
                pruning.raw_nodes == 0 ? 0.0 : double(pruning.kept_nodes) / pruning.raw_nodes,
                "ratio");
  report.Metric("core.rtfs_per_query", rtfs / n, "count");
  report.Metric("api.search_cold_us", Mean(cold_us), "us");
  report.Metric("api.search_warm_us", Mean(warm_us), "us");
  report.Metric("api.self_us", Mean(self_us), "us");
  report.Note("stage coverage: the program's summed stage times are " +
              std::to_string(100 * (1 - Mean(self_us) / Mean(cold_us))) +
              "% of api.search_cold_us; api.self_us is the rest (" +
              std::to_string(requests.size()) + " requests)");

  // What only the replay sees: build and prune apart, rank, snippets, and
  // the fragment trees behind each hit shown.
  StageCounts sum;
  size_t ranked = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    sum.lca_nodes += counts[r].lca_nodes;
    sum.trees += counts[r].trees;
    if (requests[r].rank) ++ranked;
  }
  const auto span_total = [&](const char* name) {
    double total = 0;
    for (const auto& [request, us] : spans.SumByRequest(name)) total += us;
    return total;
  };
  report.Metric("lca.lca_nodes_per_query", sum.lca_nodes / n, "count");
  report.Metric("core.build_us", span_total("core.build") / n, "us");
  report.Metric("core.prune_us", span_total("core.prune") / n, "us");
  report.Metric("core.rank_us", ranked == 0 ? 0.0 : span_total("core.rank") / ranked, "us");
  report.Metric("core.snippet_us", span_total("core.snippet") / n, "us");
  report.Metric("core.trees_per_hit_shown", shown == 0 ? 0.0 : sum.trees / shown, "ratio");
  report.Note("tracing overhead: traced replay " + std::to_string(traced_total_us / 1e3) +
              " ms vs untraced " + std::to_string(untraced_total_us / 1e3) + " ms (" +
              std::to_string((traced_total_us / untraced_total_us - 1) * 100) + "%)");

  // Server layer at idle: codec costs and round trip minus the same
  // request answered in process.
  Progress("server and coordinator at idle");
  Result<XksClient> client = XksClient::Connect("127.0.0.1", node.port(), 5000);
  if (!client.ok()) {
    report.Check("connect", false, client.status().ToString());
    report.Print();
    return 1;
  }
  std::vector<double> encode_us, decode_us, bytes, overhead_us;
  for (size_t r = 0; r < requests.size(); ++r) {
    spans.set_request(static_cast<uint32_t>(r));
    const SearchRequest& request = requests[r];
    if (request.use_cache) (void)node.db.Search(request);  // warm like the stream
    double in_process = 1e300;
    Result<SearchResponse> answer = Status::Internal("unset");
    for (int i = 0; i < kIdleRepeats; ++i) {
      in_process = std::min(in_process, TimeUs([&] { answer = node.db.Search(request); }));
    }
    if (!answer.ok()) continue;
    std::string encoded;
    {
      SpanScope s(&spans, "server.encode");
      encode_us.push_back(TimeUs([&] { encoded = EncodeSearchResponse(answer.value()); }));
    }
    {
      SpanScope s(&spans, "server.decode");
      decode_us.push_back(TimeUs([&] { (void)DecodeSearchResponse(encoded); }));
    }
    bytes.push_back(static_cast<double>(encoded.size()));
    XksClient::Reply reply;
    Result<double> round_trip = MinRoundTripUs(&client.value(), request, &reply);
    if (!round_trip.ok()) {
      report.Check("server round trip", false, round_trip.status().ToString());
      break;
    }
    overhead_us.push_back(round_trip.value() - in_process);
  }
  report.Metric("server.encode_us", Mean(encode_us), "us");
  report.Metric("server.decode_us", Mean(decode_us), "us");
  report.Metric("server.response_bytes", Mean(bytes), "bytes");
  report.Metric("server.overhead_us", Median(overhead_us), "us");

  // Batching under the workload's closed-loop peak shape.
  {
    const ServiceStats before = node.server->service_stats();
    ClosedLoopConfig burst;
    burst.name = "burst";
    burst.port = node.port();
    burst.connections = NumCpus();
    burst.seconds = std::max(1.0, args.seconds * 0.1);
    burst.seed = args.seed;
    const PhaseResult result = RunClosedLoop(burst, requests, nullptr);
    const ServiceStats after = node.server->service_stats();
    const uint64_t batches = after.batches - before.batches;
    report.Metric("server.queries_per_batch",
                  batches == 0 ? 0.0 : double(after.admitted - before.admitted) / batches,
                  "count");
    report.Note(result.Describe());
  }

  // Coordinator at idle: its round trip minus the slowest shard's direct
  // round trip for the localised request.
  Result<std::unique_ptr<Fleet>> fleet_or = StartFleet(docs, 2);
  if (!fleet_or.ok()) {
    report.Check("fleet", false, fleet_or.status().ToString());
    report.Print();
    return 1;
  }
  Fleet& fleet = *fleet_or.value();
  Result<XksClient> coord = XksClient::Connect("127.0.0.1", fleet.port(), 5000);
  std::vector<XksClient> shard_clients;
  for (const auto& server : fleet.shard_servers) {
    Result<XksClient> c = XksClient::Connect("127.0.0.1", server->port(), 5000);
    if (c.ok()) shard_clients.push_back(std::move(c).value());
  }
  if (!coord.ok() || shard_clients.size() != fleet.shard_servers.size()) {
    report.Check("fleet connect", false, "");
    report.Print();
    return 1;
  }
  const uint64_t queries_before = fleet.coordinator->stats().queries;
  uint64_t calls_before = 0;
  for (size_t s = 0; s < shard_clients.size(); ++s) {
    calls_before += fleet.coordinator->channel_stats(s).calls;
  }
  std::vector<double> coord_overhead;
  for (size_t r = 0; r < requests.size(); ++r) {
    spans.set_request(static_cast<uint32_t>(r));
    XksClient::Reply reply;
    Result<double> coord_rt = Status::Internal("unset");
    {
      SpanScope s(&spans, "coord.round_trip");
      coord_rt = MinRoundTripUs(&coord.value(), requests[r], &reply);
    }
    if (!coord_rt.ok()) {
      report.Check("coordinator round trip", false, coord_rt.status().ToString());
      break;
    }
    double slowest = 0;
    const SearchRequest local = LocalisedRequest(requests[r], node.db.corpus_max_depth());
    for (XksClient& shard : shard_clients) {
      SpanScope s(&spans, "coord.shard_round_trip");
      Result<double> rt = MinRoundTripUs(&shard, local, &reply);
      if (rt.ok()) slowest = std::max(slowest, rt.value());
    }
    coord_overhead.push_back(coord_rt.value() - slowest);
  }
  uint64_t calls_after = 0;
  for (size_t s = 0; s < shard_clients.size(); ++s) {
    calls_after += fleet.coordinator->channel_stats(s).calls;
  }
  const uint64_t coord_queries = fleet.coordinator->stats().queries - queries_before;
  report.Metric("coord.overhead_us", Median(coord_overhead), "us");
  report.Metric("coord.hops_per_query",
                coord_queries == 0 ? 0.0 : double(calls_after - calls_before) / coord_queries,
                "count");

  if (!args.spans_dir.empty()) {
    const std::string path =
        args.spans_dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".tsv";
    std::error_code error;
    std::filesystem::create_directories(args.spans_dir, error);
    const Status written = error ? Status::IoError(error.message()) : spans.WriteTsv(path);
    report.Note(written.ok() ? "spans written to " + path : written.ToString());
  }
  std::printf("%s", spans.Summary().c_str());
  report.Print();
  return report.all_checks_passed() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans-dir") {
      args->spans_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace xks::loadbench

int main(int argc, char** argv) {
  using namespace xks::loadbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "paper-exhaustive" && args.workload != "interactive-fleet" &&
       args.workload != "churn")) {
    std::fprintf(stderr,
                 "usage: xks_layer_replay --workload <paper-exhaustive|"
                 "interactive-fleet|churn> --seed N --seconds S [--spans-dir D]\n");
    return 2;
  }
  if (std::strcmp(BuildType(), "Release") != 0) {
    std::fprintf(stderr, "xks_layer_replay: refusing a %s build\n", BuildType());
    return 2;
  }
  PrintRunHeader("xks_layer_replay", args.workload, args.seed, args.seconds, true,
                 {{"burst", std::max(1.0, args.seconds * 0.1)}});
  return Run(args);
}
