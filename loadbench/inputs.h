// The benchmark's inputs: the corpus (generated DBLP and XMark documents,
// serialised to XML before any timing starts), the paper's query sets and
// the Zipf-ranked query pool of the interactive workloads, all the same on
// every run seed, and the session draws, a pure function of it.

#ifndef XKS_LOADBENCH_INPUTS_H_
#define XKS_LOADBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/search_types.h"
#include "src/xml/dom.h"

namespace xks::loadbench {

enum class DocKind { kDblp, kXmark };

/// One generated document: enough to regenerate it exactly.
struct DocSpec {
  std::string name;
  DocKind kind = DocKind::kDblp;
  uint64_t seed = 0;
  double scale = 0;
};

/// Corpus make-up, shared by every workload: DBLP and XMark documents
/// interleaved, so each contiguous half (one fleet shard) holds both kinds.
/// The scales give both kinds about 1 MB of XML per document, so one
/// document's ingest or mutation costs about the same whichever kind it is.
inline constexpr size_t kDblpDocs = 3;
inline constexpr size_t kXmarkDocs = 3;
inline constexpr double kDblpScale = 0.007;
inline constexpr double kXmarkScale = 0.5;
/// Seed variants per document the churn writer cycles through (variant 0 is
/// the initial corpus).
inline constexpr size_t kVariants = 4;

/// The corpus documents at `variant` (same names every variant). The corpus
/// is the same on every run seed, as the query pool is: generated corpora
/// differ enough that the paper queries' CPU cost moved by a fifth from one
/// corpus seed to another on the same host, which is workload variance, not
/// program variance. The run seed varies request order, arrival schedule
/// and session draws.
std::vector<DocSpec> CorpusPlan(size_t variant = 0);

Document Generate(const DocSpec& spec);

/// Compact serialisation used for ingest.
std::string ToXml(const Document& doc);

/// One corpus document in the form the system ingests.
struct XmlDoc {
  DocSpec spec;
  std::string xml;
};
std::vector<XmlDoc> GenerateCorpusXml(size_t variant = 0);

/// One keyword query: normalized keywords and the text a client sends.
struct PoolQuery {
  std::vector<std::string> keywords;
  std::string text;
};

/// The 16 DBLP and 24 XMark queries of the paper's Figures 5 and 6.
std::vector<PoolQuery> PaperQueries();

/// The interactive pool, most popular first (rank 0): 2-4 keyword mixes of
/// workload keywords and generator vocabulary, with the high-fan-out XMark
/// queries at fixed ranks. The pool is the same on every seed.
///
/// The traffic mix (pool size and make-up, Zipf exponent, ranked and
/// walking shares, and churn's read:write ratio) is assumed, not fitted to
/// a query log; README.md reports how churn's gated figures move with the
/// exponent.
std::vector<PoolQuery> QueryPool();
inline constexpr size_t kPoolSize = 2048;
/// The peak phases cycle over the first pages of ranks below this.
inline constexpr size_t kPoolHead = 64;
inline constexpr double kZipfExponent = 1.2;

/// The exhaustive paper-protocol request: every hit, unranked, snippets
/// on, cache bypassed.
SearchRequest ExhaustiveRequest(const PoolQuery& query, PruningPolicy pruning);

/// A first page of an interactive session.
SearchRequest FirstPageRequest(const PoolQuery& query, bool ranked);

/// One interactive session drawn from the pool: Zipf-ranked query, mostly
/// ranked, a share walking 1-3 more pages by cursor (when `walks`).
struct SessionDraw {
  size_t pool_index = 0;
  bool ranked = true;
  size_t extra_pages = 0;
};
inline constexpr double kRankedShare = 0.8;
inline constexpr double kWalkShare = 0.25;
std::vector<SessionDraw> DrawSessions(size_t count, bool walks, uint64_t seed);

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_INPUTS_H_
