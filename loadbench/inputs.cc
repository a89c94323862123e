#include "loadbench/inputs.h"

#include <algorithm>

#include "loadbench/bench_common.h"
#include "src/datagen/dblp_gen.h"
#include "src/datagen/vocab.h"
#include "src/datagen/workloads.h"
#include "src/datagen/xmark_gen.h"
#include "src/xml/writer.h"

namespace xks::loadbench {
namespace {

std::string Join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out.push_back(' ');
    out += w;
  }
  return out;
}

PoolQuery FromWords(std::vector<std::string> words) {
  PoolQuery query;
  query.text = Join(words);
  query.keywords = std::move(words);
  return query;
}

/// Fixed-rank high-fan-out XMark queries: thousands of RTFs for a page of
/// ten on "vd".
struct FixedEntry {
  size_t rank;
  const char* label;
};
constexpr FixedEntry kFixedRanks[] = {{1, "vd"}, {6, "do"}, {17, "vdo"}};

}  // namespace

std::vector<DocSpec> CorpusPlan(size_t variant) {
  std::vector<DocSpec> docs;
  const uint64_t base = 1000 + variant * 100;
  for (size_t i = 0; i < std::max(kDblpDocs, kXmarkDocs); ++i) {
    if (i < kDblpDocs) {
      docs.push_back(DocSpec{"dblp-" + std::to_string(i), DocKind::kDblp,
                             base + 2 * i, kDblpScale});
    }
    if (i < kXmarkDocs) {
      docs.push_back(DocSpec{"xmark-" + std::to_string(i), DocKind::kXmark,
                             base + 2 * i + 1, kXmarkScale});
    }
  }
  return docs;
}

Document Generate(const DocSpec& spec) {
  if (spec.kind == DocKind::kDblp) {
    DblpOptions options;
    options.seed = spec.seed;
    options.scale = spec.scale;
    return GenerateDblp(options);
  }
  XmarkOptions options;
  options.seed = spec.seed;
  options.scale = spec.scale;
  return GenerateXmark(options);
}

std::string ToXml(const Document& doc) {
  WriteOptions options;
  options.indent = "";
  return WriteXml(doc, options);
}

std::vector<XmlDoc> GenerateCorpusXml(size_t variant) {
  std::vector<XmlDoc> out;
  for (const DocSpec& spec : CorpusPlan(variant)) {
    out.push_back(XmlDoc{spec, ToXml(Generate(spec))});
  }
  return out;
}

std::vector<PoolQuery> PaperQueries() {
  std::vector<PoolQuery> out;
  for (const WorkloadQuery& q : DblpWorkload()) {
    out.push_back(FromWords(q.keywords));
  }
  for (const WorkloadQuery& q : XmarkWorkload()) {
    out.push_back(FromWords(q.keywords));
  }
  return out;
}

std::vector<PoolQuery> QueryPool() {
  // One fixed pool for every seed: the seed varies the arrival schedule and
  // the session draws, not which queries are popular, so the cost profile
  // of the traffic is the same from seed to seed.
  Random random(0x706f6f6cULL);
  std::vector<std::string> dblp_words;
  std::vector<std::string> xmark_words;
  for (const WorkloadKeyword& k : DblpKeywords()) dblp_words.push_back(k.word);
  for (const WorkloadKeyword& k : XmarkKeywords()) xmark_words.push_back(k.word);
  const std::vector<std::string>& filler = FillerWords();

  std::vector<PoolQuery> pool(kPoolSize);
  std::vector<bool> fixed(kPoolSize, false);
  for (const FixedEntry& entry : kFixedRanks) {
    pool[entry.rank] = FromWords(ExpandLabel(entry.label, XmarkKeywords()));
    fixed[entry.rank] = true;
  }
  for (size_t rank = 0; rank < kPoolSize; ++rank) {
    if (fixed[rank]) continue;
    // Families alternate by rank so every popularity level has the same
    // DBLP/XMark mix.
    const std::vector<std::string>& family =
        rank % 5 < 2 ? dblp_words : xmark_words;
    const size_t size = 2 + random.Below(3);
    std::vector<std::string> words;
    while (words.size() < size) {
      const std::string& word = random.Unit() < 0.3
                                    ? filler[random.Below(filler.size())]
                                    : family[random.Below(family.size())];
      if (std::find(words.begin(), words.end(), word) == words.end()) {
        words.push_back(word);
      }
    }
    pool[rank] = FromWords(std::move(words));
  }
  return pool;
}

SearchRequest ExhaustiveRequest(const PoolQuery& query, PruningPolicy pruning) {
  SearchRequest request;
  request.query = query.text;
  request.pruning = pruning;
  request.top_k = 0;
  request.rank = false;
  request.include_snippets = true;
  request.use_cache = false;
  return request;
}

SearchRequest FirstPageRequest(const PoolQuery& query, bool ranked) {
  SearchRequest request;
  request.query = query.text;
  request.top_k = 10;
  request.rank = ranked;
  return request;
}

std::vector<SessionDraw> DrawSessions(size_t count, bool walks, uint64_t seed) {
  Random random(seed ^ 0x73657373ULL);
  const Zipf zipf(kPoolSize, kZipfExponent);
  std::vector<SessionDraw> out(count);
  for (SessionDraw& s : out) {
    s.pool_index = zipf.Draw(&random);
    s.ranked = random.Unit() < kRankedShare;
    if (walks && random.Unit() < kWalkShare) s.extra_pages = 1 + random.Below(3);
  }
  return out;
}

}  // namespace xks::loadbench
