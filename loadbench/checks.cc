#include "loadbench/checks.h"

#include <set>
#include <utility>

namespace xks::loadbench {
namespace {

std::string DescribeHit(const Hit& hit) {
  return "document " + std::to_string(hit.document) + " root " +
         hit.rtf.root.ToString();
}

/// The raw RTF by definition: the root plus every node on a path from the
/// root down to one of its keyword nodes.
std::set<Dewey> RootToKeywordPaths(const RefRtf& rtf) {
  std::set<Dewey> nodes = {rtf.root};
  for (const auto& [knode, mask] : rtf.knodes) {
    for (Dewey d = knode; d.depth() > rtf.root.depth(); d = d.Parent()) {
      nodes.insert(d);
    }
  }
  return nodes;
}

std::string CheckFragment(const Hit& hit, const std::set<Dewey>& raw_expected) {
  std::set<Dewey> raw;
  for (size_t i = 0; i < hit.raw.size(); ++i) {
    raw.insert(hit.raw.node(static_cast<FragmentNodeId>(i)).dewey);
  }
  if (raw != raw_expected) {
    return DescribeHit(hit) + ": raw RTF is not the root-to-keyword paths";
  }
  const FragmentTree& tree = hit.fragment;
  if (tree.empty() || tree.node(tree.root()).dewey != hit.rtf.root) {
    return DescribeHit(hit) + ": pruned fragment lost its root";
  }
  for (size_t i = 0; i < tree.size(); ++i) {
    const FragmentNode& node = tree.node(static_cast<FragmentNodeId>(i));
    if (raw.count(node.dewey) == 0) {
      return DescribeHit(hit) + ": pruned node " + node.dewey.ToString() +
             " is not in the raw RTF";
    }
    if (node.parent != kNullFragmentNode &&
        tree.node(node.parent).dewey != node.dewey.Parent()) {
      return DescribeHit(hit) + ": pruned fragment is not connected at " +
             node.dewey.ToString();
    }
  }
  return "";
}

}  // namespace

std::vector<std::unique_ptr<ReferenceDoc>> BuildReference(
    const std::vector<DocSpec>& specs) {
  std::vector<std::unique_ptr<ReferenceDoc>> out;
  for (const DocSpec& spec : specs) {
    out.push_back(std::make_unique<ReferenceDoc>(Generate(spec)));
  }
  return out;
}

size_t ReferenceCount(const std::vector<std::unique_ptr<ReferenceDoc>>& ref,
                      const std::string& text) {
  const std::vector<std::string> keywords = NormalizeQuery(text);
  size_t total = 0;
  for (const auto& doc : ref) total += doc->CountRtfs(keywords);
  return total;
}

std::string CheckExhaustiveAnswer(
    const std::vector<std::unique_ptr<ReferenceDoc>>& ref,
    const std::string& text, const SearchResponse& response) {
  const std::vector<std::string> keywords = NormalizeQuery(text);
  size_t next = 0;
  for (DocumentId doc = 0; doc < ref.size(); ++doc) {
    for (const RefRtf& want : ref[doc]->Rtfs(keywords)) {
      if (next >= response.hits.size()) {
        return "'" + text + "': missing hit at document " + std::to_string(doc) +
               " root " + want.root.ToString();
      }
      const Hit& hit = response.hits[next++];
      if (hit.document != doc || hit.rtf.root != want.root) {
        return "'" + text + "': " + DescribeHit(hit) + ", reference has document " +
               std::to_string(doc) + " root " + want.root.ToString();
      }
      if (hit.rtf.knodes.size() != want.knodes.size()) {
        return "'" + text + "': " + DescribeHit(hit) + " keyword-node count " +
               std::to_string(hit.rtf.knodes.size()) + ", reference " +
               std::to_string(want.knodes.size());
      }
      for (size_t i = 0; i < want.knodes.size(); ++i) {
        if (hit.rtf.knodes[i].dewey != want.knodes[i].first ||
            hit.rtf.knodes[i].mask != want.knodes[i].second) {
          return "'" + text + "': " + DescribeHit(hit) + " keyword node " +
                 hit.rtf.knodes[i].dewey.ToString() + " differs from reference " +
                 want.knodes[i].first.ToString();
        }
      }
      std::string problem = CheckFragment(hit, RootToKeywordPaths(want));
      if (!problem.empty()) return "'" + text + "': " + problem;
    }
  }
  if (next != response.hits.size() || response.total_hits != next) {
    return "'" + text + "': " + std::to_string(response.hits.size()) +
           " hits, total_hits " + std::to_string(response.total_hits) +
           ", reference " + std::to_string(next);
  }
  return "";
}

std::string CheckWalk(const std::vector<PageSummary>& pages, bool ranked,
                      size_t expected_total) {
  std::set<std::pair<DocumentId, std::string>> seen;
  double last_score = 2;
  std::pair<DocumentId, Dewey> last_position{0, Dewey()};
  size_t hits = 0;
  for (size_t p = 0; p < pages.size(); ++p) {
    const PageSummary& page = pages[p];
    if (!page.ok) return "page " + std::to_string(p) + " failed: " + page.status;
    if (page.total_is_exact && page.total_hits != expected_total) {
      return "page " + std::to_string(p) + " total_hits " +
             std::to_string(page.total_hits) + ", reference " +
             std::to_string(expected_total);
    }
    if (!page.total_is_exact && page.total_hits > expected_total) {
      return "page " + std::to_string(p) + " lower-bound total_hits " +
             std::to_string(page.total_hits) + " exceeds reference " +
             std::to_string(expected_total);
    }
    for (const HitSummary& hit : page.hits) {
      ++hits;
      if (!seen.emplace(hit.document, hit.root).second) {
        return "hit repeats in walk: document " + std::to_string(hit.document) +
               " root " + hit.root;
      }
      if (ranked) {
        if (hit.score > last_score) {
          return "ranked score increases at document " +
                 std::to_string(hit.document) + " root " + hit.root;
        }
        last_score = hit.score;
        continue;
      }
      Result<Dewey> root = Dewey::Parse(hit.root);
      if (!root.ok()) return "unparseable snippet root '" + hit.root + "'";
      std::pair<DocumentId, Dewey> position{hit.document, root.value()};
      if (hits > 1 && !(last_position < position)) {
        return "unranked hit out of (document, document order) at document " +
               std::to_string(hit.document) + " root " + hit.root;
      }
      last_position = std::move(position);
    }
  }
  if (!pages.empty() && !pages.back().has_cursor && hits != expected_total) {
    return "full walk returned " + std::to_string(hits) + " hits, reference " +
           std::to_string(expected_total);
  }
  return "";
}

}  // namespace xks::loadbench
