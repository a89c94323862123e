#include "loadbench/reference.h"

#include <algorithm>

#include "src/datagen/figure1.h"
#include "src/text/content.h"
#include "src/text/stopwords.h"
#include "src/text/tokenizer.h"

namespace xks::loadbench {

ReferenceDoc::ReferenceDoc(const Document& doc) {
  std::vector<int32_t> index_of(doc.size(), -1);
  doc.PreOrder([&](NodeId id) {
    const int32_t index = static_cast<int32_t>(deweys_.size());
    index_of[static_cast<size_t>(id)] = index;
    const Node& node = doc.node(id);
    deweys_.push_back(node.dewey);
    parent_.push_back(node.parent == kNullNode
                          ? -1
                          : index_of[static_cast<size_t>(node.parent)]);
    for (std::string& word : ContentWords(doc, id)) {
      word_nodes_[std::move(word)].push_back(static_cast<uint32_t>(index));
    }
    return true;
  });
}

void ReferenceDoc::Evaluate(const std::vector<std::string>& keywords,
                            std::vector<uint64_t>* own,
                            std::vector<uint8_t>* elca) const {
  const size_t n = deweys_.size();
  const uint64_t full =
      keywords.size() >= 64 ? ~uint64_t{0} : (uint64_t{1} << keywords.size()) - 1;
  own->assign(n, 0);
  elca->assign(n, 0);
  for (size_t i = 0; i < keywords.size(); ++i) {
    auto it = word_nodes_.find(keywords[i]);
    if (it == word_nodes_.end()) return;  // a keyword absent: no ELCA
    for (uint32_t node : it->second) (*own)[node] |= uint64_t{1} << i;
  }
  // Children follow their parent in preorder, so a reverse sweep finishes
  // every child before folding it into its parent.
  std::vector<uint64_t> total(*own);
  std::vector<uint64_t> residual(*own);
  for (size_t p = n; p-- > 0;) {
    (*elca)[p] = residual[p] == full ? 1 : 0;
    const int32_t parent = parent_[p];
    if (parent < 0) continue;
    total[static_cast<size_t>(parent)] |= total[p];
    // A contains-all child subtree is excluded from its ancestors' residual.
    if (total[p] != full) residual[static_cast<size_t>(parent)] |= residual[p];
  }
}

std::vector<RefRtf> ReferenceDoc::Rtfs(
    const std::vector<std::string>& keywords) const {
  std::vector<uint64_t> own;
  std::vector<uint8_t> elca;
  Evaluate(keywords, &own, &elca);
  std::vector<RefRtf> rtfs;
  std::vector<int32_t> rtf_of(deweys_.size(), -1);  // deepest ELCA-or-self
  for (size_t p = 0; p < deweys_.size(); ++p) {
    if (elca[p]) {
      rtf_of[p] = static_cast<int32_t>(rtfs.size());
      rtfs.push_back(RefRtf{deweys_[p], {}});
    } else if (parent_[p] >= 0) {
      rtf_of[p] = rtf_of[static_cast<size_t>(parent_[p])];
    }
    if (own[p] != 0 && rtf_of[p] >= 0) {
      rtfs[static_cast<size_t>(rtf_of[p])].knodes.emplace_back(deweys_[p],
                                                               own[p]);
    }
  }
  return rtfs;
}

size_t ReferenceDoc::CountRtfs(const std::vector<std::string>& keywords) const {
  std::vector<uint64_t> own;
  std::vector<uint8_t> elca;
  Evaluate(keywords, &own, &elca);
  return static_cast<size_t>(std::count(elca.begin(), elca.end(), 1));
}

std::vector<std::string> NormalizeQuery(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& word : TokenizeWords(text)) {
    if (IsStopWord(word)) continue;
    if (std::find(out.begin(), out.end(), word) == out.end()) {
      out.push_back(std::move(word));
    }
  }
  return out;
}

namespace {

/// "root:knode,knode;root:..." — RTFs in root document order.
std::string Render(const std::vector<RefRtf>& rtfs, bool with_knodes) {
  std::string out;
  for (const RefRtf& rtf : rtfs) {
    if (!out.empty()) out += ";";
    out += rtf.root.ToString();
    if (!with_knodes) continue;
    out += ":";
    for (size_t i = 0; i < rtf.knodes.size(); ++i) {
      if (i > 0) out += ",";
      out += rtf.knodes[i].first.ToString();
    }
  }
  return out;
}

}  // namespace

Status SelfTest() {
  // Examples 1-7 of the paper on Figure 1: Q1's single RTF at the skyline
  // article; Q2's two RTFs, the article {n, t, a} and the ref node {r}; Q3's
  // single RTF at the root of 1(a); Q4 and Q5 rooted at the team of 1(b).
  struct Expected {
    int query;
    bool figure_b;
    bool with_knodes;
    const char* rtfs;
  };
  const Expected expected[] = {
      {1, false, false, "0.2.1"},
      {2, false, true, "0.2.0:0.2.0.0.0.0,0.2.0.1,0.2.0.2;0.2.0.3.0:0.2.0.3.0"},
      {3, false, false, "0"},
      {4, true, false, "0"},
      {5, true, false, "0"},
  };
  Result<Document> fig_a = Figure1aDocument();
  Result<Document> fig_b = Figure1bDocument();
  if (!fig_a.ok()) return fig_a.status();
  if (!fig_b.ok()) return fig_b.status();
  const ReferenceDoc ref_a(fig_a.value());
  const ReferenceDoc ref_b(fig_b.value());
  for (const Expected& e : expected) {
    const ReferenceDoc& ref = e.figure_b ? ref_b : ref_a;
    const std::vector<std::string> keywords = NormalizeQuery(PaperQuery(e.query));
    const std::vector<RefRtf> rtfs = ref.Rtfs(keywords);
    const std::string got = Render(rtfs, e.with_knodes);
    if (got != e.rtfs || ref.CountRtfs(keywords) != rtfs.size()) {
      return Status::Internal("reference self-test: Q" + std::to_string(e.query) +
                              " gave " + got + ", the paper has " + e.rtfs);
    }
  }
  return Status::OK();
}

}  // namespace xks::loadbench
