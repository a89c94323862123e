// The definitional reference the benchmark checks the program's answers
// against. It is written from the paper's definitions alone and shares no
// code with src/index, src/lca or src/core:
//
//   * a node's content set is the public ContentWords (src/text);
//   * ELCA roots come from one post-order pass carrying, per node, the
//     keywords anywhere below it (total) and the keywords below it outside
//     every contains-all child subtree (residual): v is an ELCA iff its
//     residual covers the whole query;
//   * every keyword node joins the RTF of its deepest ELCA ancestor-or-self
//     (Algorithm 1's getRTF rule); keyword nodes with no ELCA above them
//     belong to no RTF.
//
// SelfTest() first checks the reference against the RTFs the paper's worked
// examples give on the Figure 1 documents.

#ifndef XKS_LOADBENCH_REFERENCE_H_
#define XKS_LOADBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/xml/dom.h"

namespace xks::loadbench {

/// One reference RTF: root plus keyword nodes (document order) with the
/// query-keyword mask each matches (bit i = keyword i).
struct RefRtf {
  Dewey root;
  std::vector<std::pair<Dewey, uint64_t>> knodes;
};

/// The per-document word index the reference evaluates queries over.
class ReferenceDoc {
 public:
  explicit ReferenceDoc(const Document& doc);

  /// Every RTF of `keywords` (already normalized) in root document order.
  std::vector<RefRtf> Rtfs(const std::vector<std::string>& keywords) const;
  /// Only the number of RTFs (same pass, no keyword-node lists).
  size_t CountRtfs(const std::vector<std::string>& keywords) const;

 private:
  /// ELCA flags and per-node own masks in preorder index space.
  void Evaluate(const std::vector<std::string>& keywords,
                std::vector<uint64_t>* own, std::vector<uint8_t>* elca) const;

  std::vector<Dewey> deweys_;    // preorder
  std::vector<int32_t> parent_;  // preorder index of the parent, -1 at root
  std::unordered_map<std::string, std::vector<uint32_t>> word_nodes_;
};

/// The query text's keywords as the system normalizes them: lowercased
/// alphanumeric words, stop words dropped, first occurrence kept.
std::vector<std::string> NormalizeQuery(const std::string& text);

/// Checks the reference against the paper's Figure 1 examples.
Status SelfTest();

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_REFERENCE_H_
