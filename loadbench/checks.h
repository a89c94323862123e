// Output checks run after the timed windows: the program's answers against
// the definitional reference (src/xml + src/text only), plus the structural
// invariants of pages, walks and fragments.

#ifndef XKS_LOADBENCH_CHECKS_H_
#define XKS_LOADBENCH_CHECKS_H_

#include <memory>
#include <string>
#include <vector>

#include "loadbench/inputs.h"
#include "loadbench/load.h"
#include "loadbench/reference.h"
#include "src/api/search_types.h"

namespace xks::loadbench {

/// Reference indexes of a corpus, in document-id order.
std::vector<std::unique_ptr<ReferenceDoc>> BuildReference(
    const std::vector<DocSpec>& specs);

/// Definitional RTF count of `text` over the whole corpus.
size_t ReferenceCount(const std::vector<std::unique_ptr<ReferenceDoc>>& ref,
                      const std::string& text);

/// Compares an in-process exhaustive unranked answer (raw fragments kept)
/// with the reference: per-document hits, roots and keyword-node sets in
/// document order; every pruned fragment a connected subtree of its raw
/// RTF that contains the root, and the raw RTF exactly the root-to-keyword
/// paths. Returns the first problem, or "".
std::string CheckExhaustiveAnswer(
    const std::vector<std::unique_ptr<ReferenceDoc>>& ref,
    const std::string& text, const SearchResponse& response);

/// Walk invariants over the pages of one session: ranked scores never
/// increase, unranked hits come in (document, document order), no hit
/// repeats, exact totals agree with `expected_total`. Returns "" or the
/// first problem.
std::string CheckWalk(const std::vector<PageSummary>& pages, bool ranked,
                      size_t expected_total);

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_CHECKS_H_
