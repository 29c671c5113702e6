#ifndef XVM_VIEW_TERMS_H_
#define XVM_VIEW_TERMS_H_

#include <string>
#include <vector>

#include "pattern/tree_pattern.h"
#include "store/label_dict.h"
#include "update/delta.h"

namespace xvm {

/// A subset of pattern nodes, index-aligned with TreePattern::nodes().
using NodeSet = std::vector<bool>;

size_t NodeSetCount(const NodeSet& s);
std::string NodeSetToString(const TreePattern& pattern, const NodeSet& s);

/// Enumerates the Δ-node sets of the union terms that survive the
/// update-independent pruning (Prop. 3.3 for insertions, Prop. 4.2 + the
/// disjoint decomposition for deletions — see DESIGN.md): the non-empty
/// *descendant-closed* subsets of the pattern (a term's Δ-set is
/// descendant-closed iff its R-part is a snowcap or empty, Prop. 3.12).
/// Ordered by ascending size. This is the "Develop the 2^k − 1 union terms"
/// step performed once when the view is created (Algorithm 1).
std::vector<NodeSet> EnumerateDeltaSets(const TreePattern& pattern);

/// Like EnumerateDeltaSets but restricted to the sub-pattern induced by
/// `within` (an upward-closed set): descendant-closure is relative to the
/// edges present inside `within`. Used to maintain materialized snowcaps
/// (Prop. 3.13).
std::vector<NodeSet> EnumerateDeltaSetsWithin(const TreePattern& pattern,
                                              const NodeSet& within);

/// Prop. 3.6 (insertions) / data-driven pruning (deletions): the term is
/// empty if some Δ-node's label has an empty Δ table.
bool TermPrunedByEmptyDelta(const TreePattern& pattern,
                            const NodeSet& delta_set, const DeltaTables& delta,
                            const LabelDict& dict);

/// Prop. 3.8 (insertions) / Prop. 4.7 (deletions): the term is empty if for
/// some R-node n1 that is a pattern-ancestor of a Δ-node, no update anchor's
/// ID carries n1's label on its path — ancestor-or-self of the insertion
/// targets for Δ+, proper ancestors of the deleted roots for Δ− (a
/// surviving R-binding above deleted data must lie strictly above the
/// deleted subtree root). Pure PathFilter reasoning over IDs.
bool TermPrunedByAnchorPaths(const TreePattern& pattern,
                             const NodeSet& delta_set, const NodeSet& within,
                             const DeltaTables& delta, const LabelDict& dict);

}  // namespace xvm

#endif  // XVM_VIEW_TERMS_H_
