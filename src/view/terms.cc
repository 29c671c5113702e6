#include "view/terms.h"

#include <algorithm>

#include "common/status.h"

namespace xvm {

size_t NodeSetCount(const NodeSet& s) {
  size_t n = 0;
  for (bool b : s) n += b ? 1 : 0;
  return n;
}

std::string NodeSetToString(const TreePattern& pattern, const NodeSet& s) {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!s[i]) continue;
    if (!first) out += ",";
    out += pattern.node(static_cast<int>(i)).name;
    first = false;
  }
  return out + "}";
}

namespace {

/// Sorts by ascending popcount, ties by the bit pattern.
void SortBySize(std::vector<NodeSet>* sets) {
  std::sort(sets->begin(), sets->end(),
            [](const NodeSet& a, const NodeSet& b) {
              size_t ca = NodeSetCount(a), cb = NodeSetCount(b);
              if (ca != cb) return ca < cb;
              return a < b;
            });
}

}  // namespace

std::vector<NodeSet> EnumerateDeltaSets(const TreePattern& pattern) {
  const size_t k = pattern.size();
  XVM_CHECK(k >= 1 && k <= 20);
  std::vector<NodeSet> out;
  for (uint32_t mask = 1; mask < (1u << k); ++mask) {
    bool closed = true;
    for (size_t i = 0; i < k && closed; ++i) {
      if (((mask >> i) & 1u) == 0) continue;
      for (int c : pattern.node(static_cast<int>(i)).children) {
        if (((mask >> c) & 1u) == 0) {
          closed = false;
          break;
        }
      }
    }
    if (!closed) continue;
    NodeSet s(k, false);
    for (size_t i = 0; i < k; ++i) s[i] = ((mask >> i) & 1u) != 0;
    out.push_back(std::move(s));
  }
  SortBySize(&out);
  return out;
}

std::vector<NodeSet> EnumerateDeltaSetsWithin(const TreePattern& pattern,
                                              const NodeSet& within) {
  const size_t k = pattern.size();
  std::vector<int> members;
  for (size_t i = 0; i < k; ++i) {
    if (within[i]) members.push_back(static_cast<int>(i));
  }
  const size_t m = members.size();
  XVM_CHECK(m >= 1 && m <= 20);
  std::vector<NodeSet> out;
  for (uint32_t mask = 1; mask < (1u << m); ++mask) {
    NodeSet s(k, false);
    for (size_t b = 0; b < m; ++b) {
      if ((mask >> b) & 1u) s[static_cast<size_t>(members[b])] = true;
    }
    bool closed = true;
    for (size_t b = 0; b < m && closed; ++b) {
      int i = members[b];
      if (!s[static_cast<size_t>(i)]) continue;
      for (int c : pattern.node(i).children) {
        if (within[static_cast<size_t>(c)] && !s[static_cast<size_t>(c)]) {
          closed = false;
          break;
        }
      }
    }
    if (closed) out.push_back(std::move(s));
  }
  SortBySize(&out);
  return out;
}

bool TermPrunedByEmptyDelta(const TreePattern& pattern,
                            const NodeSet& delta_set, const DeltaTables& delta,
                            const LabelDict& dict) {
  for (size_t i = 0; i < delta_set.size(); ++i) {
    if (!delta_set[i]) continue;
    LabelId label = dict.Lookup(pattern.node(static_cast<int>(i)).label);
    if (label == kInvalidLabel || delta.Empty(label)) return true;
  }
  return false;
}

bool TermPrunedByAnchorPaths(const TreePattern& pattern,
                             const NodeSet& delta_set, const NodeSet& within,
                             const DeltaTables& delta, const LabelDict& dict) {
  // Collect R-nodes (within \ delta_set) that are pattern-ancestors of some
  // Δ-node. Because Δ-sets are descendant-closed, these are exactly the
  // R-ancestors (within `within`) of Δ-frontier nodes.
  for (size_t n1 = 0; n1 < delta_set.size(); ++n1) {
    if (!within[n1] || delta_set[n1]) continue;  // not an R-node
    bool above_delta = false;
    for (size_t n2 = 0; n2 < delta_set.size() && !above_delta; ++n2) {
      if (delta_set[n2] && within[n2] &&
          pattern.IsInSubtree(static_cast<int>(n1), static_cast<int>(n2)) &&
          n1 != n2) {
        above_delta = true;
      }
    }
    if (!above_delta) continue;
    LabelId label = dict.Lookup(pattern.node(static_cast<int>(n1)).label);
    if (label == kInvalidLabel) return true;  // label absent from document
    bool anchored = false;
    if (delta.sign() == DeltaTables::Sign::kPlus) {
      anchored = delta.AnyAnchorHasAncestorOrSelfLabeled(label);
    } else {
      // Deletions: the surviving R-binding must be a *proper* ancestor of
      // the deleted subtree root.
      for (const auto& id : delta.anchor_ids()) {
        if (id.HasAncestorLabeled(label)) {
          anchored = true;
          break;
        }
      }
    }
    if (!anchored) return true;
  }
  return false;
}

}  // namespace xvm
