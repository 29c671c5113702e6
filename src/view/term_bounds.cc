#include "view/term_bounds.h"

#include <algorithm>

#include "pattern/compile.h"

namespace xvm {

namespace {

/// The ancestor-or-self of `*id` at `depth`, without building it.
struct IdRef {
  const DeweyId* id = nullptr;
  size_t depth = 0;
};

bool RefLess(const IdRef& a, const IdRef& b) {
  return DeweyId::ComparePrefixes(*a.id, a.depth, *b.id, b.depth) < 0;
}

}  // namespace

std::string TermBounds::Describe(const TreePattern& pattern) const {
  std::string out;
  for (const LeafBound& b : leaves) {
    out += "bound node " + std::to_string(b.node) + " (" +
           pattern.node(b.node).name + "): ";
    if (b.kind == LeafBound::Kind::kPrefix) {
      out += "prefix of Δ node " + std::to_string(b.from);
    } else {
      out += std::string(b.exact ? "child" : "descendant") + " of node " +
             std::to_string(b.from);
    }
    out += "\n";
  }
  if (snowcap_root >= 0) {
    std::string nodes;
    std::string names;
    for (int n : snowcap_prefix) {
      if (!nodes.empty()) {
        nodes += ",";
        names += ",";
      }
      nodes += std::to_string(n);
      names += pattern.node(n).name;
    }
    out += "bound snowcap node " + nodes + " (" + names +
           "): prefixes of Δ node " + std::to_string(snowcap_root) + "\n";
  }
  return out;
}

TermBounds MakeTermBounds(const TreePattern& pattern, const NodeSet& within,
                          const NodeSet& delta_set, bool snowcap) {
  const size_t k = pattern.size();
  NodeSet r_part(k, false);
  // The Δ-set roots: Δ nodes whose parent is in the R-part. The R-part is
  // upward-closed, so it holds every pattern ancestor of each of them.
  std::vector<int> roots;
  for (size_t i = 0; i < k; ++i) {
    r_part[i] = within[i] && !delta_set[i];
    const int parent = pattern.node(static_cast<int>(i)).parent;
    if (within[i] && delta_set[i] && parent >= 0 &&
        within[static_cast<size_t>(parent)] &&
        !delta_set[static_cast<size_t>(parent)]) {
      roots.push_back(static_cast<int>(i));
    }
  }
  TermBounds out;
  if (roots.empty()) return out;  // the whole term reads Δ tables
  auto is_ancestor = [&](int anc, int node) {
    return anc != node && pattern.IsInSubtree(anc, node);
  };
  if (snowcap) {
    // The snowcap's ID columns are its nodes in pre-order; fix the longest
    // leading run that are ancestors of one root.
    for (int root : roots) {
      std::vector<int> prefix;
      for (size_t i = 0; i < k; ++i) {
        if (!r_part[i]) continue;
        if (!is_ancestor(static_cast<int>(i), root)) break;
        prefix.push_back(static_cast<int>(i));
      }
      if (prefix.size() > out.snowcap_prefix.size()) {
        out.snowcap_root = root;
        out.snowcap_prefix = std::move(prefix);
      }
    }
    return out;
  }
  // Nodes are stored in pre-order: a parent is bounded before its children.
  for (size_t i = 0; i < k; ++i) {
    if (!r_part[i]) continue;
    const int node = static_cast<int>(i);
    LeafBound b;
    b.node = node;
    for (int root : roots) {
      if (!is_ancestor(node, root)) continue;
      LeafBound cand;
      cand.node = node;
      cand.kind = LeafBound::Kind::kPrefix;
      cand.from = root;
      cand.exact = true;
      for (int m = root; m != node; m = pattern.node(m).parent) {
        ++cand.gap;
        cand.exact = cand.exact && pattern.node(m).edge == EdgeKind::kChild;
      }
      // Prefer a root the node sits at a fixed depth above: one candidate
      // per Δ row instead of one per matching ancestor.
      if (b.from < 0 || (cand.exact && !b.exact)) b = cand;
    }
    if (b.from < 0) {
      b.kind = LeafBound::Kind::kSubtree;
      b.from = pattern.node(node).parent;
      b.gap = 1;
      b.exact = pattern.node(node).edge == EdgeKind::kChild;
    }
    out.leaves.push_back(b);
  }
  return out;
}

BoundedLeaves::BoundedLeaves(const TermBounds& bounds,
                             const TreePattern& pattern,
                             const StoreIndex& store,
                             const std::vector<LabelId>& labels,
                             const DeltaTables& delta, bool bounded)
    : bounds_(bounds),
      pattern_(pattern),
      store_(store),
      labels_(labels),
      delta_(delta),
      bounded_(bounded),
      rows_(pattern.size()) {
  if (!bounded_) return;
  for (const LeafBound& b : bounds_.leaves) {
    Rows& rows = rows_[static_cast<size_t>(b.node)];
    const CanonicalRelation& rel =
        store_.Relation(labels_[static_cast<size_t>(b.node)]);
    const size_t budget = rel.size() / kRowsPerProbe;
    rows.whole = b.kind == LeafBound::Kind::kPrefix
                     ? !PrefixRows(b, rel, budget, &rows.positions)
                     : !SubtreeRows(b, rel, budget, &rows.positions);
  }
}

bool BoundedLeaves::PrefixRows(const LeafBound& b,
                               const CanonicalRelation& rel, size_t budget,
                               std::vector<size_t>* out) const {
  const LabelId label = labels_[static_cast<size_t>(b.node)];
  const std::vector<DeltaRow>& delta_rows =
      delta_.ForLabel(labels_[static_cast<size_t>(b.from)]);
  std::vector<IdRef> candidates;
  // Δ rows are in document order, so at each depth their prefixes are
  // too: a repeated candidate repeats the last one taken at its depth.
  std::vector<const DeweyId*> last;
  for (const DeltaRow& row : delta_rows) {
    const DeweyId& a = row.id;
    if (a.depth() <= b.gap) continue;
    const size_t hi = a.depth() - b.gap;
    const size_t lo = b.exact ? hi : 1;
    if (last.size() <= hi) last.resize(hi + 1, nullptr);
    for (size_t d = lo; d <= hi; ++d) {
      if (a.steps()[d - 1].label != label) continue;
      if (last[d] != nullptr &&
          DeweyId::ComparePrefixes(*last[d], d, a, d) == 0) {
        continue;
      }
      last[d] = &a;
      candidates.push_back(IdRef{&a, d});
      if (candidates.size() > budget) return false;
    }
  }
  std::sort(candidates.begin(), candidates.end(), RefLess);
  const Document& doc = store_.doc();
  size_t cursor = 0;
  for (const IdRef& c : candidates) {
    const size_t pos = rel.Find(doc, *c.id, c.depth, &cursor);
    if (pos < rel.size()) out->push_back(pos);
  }
  return true;
}

bool BoundedLeaves::SubtreeRows(const LeafBound& b,
                                const CanonicalRelation& rel, size_t budget,
                                std::vector<size_t>* out) const {
  const Rows& parent = rows_[static_cast<size_t>(b.from)];
  const CanonicalRelation& prel =
      store_.Relation(labels_[static_cast<size_t>(b.from)]);
  const size_t count = parent.whole ? prel.size() : parent.positions.size();
  if (count > budget) return false;
  const Document& doc = store_.doc();
  size_t from = 0;
  size_t covered = 0;
  bool nested = false;
  for (size_t k = 0; k < count; ++k) {
    const size_t p = parent.whole ? k : parent.positions[k];
    const DeweyId& pid = doc.node(prel.nodes()[p]).id;
    const auto [first, last] = rel.DescendantRange(doc, pid, from);
    from = first;  // parents come in document order
    // Parents nest under '//': their ranges overlap.
    nested = nested || first < covered;
    covered = std::max(covered, last);
    for (size_t i = first; i < last; ++i) {
      if (!b.exact ||
          doc.node(rel.nodes()[i]).id.depth() == pid.depth() + b.gap) {
        out->push_back(i);
      }
    }
  }
  if (nested) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
  return true;
}

Relation BoundedLeaves::Store(int node) {
  const Rows& rows = rows_[static_cast<size_t>(node)];
  Relation rel = ScanLeaf(store_, pattern_.node(node),
                          rows.whole ? nullptr : &rows.positions);
  if (rows.whole) ++unbounded_;
  rows_read_ += rel.size();
  return rel;
}

const Relation* BoundedLeaves::Snowcap(const Relation& snowcap,
                                       const UpkeepOrder& order) {
  if (bounded_ && bounds_.snowcap_root >= 0) {
    const Reach reach = ReachDeltaAncestors(
        order, labels_,
        delta_.ForLabel(labels_[static_cast<size_t>(bounds_.snowcap_root)]),
        bounds_.snowcap_prefix.size(), SortedRows(snowcap.rows));
    if (!reach.whole) {
      snowcap_rows_.schema = snowcap.schema;
      for (const RowRange& r : reach.ranges) {
        snowcap_rows_.rows.insert(
            snowcap_rows_.rows.end(),
            snowcap.rows.begin() + static_cast<ptrdiff_t>(r.begin),
            snowcap.rows.begin() + static_cast<ptrdiff_t>(r.end));
      }
      rows_read_ += snowcap_rows_.size();
      return &snowcap_rows_;
    }
  }
  ++unbounded_;
  rows_read_ += snowcap.size();
  return &snowcap;
}

}  // namespace xvm
