#include "view/upkeep.h"

#include <algorithm>
#include <compare>

#include "common/gallop.h"
#include "common/status.h"
#include "update/delta.h"
#include "view/view_store.h"

namespace xvm {

UpkeepOrder MakeUpkeepOrder(const TreePattern& pattern,
                            const std::vector<NodeLayout>& layout,
                            const std::vector<int>& cvn) {
  UpkeepOrder order;
  std::vector<size_t> key_of(pattern.size(), 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (layout[i].id_col < 0) continue;
    key_of[i] = order.keys.size();
    UpkeepOrder::Key key;
    key.node = static_cast<int>(i);
    key.col = layout[i].id_col;
    order.keys.push_back(key);
  }
  for (size_t j = 0; j < order.keys.size(); ++j) {
    UpkeepOrder::Key& key = order.keys[j];
    while (key.chain <= j &&
           pattern.IsInSubtree(order.keys[key.chain].node, key.node)) {
      ++key.chain;
    }
  }
  while (order.spine < order.keys.size() &&
         order.keys[order.spine].chain == order.spine + 1) {
    UpkeepOrder::Key& key = order.keys[order.spine];
    const int stop = order.spine == 0 ? -1 : order.keys[order.spine - 1].node;
    key.exact = true;
    for (int n = key.node; n != stop; n = pattern.node(n).parent) {
      ++key.gap;
      key.exact = key.exact && pattern.node(n).edge == EdgeKind::kChild;
    }
    ++order.spine;
  }
  for (int node : cvn) {
    const NodeLayout& cols = layout[static_cast<size_t>(node)];
    if (cols.val_col < 0 && cols.cont_col < 0) continue;
    XVM_CHECK(cols.id_col >= 0);  // Validate: val/cont nodes store their ID
    order.payloads.push_back(UpkeepOrder::Payload{
        cols, order.keys[key_of[static_cast<size_t>(node)]].chain});
  }
  return order;
}

SortedRows::SortedRows(const ViewContent& content)
    : content_(&content), size_(content.size()) {}

const Tuple& SortedRows::operator[](size_t i) const {
  return rows_ != nullptr ? (*rows_)[i] : (*content_)[i].tuple;
}

namespace {

/// The ancestor-or-self of `*id` at `depth`, without building it.
struct IdRef {
  const DeweyId* id = nullptr;
  size_t depth = 0;
};

std::strong_ordering Compare(const DeweyId& x, const IdRef& r) {
  return DeweyId::ComparePrefixes(x, x.depth(), *r.id, r.depth);
}

/// One binary-searched group of rows: those whose first `len` ID columns
/// equal the probe's key or, with `subtree`, whose first len - 1 columns
/// equal the key's and whose next one lies in the subtree of the key's last
/// element, a full deleted root. The key is the group's lower bound.
struct Probe {
  size_t begin = 0;  // the key: ProbeSet::key(probe)[0, len)
  size_t len = 0;
  bool subtree = false;
};

/// The probes of one Δ, their keys in one buffer. Gives up (full()) once
/// there are more probes, or enumeration steps, than the structure's size
/// justifies.
class ProbeSet {
 public:
  ProbeSet(const UpkeepOrder& order, const std::vector<LabelId>& labels,
           size_t rows)
      : order_(order),
        labels_(labels),
        budget_(rows / kRowsPerProbe),
        step_budget_(4 * rows + 64) {}

  bool full() const { return full_; }
  std::vector<Probe>& probes() { return probes_; }
  const IdRef* key(const Probe& p) const { return keys_.data() + p.begin; }

  /// Adds one probe per assignment of keys [0, end) to ancestors-or-self of
  /// `a` no deeper than `max_depth` that matches the keys' labels and edge
  /// depths. With `root`, each probe's key ends in *root and selects key
  /// `end` inside root's subtree; assignments that leave key `end` too
  /// shallow to lie there are skipped.
  void AddPrefixes(const DeweyId& a, size_t end, size_t max_depth,
                   const DeweyId* root) {
    prefix_.clear();
    Assign(a, 0, end, 0, max_depth, root);
  }

 private:
  void Assign(const DeweyId& a, size_t i, size_t end, size_t prev_depth,
              size_t max_depth, const DeweyId* root) {
    if (full_) return;
    if (++steps_ > step_budget_) {
      full_ = true;
      return;
    }
    if (i == end) {
      Emit(end, prev_depth, root);
      return;
    }
    const UpkeepOrder::Key& key = order_.keys[i];
    const LabelId label = labels_[static_cast<size_t>(key.node)];
    const size_t lo = prev_depth + key.gap;
    const size_t hi = std::min(key.exact ? lo : max_depth, max_depth);
    for (size_t d = lo; d <= hi; ++d) {
      if (a.steps()[d - 1].label != label) continue;
      prefix_.push_back(IdRef{&a, d});
      Assign(a, i + 1, end, d, max_depth, root);
      prefix_.pop_back();
    }
  }

  void Emit(size_t end, size_t prev_depth, const DeweyId* root) {
    if (root != nullptr) {
      const UpkeepOrder::Key& next = order_.keys[end];
      if (next.exact && prev_depth + next.gap < root->depth()) return;
    }
    Probe probe;
    probe.begin = keys_.size();
    probe.subtree = root != nullptr;
    keys_.insert(keys_.end(), prefix_.begin(), prefix_.end());
    if (root != nullptr) keys_.push_back(IdRef{root, root->depth()});
    probe.len = keys_.size() - probe.begin;
    probes_.push_back(probe);
    if (probes_.size() > budget_) full_ = true;
  }

  const UpkeepOrder& order_;
  const std::vector<LabelId>& labels_;
  const size_t budget_;
  const size_t step_budget_;
  size_t steps_ = 0;
  bool full_ = false;
  std::vector<IdRef> prefix_;
  std::vector<IdRef> keys_;
  std::vector<Probe> probes_;
};

/// Orders row `row` against the first `len` elements of `key`.
std::strong_ordering CompareRow(const UpkeepOrder& order, const Tuple& row,
                                const IdRef* key, size_t len) {
  for (size_t t = 0; t < len; ++t) {
    auto c = Compare(row[static_cast<size_t>(order.keys[t].col)].id(), key[t]);
    if (c != std::strong_ordering::equal) return c;
  }
  return std::strong_ordering::equal;
}

/// True iff `row` sorts before the end of the group of `probe` (key `key`).
bool AtOrBeforeEnd(const UpkeepOrder& order, const Tuple& row,
                   const IdRef* key, const Probe& probe) {
  const size_t fixed = probe.len - (probe.subtree ? 1 : 0);
  auto c = CompareRow(order, row, key, fixed);
  if (c != std::strong_ordering::equal) return c < 0;
  if (!probe.subtree) return true;
  const DeweyId& x = row[static_cast<size_t>(order.keys[fixed].col)].id();
  const DeweyId& root = *key[fixed].id;
  return x < root || root.IsAncestorOrSelf(x);
}

/// Runs the probes in lower-bound order with one forward-only cursor and
/// merges their groups into sorted, disjoint ranges.
Reach Sweep(const UpkeepOrder& order, ProbeSet* set, const SortedRows& rows) {
  Reach out;
  const size_t n = rows.size();
  if (set->full()) {
    out.ranges.push_back(RowRange{0, n});
    out.whole = true;
    return out;
  }
  std::vector<Probe>& probes = set->probes();
  std::sort(probes.begin(), probes.end(),
            [set](const Probe& a, const Probe& b) {
              const IdRef* ka = set->key(a);
              const IdRef* kb = set->key(b);
              for (size_t t = 0; t < std::min(a.len, b.len); ++t) {
                auto c = DeweyId::ComparePrefixes(*ka[t].id, ka[t].depth,
                                                  *kb[t].id, kb[t].depth);
                if (c != std::strong_ordering::equal) return c < 0;
              }
              return a.len < b.len;
            });
  size_t cursor = 0;
  for (const Probe& probe : probes) {
    const IdRef* key = set->key(probe);
    const size_t lo = Gallop(cursor, n, [&](size_t i) {
      ++out.rows_compared;
      return CompareRow(order, rows[i], key, probe.len) < 0;
    });
    cursor = lo;
    // The group is contiguous from lo, so rows a previous range already
    // holds need no second look.
    const bool joins = !out.ranges.empty() && lo <= out.ranges.back().end;
    const size_t hi =
        Gallop(joins ? out.ranges.back().end : lo, n, [&](size_t i) {
          ++out.rows_compared;
          return AtOrBeforeEnd(order, rows[i], key, probe);
        });
    if (joins) {
      out.ranges.back().end = hi;
    } else if (lo < hi) {
      out.ranges.push_back(RowRange{lo, hi});
    }
  }
  return out;
}

/// Distinct values of `chain` over [first, last), ascending.
template <typename It>
std::vector<size_t> DistinctChains(It first, It last) {
  std::vector<size_t> out;
  for (; first != last; ++first) out.push_back(first->chain);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Reach ReachPayloadAncestors(const UpkeepOrder& order,
                            const std::vector<LabelId>& labels,
                            const std::vector<DeweyId>& anchors,
                            const SortedRows& rows) {
  if (order.payloads.empty() || anchors.empty() || rows.size() == 0) {
    return Reach{};
  }
  ProbeSet set(order, labels, rows.size());
  const std::vector<size_t> chains =
      DistinctChains(order.payloads.begin(), order.payloads.end());
  for (const DeweyId& a : anchors) {
    // The payload node and its leading ancestors are ancestors-or-self of
    // `a`; with no leading ancestor the group is every row.
    for (size_t chain : chains) set.AddPrefixes(a, chain, a.depth(), nullptr);
  }
  return Sweep(order, &set, rows);
}

Reach ReachCoveredRows(const UpkeepOrder& order,
                       const std::vector<LabelId>& labels,
                       const std::vector<DeweyId>& roots,
                       const SortedRows& rows) {
  if (roots.empty() || rows.size() == 0) return Reach{};
  ProbeSet set(order, labels, rows.size());
  // The leading chains of the keys off the spine.
  const std::vector<size_t> chains = DistinctChains(
      order.keys.begin() + static_cast<ptrdiff_t>(order.spine),
      order.keys.end());
  for (const DeweyId& r : roots) {
    const size_t above = r.depth() - 1;  // proper ancestors of r
    // A row whose first covered column is spine key i: the spine keys
    // before it are uncovered ancestors of a node under r, so proper
    // prefixes of r, and key i lies in r's subtree.
    for (size_t i = 0; i < order.spine; ++i) set.AddPrefixes(r, i, above, &r);
    // A row whose spine is uncovered but some later key is covered: that
    // key's spine ancestors are proper prefixes of r.
    for (size_t chain : chains) set.AddPrefixes(r, chain, above, nullptr);
  }
  return Sweep(order, &set, rows);
}

Reach ReachDeltaAncestors(const UpkeepOrder& order,
                          const std::vector<LabelId>& labels,
                          const std::vector<DeltaRow>& delta_rows,
                          size_t chain, const SortedRows& rows) {
  if (delta_rows.empty() || rows.size() == 0) return Reach{};
  ProbeSet set(order, labels, rows.size());
  const DeweyId* prev = nullptr;
  for (const DeltaRow& row : delta_rows) {
    if (set.full()) break;
    const DeweyId& a = row.id;
    // Siblings have the same proper ancestors, so the same probes.
    if (prev != nullptr && DeweyId::ComparePrefixes(*prev, prev->depth() - 1,
                                                    a, a.depth() - 1) == 0) {
      continue;
    }
    prev = &a;
    set.AddPrefixes(a, chain, a.depth() - 1, nullptr);
  }
  return Sweep(order, &set, rows);
}

}  // namespace xvm
