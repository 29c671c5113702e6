#ifndef XVM_STORE_CANONICAL_H_
#define XVM_STORE_CANONICAL_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/valcont_cache.h"
#include "xml/document.h"

namespace xvm {

/// The virtual canonical relation R_a of a label `a` in a document d
/// (paper §2.2): the list of (ID, val, cont) tuples of all a-labeled nodes,
/// sorted in document order. We store node handles sorted by structural ID;
/// `val` and `cont` are computed from the document on demand, which is what
/// makes the relation "virtual".
class CanonicalRelation {
 public:
  CanonicalRelation() = default;

  /// Nodes in document order.
  const std::vector<NodeHandle>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Position of the node whose ID is the ancestor-or-self of `id` at
  /// `depth` (a Dewey prefix of `id`), or size() when the relation holds no
  /// such node. Searches [*cursor, size()) by galloping and leaves
  /// *cursor at the first position not before that prefix, so a batch of
  /// lookups in document order shares one forward pass. `doc` is the
  /// document the handles point into.
  size_t Find(const Document& doc, const DeweyId& id, size_t depth,
              size_t* cursor) const;

  /// Positions [first, second) of the proper descendants of `id`, at or
  /// after `from`: a subtree is one contiguous range in document order.
  /// Gallops from `from`, so subtrees looked up in document order share
  /// one forward pass.
  std::pair<size_t, size_t> DescendantRange(const Document& doc,
                                            const DeweyId& id,
                                            size_t from) const;

 private:
  friend class StoreIndex;
  std::vector<NodeHandle> nodes_;
};

/// Maintains the canonical relations of one document. The relations are the
/// leaves of every view's sub-pattern lattice; the paper assumes their
/// maintenance (R_a := R_a ∪ Δ+_a, R_a := R_a \ Δ−_a) happens as part of
/// applying the update to the store — which is exactly what
/// OnNodesAdded/OnNodesRemoved implement.
class StoreIndex {
 public:
  explicit StoreIndex(const Document* doc) : doc_(doc) {}

  StoreIndex(const StoreIndex&) = delete;
  StoreIndex& operator=(const StoreIndex&) = delete;

  /// (Re)builds all relations from the current document state.
  void Build();

  /// Registers freshly inserted nodes (any labels, any order). Nodes must
  /// be alive unless `allow_dead` — ViewManager::Flush, draining several
  /// deferred statements, registers nodes a *later queued* statement has
  /// already deleted from the document, so that earlier statements' R
  /// relations match the store state as of their own step; the later
  /// statement's OnNodesRemoved takes them out again before the flush ends.
  void OnNodesAdded(const std::vector<NodeHandle>& added,
                    bool allow_dead = false);

  /// Unregisters deleted nodes. Tolerates handles that were never added
  /// (e.g. a candidate filtered before registration): absent handles are
  /// skipped without touching any relation.
  void OnNodesRemoved(const std::vector<NodeHandle>& removed);

  /// The relation for `label`; an empty static relation if absent.
  const CanonicalRelation& Relation(LabelId label) const;

  /// The alive node carrying `id`, or kNullNode: a binary search of the
  /// document-ordered R_label(id). Between a statement's PUL application
  /// and its roll-forward, nodes it deleted or inserted do not resolve.
  NodeHandle FindById(const DeweyId& id) const;

  /// `val` of a tuple: the node's XPath string value, served from the
  /// delta-aware cache when enabled. Dead nodes bypass the cache entirely
  /// (delete propagation scans them before σ_alive filters), so the cache
  /// only ever holds payloads of live nodes. Returns by value: a reference
  /// into the cache could be evicted under a concurrent reader.
  std::string Val(NodeHandle h) const;

  /// `cont` of a tuple: the serialized subtree, same caching contract.
  std::string Cont(NodeHandle h) const;

  ValContCache& cache() { return cache_; }
  const ValContCache& cache() const { return cache_; }

  const Document& doc() const { return *doc_; }

  /// Direct mutable access to a relation's node vector, so tests can inject
  /// deliberate corruption (out-of-order entries, dead/mislabeled nodes) and
  /// assert the invariant auditor (store/audit.h) reports it. Never used by
  /// production code.
  std::vector<NodeHandle>* MutableNodesForTesting(LabelId label) {
    return &relations_[label].nodes_;
  }

 private:
  const Document* doc_;
  std::unordered_map<LabelId, CanonicalRelation> relations_;
  /// val/cont memoization; mutable because cache fills happen on the const
  /// read path (Val/Cont), and ValContCache is internally synchronized.
  mutable ValContCache cache_;
  static const CanonicalRelation kEmpty;
};

}  // namespace xvm

#endif  // XVM_STORE_CANONICAL_H_
