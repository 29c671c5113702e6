#ifndef XVM_BASELINE_IVMA_H_
#define XVM_BASELINE_IVMA_H_

#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/timing.h"
#include "store/canonical.h"
#include "update/update.h"
#include "view/outcome.h"
#include "view/view_def.h"
#include "view/view_store.h"

namespace xvm {

/// Re-implementation of IVMA, the node-at-a-time incremental view
/// maintenance algorithm of Sawires et al. (SIGMOD 2005), as the paper's
/// closest competitor (§6.6). Differences from MaintainedView are exactly
/// the ones the paper contrasts:
///  * updates are propagated one node at a time — a statement inserting or
///    deleting k nodes triggers k propagation calls;
///  * each call runs navigational (nested-loop) compensation queries over
///    the document instead of bulk set-oriented structural joins;
///  * no auxiliary lattice structures are kept.
/// Derivation counts are maintained exactly: an embedding is attributed to
/// the first of its new/removed nodes in processing order, at that node's
/// first pattern position, so multi-node updates are never double-counted.
class IvmaView {
 public:
  IvmaView(ViewDefinition def, StoreIndex* store);

  void Initialize();

  const ViewDefinition& def() const { return def_; }
  const MaterializedView& view() const { return view_; }
  /// Number of node-level propagation calls performed so far.
  size_t propagation_calls() const { return propagation_calls_; }

  /// Statement-level driver: expands the statement to its node-level
  /// updates and calls the node-at-a-time propagation for each.
  StatusOr<UpdateOutcome> ApplyAndPropagate(Document* doc,
                                            const UpdateStmt& stmt);

 private:
  /// Propagates a single inserted node (document already updated). `pending`
  /// holds the encoded IDs of nodes inserted by the same statement but not
  /// yet propagated; embeddings touching them are deferred.
  void PropagateInsertedNode(const Document& doc, NodeHandle n,
                             const std::unordered_set<std::string>& pending);

  /// Propagates a single to-be-deleted node (document NOT yet updated).
  /// `processed` holds encoded IDs already handled for this statement.
  void PropagateDeletedNode(const Document& doc, NodeHandle n,
                            const std::unordered_set<std::string>& processed);

  /// Enumerates all pattern embeddings binding pattern node `x` to document
  /// node `n`, invoking `fn(bindings)` for each (bindings indexed by pattern
  /// node). Pure navigation: parent pointers upward, child scans downward.
  void EnumerateEmbeddingsFixing(
      const Document& doc, int x, NodeHandle n,
      const std::function<void(const std::vector<NodeHandle>&)>& fn) const;

  /// PIMT/PDMT of the baseline: walks every view tuple and re-reads from
  /// `doc` the val/cont of each cvn node whose ID `affected` picks.
  template <typename Affected>
  void RefreshAllTuples(const Document& doc, const Affected& affected);

  /// Projects an embedding onto the view's stored tuple.
  Tuple ProjectEmbedding(const Document& doc,
                         const std::vector<NodeHandle>& bindings) const;

  /// Navigational node test for pattern node `p` (label, value predicate,
  /// '/'-anchored root).
  bool NodeMatches(const Document& doc, int p, NodeHandle d) const;

  ViewDefinition def_;
  StoreIndex* store_;
  MaterializedView view_;
  size_t propagation_calls_ = 0;
};

}  // namespace xvm

#endif  // XVM_BASELINE_IVMA_H_
