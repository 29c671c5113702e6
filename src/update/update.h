#ifndef XVM_UPDATE_UPDATE_H_
#define XVM_UPDATE_UPDATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timing.h"
#include "store/canonical.h"
#include "xml/document.h"

namespace xvm {

/// A statement-level XML update (paper §2.3):
///   * delete q                         — kDelete, target_path = q
///   * insert xml into q                — kInsert with a constant forest
///   * for $x in q insert xml into $x   — same as the previous form
///   * insert q1 into q2                — kInsert with source_path = q1
///   * replace contents of q with xml   — kReplace: one statement whose PUL
///     both deletes (every existing child subtree of each target) and
///     inserts (the new forest under the same target) — the restriction of
///     XQuery Update's "replace" to our ins-as-last-child model.
struct UpdateStmt {
  enum class Kind : uint8_t { kInsert, kDelete, kReplace };

  Kind kind = Kind::kInsert;
  std::string target_path;  // q / q2: where to insert or what to delete

  /// Constant XML forest to insert (parsed with ParseForest); null for
  /// deletes and for query-sourced inserts.
  std::shared_ptr<Document> forest;

  /// For `insert q1 into q2`: the XPath whose result subtrees are copied.
  std::string source_path;

  /// Optional human-readable name (e.g. "X1_L" from Appendix A).
  std::string name;

  static UpdateStmt Delete(std::string path, std::string name = "");
  static UpdateStmt InsertForest(std::string path, std::string xml_forest,
                                 std::string name = "");
  static UpdateStmt InsertQuery(std::string source_path,
                                std::string target_path,
                                std::string name = "");
  static UpdateStmt ReplaceContent(std::string path, std::string xml_forest,
                                   std::string name = "");
};

/// One pending atomic insertion: copy `src_root` (a subtree of `src_doc`)
/// as a new last child of `target` (ins↘ of §5.2). When the source is a
/// statement's constant forest, `src_owner` keeps it alive for the PUL's
/// lifetime (query-sourced inserts reference the target document itself).
struct PulInsertOp {
  NodeHandle target = kNullNode;
  const Document* src_doc = nullptr;
  NodeHandle src_root = kNullNode;
  std::shared_ptr<const Document> src_owner;
};

/// One pending atomic deletion: remove the subtree rooted at `target`.
struct PulDeleteOp {
  NodeHandle target = kNullNode;
};

/// A pending update list (paper §3.4 / XQuery Update). A statement expands
/// into node-level operations; PULs are also the unit the §5 optimization
/// rules rewrite.
struct Pul {
  std::vector<PulInsertOp> inserts;
  std::vector<PulDeleteOp> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  size_t size() const { return inserts.size() + deletes.size(); }
};

/// compute-pul (paper §3.4): evaluates the statement's target (and source)
/// paths on `doc` and expands it to a PUL. Records the XPath evaluation
/// time under phase::kFindTargets when `timer` is non-null.
StatusOr<Pul> ComputePul(const Document& doc, const UpdateStmt& stmt,
                         PhaseTimer* timer = nullptr);

/// Result of applying a PUL to the document.
struct ApplyResult {
  /// Every node added, including descendants of copied trees (doc order of
  /// creation). Their IDs were assigned by the document in the new context.
  std::vector<NodeHandle> inserted_nodes;
  /// Roots of the copied trees, one per insert op.
  std::vector<NodeHandle> inserted_roots;
  /// IDs of the insertion-point (target) nodes (for Prop. 3.8 / PIMT).
  std::vector<DeweyId> insert_target_ids;
  /// Every node removed, including descendants.
  std::vector<NodeHandle> deleted_nodes;
  /// Roots of the deleted subtrees. A dead root keeps its parent link, so
  /// the surviving ancestors stay reachable from it.
  std::vector<NodeHandle> deleted_roots;
};

/// apply-insert / apply-delete (paper §3.4): executes the PUL against `doc`,
/// assigning fresh structural IDs to copied nodes. If `store` is non-null,
/// its canonical relations are maintained as part of the update (the paper
/// assumes R_l upkeep is "part of the update process itself", Prop. 3.15),
/// including val/cont cache invalidation. Deletions skip targets already
/// removed by an earlier op in the same PUL.
ApplyResult ApplyPul(Document* doc, const Pul& pul, StoreIndex* store);

/// Invalidates the store's val/cont cache for one applied update: drops the
/// entries of every deleted node, then follows parent links up from each
/// inserted and deleted subtree root, erasing the cached ancestors, whose
/// val/cont embed the changed subtrees. It reads handles only, never IDs,
/// so the relations may lag: the maintenance flows apply the PUL with
/// store == nullptr, roll the relations forward after propagation, and call
/// this right after ApplyPul, as the cache is defined against the current
/// document. No-op if `store` is null.
void InvalidateStoreValCont(StoreIndex* store, const ApplyResult& applied);

}  // namespace xvm

#endif  // XVM_UPDATE_UPDATE_H_
