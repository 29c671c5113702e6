#ifndef XVM_UPDATE_DELTA_H_
#define XVM_UPDATE_DELTA_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timing.h"
#include "update/update.h"
#include "xml/document.h"

namespace xvm {

struct DeltaNeeds;

/// One row of a Δ table: a node's structural ID plus (for insertions) its
/// value and content in the *updated* document context.
struct DeltaRow {
  DeweyId id;
  std::string val;
  std::string cont;
};

/// The Δ+ (or Δ−) tables of one update: for each label l, the ordered
/// collection of (ID, val, cont) tuples of the nodes added to (removed from)
/// the document (paper §3.1 / §4.1). Also carries the update's target-node
/// IDs, used by the ID-driven pruning of Prop. 3.8 / 4.7 and by the
/// tuple-modification algorithms (PIMT/PDMT).
class DeltaTables {
 public:
  enum class Sign : uint8_t { kPlus, kMinus };

  DeltaTables() = default;

  Sign sign() const { return sign_; }

  /// Rows for `label` sorted in document order; empty vector if none.
  const std::vector<DeltaRow>& ForLabel(LabelId label) const;

  bool Empty(LabelId label) const { return ForLabel(label).empty(); }

  /// Labels with at least one row.
  std::vector<LabelId> Labels() const;

  /// Total row count across all labels.
  size_t TotalRows() const;

  /// For Δ+: IDs of the insertion-point (parent) nodes. For Δ−: IDs of the
  /// deleted subtree roots.
  const std::vector<DeweyId>& anchor_ids() const { return anchor_ids_; }

  /// True iff some anchor node has `label` on its root path (ancestor *or
  /// self*) — the Prop. 3.8 test "p_i is not labeled n1 and has no ancestor
  /// labeled n1", evaluated purely on IDs (PathFilter).
  bool AnyAnchorHasAncestorOrSelfLabeled(LabelId label) const;

 private:
  friend DeltaTables ComputeDeltaPlus(const Document&, const ApplyResult&,
                                      PhaseTimer*, const DeltaNeeds*);
  friend DeltaTables ComputeDeltaMinus(const Document&, const Pul&,
                                       PhaseTimer*,
                                       const std::set<LabelId>*);

  Sign sign_ = Sign::kPlus;
  std::unordered_map<LabelId, std::vector<DeltaRow>> tables_;
  std::vector<DeweyId> anchor_ids_;
  static const std::vector<DeltaRow> kEmpty;
};

/// Which payloads a Δ extraction must materialize, derived from the
/// registered views: `val` for labels with a stored val or a value
/// predicate, `cont` for labels with a stored cont. Null sets mean
/// "capture for every label".
struct DeltaNeeds {
  std::set<LabelId> val_labels;
  std::set<LabelId> cont_labels;

  /// Unions `other` into this — the multi-view coordinator extracts one Δ
  /// table set covering every registered view's payload needs.
  void MergeFrom(const DeltaNeeds& other) {
    val_labels.insert(other.val_labels.begin(), other.val_labels.end());
    cont_labels.insert(other.cont_labels.begin(), other.cont_labels.end());
  }
};

/// CD+ (Algorithm 2): builds the Δ+ tables from an applied insertion. The
/// IDs "are computed as a side-effect of the document update" — they are
/// read off the freshly inserted nodes; val/cont are extracted from the new
/// subtrees, restricted to the labels in `needs` when provided. Records
/// phase::kComputeDeltas when `timer` is non-null.
DeltaTables ComputeDeltaPlus(const Document& doc, const ApplyResult& applied,
                             PhaseTimer* timer = nullptr,
                             const DeltaNeeds* needs = nullptr);

/// CD−: builds the Δ− tables from a *pending* deletion PUL. Must run before
/// ApplyPul (the IDs of the doomed nodes are still resolvable). Only IDs are
/// recorded, except for labels in `capture_val_labels` (labels carrying a
/// value predicate in some registered view), whose rows also capture the
/// node's string value so σ can filter Δ− exactly like R.
DeltaTables ComputeDeltaMinus(
    const Document& doc, const Pul& pul, PhaseTimer* timer = nullptr,
    const std::set<LabelId>* capture_val_labels = nullptr);

}  // namespace xvm

#endif  // XVM_UPDATE_DELTA_H_
