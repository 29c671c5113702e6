#ifndef XVM_VIEW_TERM_BOUNDS_H_
#define XVM_VIEW_TERM_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "algebra/value.h"
#include "pattern/tree_pattern.h"
#include "store/canonical.h"
#include "update/delta.h"
#include "view/terms.h"
#include "view/upkeep.h"

namespace xvm {

/// How one store leaf of a union term's R-part is bounded by the
/// statement's Δ (DESIGN.md §2, "Term evaluation"). A term joins its R-part
/// to Δ rows, so only R rows that can meet one matter:
struct LeafBound {
  enum class Kind : uint8_t {
    /// `node` is a pattern ancestor of the Δ-set root `from`: each binding
    /// of it is a Dewey prefix of a Δ row of from's label, `gap` levels up
    /// (exactly when every edge between them is '/', at least otherwise),
    /// carrying node's label at that depth (PathNavigate, paper §3.4).
    kPrefix,
    /// `node` is not: it lies in the subtree of a row read for its parent
    /// `from`, one level below it when its own edge is '/'.
    kSubtree,
  };
  int node = -1;
  Kind kind = Kind::kPrefix;
  int from = -1;
  uint32_t gap = 0;    // pattern edges between `from` and `node`
  bool exact = false;  // every one of them is '/'
};

/// The Δ bounds of one union term, fixed when the view is created.
struct TermBounds {
  /// One per store leaf of a recomputed R-part, in pattern pre-order, so a
  /// kSubtree bound's parent comes first. Empty when the R-part is a
  /// snowcap or empty.
  std::vector<LeafBound> leaves;
  /// A snowcap R-part: the Δ-set root (-1 when none) whose pattern
  /// ancestors `snowcap_prefix` (pre-order) are the snowcap's leading ID
  /// columns, so proper prefixes of that root's Δ rows.
  int snowcap_root = -1;
  std::vector<int> snowcap_prefix;

  /// planlint --physical: one line per bounded leaf.
  std::string Describe(const TreePattern& pattern) const;
};

/// The bounds of the union term with Δ-set `delta_set` inside `within`;
/// `snowcap` says whether its R-part is a materialized snowcap.
TermBounds MakeTermBounds(const TreePattern& pattern, const NodeSet& within,
                          const NodeSet& delta_set, bool snowcap);

/// The rows of one term's leaves that one statement's Δ can reach, found by
/// binary search: in the canonical relations R_a themselves (during
/// propagation the pre-roll-forward relations, which still hold the
/// statement's deleted nodes and not yet its inserted ones) and in the
/// snowcap's BindingOrder rows. Every leaf comes out sorted and free of
/// duplicates, a subset of what a whole read returns, so leaf contracts and
/// statically elided sorts still hold. A leaf with more than
/// |R| / kRowsPerProbe candidates is read whole, through the same scan.
class BoundedLeaves {
 public:
  /// `labels` maps pattern nodes to label IDs (kInvalidLabel when absent).
  /// With `bounded` false every leaf is read whole (the comparison the
  /// tests make).
  BoundedLeaves(const TermBounds& bounds, const TreePattern& pattern,
                const StoreIndex& store, const std::vector<LabelId>& labels,
                const DeltaTables& delta, bool bounded);
  // Snowcap() hands out a pointer into this object.
  BoundedLeaves(const BoundedLeaves&) = delete;
  BoundedLeaves& operator=(const BoundedLeaves&) = delete;

  /// The store leaf of pattern node `node` (the LeafSource contract).
  Relation Store(int node);
  /// The rows of `snowcap` the term reads: `snowcap` itself when whole,
  /// else a copy of the reachable rows owned by this object.
  const Relation* Snowcap(const Relation& snowcap, const UpkeepOrder& order);

  /// Rows the leaves delivered so far.
  size_t rows_read() const { return rows_read_; }
  /// Leaves read whole: no bound, or past the probe budget.
  size_t unbounded() const { return unbounded_; }

 private:
  /// Positions in R_label(node) to read, or every row.
  struct Rows {
    bool whole = true;
    std::vector<size_t> positions;
  };
  /// Fill `out` with the rows `b` reaches, in increasing order, or return
  /// false, leaving `out` empty, past `budget` candidates.
  bool PrefixRows(const LeafBound& b, const CanonicalRelation& rel,
                  size_t budget, std::vector<size_t>* out) const;
  bool SubtreeRows(const LeafBound& b, const CanonicalRelation& rel,
                   size_t budget, std::vector<size_t>* out) const;

  const TermBounds& bounds_;
  const TreePattern& pattern_;
  const StoreIndex& store_;
  const std::vector<LabelId>& labels_;
  const DeltaTables& delta_;
  const bool bounded_;
  std::vector<Rows> rows_;  // per pattern node
  Relation snowcap_rows_;
  size_t rows_read_ = 0;
  size_t unbounded_ = 0;
};

}  // namespace xvm

#endif  // XVM_VIEW_TERM_BOUNDS_H_
