#ifndef XVM_VIEW_UPKEEP_H_
#define XVM_VIEW_UPKEEP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/value.h"
#include "pattern/compile.h"
#include "pattern/tree_pattern.h"

namespace xvm {

class ViewContent;  // view/view_store.h
struct DeltaRow;    // update/delta.h

/// A search pays a sort and two gallops per probe on top of filtering the
/// rows it finds; past one probe per this many rows, one pass over every
/// row is cheaper. Upkeep and the Δ-bounded term leaves
/// (view/term_bounds.h) share it.
inline constexpr size_t kRowsPerProbe = 8;

/// How tuple-modification and snowcap upkeep find the rows of one view or
/// snowcap that a Δ can reach, fixed when the view is created.
///
/// Rows are kept sorted by their ID columns in pattern pre-order: a view in
/// canonical order, a snowcap in BindingOrder. A stored node's pattern
/// ancestors are Dewey prefixes of its ID, so the rows whose node n is an
/// ancestor-or-self of an update anchor a have, in the leading ID columns
/// that are n's pattern ancestors, IDs among a's prefixes (PathNavigate,
/// paper §3.4). Fixing those columns to a's prefixes — one candidate per
/// column for '/' edges, at most depth(a) for '//' — leaves one contiguous
/// group of rows per candidate, found by binary search. The same holds for
/// the rows with an ID column inside a deleted subtree: their first covered
/// column lies in the root's subtree range, and the columns before it are
/// proper prefixes of the root. The groups are searched in sorted order
/// with one forward-only galloping cursor; a Δ with more than one
/// candidate per few rows is one pass over every row instead.
struct UpkeepOrder {
  /// One ID column of the sort order.
  struct Key {
    int node = -1;  // pattern node
    int col = -1;   // its ID column
    /// Pattern edges from the previous key (from the document node for
    /// key 0); meaningful for spine keys only.
    uint32_t gap = 0;
    /// Every one of those edges is '/': the key's depth is exactly the
    /// previous key's depth plus `gap` (else at least that).
    bool exact = false;
    /// Leading keys that are pattern ancestors-or-self of `node`.
    size_t chain = 0;
  };
  /// A node whose val/cont columns this structure stores (a cvn node).
  struct Payload {
    NodeLayout cols;
    size_t chain = 0;  // keys fixed by its ancestors (itself included)
  };

  std::vector<Key> keys;  // the sort order: ID columns in pattern pre-order
  /// Keys [0, spine) form one ancestor chain from the pattern root down;
  /// every later key has a non-ancestor key before it.
  size_t spine = 0;
  std::vector<Payload> payloads;
};

/// Builds the upkeep order of a structure whose per-node columns are
/// `layout` (nodes with an ID column are the keys); `cvn` are the nodes
/// whose val/cont columns refresh, where `layout` has them.
UpkeepOrder MakeUpkeepOrder(const TreePattern& pattern,
                            const std::vector<NodeLayout>& layout,
                            const std::vector<int>& cvn);

/// Read access to the rows of a view or of a snowcap, by position in their
/// sort order.
class SortedRows {
 public:
  explicit SortedRows(const std::vector<Tuple>& rows)
      : rows_(&rows), size_(rows.size()) {}
  explicit SortedRows(const ViewContent& content);

  size_t size() const { return size_; }
  const Tuple& operator[](size_t i) const;

 private:
  const std::vector<Tuple>* rows_ = nullptr;
  const ViewContent* content_ = nullptr;
  size_t size_ = 0;
};

/// Half-open interval [begin, end) of row positions.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

/// The rows upkeep must test for one Δ, as sorted, disjoint ranges: a
/// superset of the rows it changes, and the work the search did.
struct Reach {
  std::vector<RowRange> ranges;
  size_t rows_compared = 0;  // rows the binary searches compared
  bool whole = false;        // the search gave up: one range, every row
};

/// Rows in which some payload node may be an ancestor-or-self of one of
/// `anchors` (sorted in document order): PIMT, PDMT and snowcap payload
/// refresh. `labels` maps pattern nodes to label IDs (kInvalidLabel for a
/// label the document lacks).
Reach ReachPayloadAncestors(const UpkeepOrder& order,
                            const std::vector<LabelId>& labels,
                            const std::vector<DeweyId>& anchors,
                            const SortedRows& rows);

/// Rows in which some ID column may lie in the subtree of one of `roots`
/// (sorted, non-nested): the rows a deletion removes from a snowcap.
Reach ReachCoveredRows(const UpkeepOrder& order,
                       const std::vector<LabelId>& labels,
                       const std::vector<DeweyId>& roots,
                       const SortedRows& rows);

/// Rows whose first `chain` ID columns (a pattern ancestor chain of the
/// Δ-set root whose Δ rows are `delta_rows`, sorted in document order) may
/// be proper ancestors of one of those rows: the snowcap rows a union term
/// can join to that root (view/term_bounds.h).
Reach ReachDeltaAncestors(const UpkeepOrder& order,
                          const std::vector<LabelId>& labels,
                          const std::vector<DeltaRow>& delta_rows,
                          size_t chain, const SortedRows& rows);

}  // namespace xvm

#endif  // XVM_VIEW_UPKEEP_H_
