#ifndef XVM_ALGEBRA_ANALYZE_ANALYZE_H_
#define XVM_ALGEBRA_ANALYZE_ANALYZE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/analyze/plan.h"
#include "common/status.h"

namespace xvm {

/// Facts the analyzer proves about one operator's output, propagated
/// bottom-up from the leaves' declared contracts:
///
///  * `schema` — column names and kinds (ID / val / cont payloads).
///  * `sort_prefix` — column indices the relation is provably sorted by,
///    lexicographically, IDs in document order. The merge-based structural
///    join requires its input's primary sort column here.
///  * `determined_by` — per column, the index of an ID column that
///    functionally determines it (a node's val/cont are functions of its
///    ID), or -1. ID columns determine themselves. This is what lets the
///    analyzer prove that the stored ID columns key the view — the fact
///    PDMT's remove-by-ID-key relies on.
///  * `keys` — column sets the rows are provably unique on.
///  * `duplicate_free` — no two equal rows.
struct PlanFacts {
  Schema schema;
  std::vector<int> sort_prefix;
  std::vector<int> determined_by;
  std::vector<std::vector<int>> keys;
  bool duplicate_free = false;

  /// True iff the relation is provably sorted with `col` as primary key.
  bool SortedBy(int col) const {
    return !sort_prefix.empty() && sort_prefix[0] == col;
  }
  /// True iff rows in this order are necessarily sorted by `keys`: each
  /// key either consumes the next sort-prefix column, or is functionally
  /// determined by an earlier key (constant within ties).
  bool OrderCovers(const std::vector<int>& keys) const;
  /// True iff some proven key is a subset of `cols`.
  bool HasKeyWithin(const std::vector<int>& cols) const;

  /// "order: [a.ID b.ID]; keys: {a.ID,b.ID}; duplicate-free" — rendered
  /// with column names for planlint / diagnostics.
  std::string ToString() const;
};

/// Walks the operator tree bottom-up, inferring each operator's output
/// facts and checking its static preconditions: arity and column-range
/// validity, attribute-kind discipline (value comparisons only on payload
/// columns; root anchors, liveness filters and structural joins only on ID
/// columns), and the sortedness preconditions of the structural join. On the first
/// violation returns InvalidArgument with a diagnostic naming the offending
/// operator's path from the root plus a rendered plan excerpt.
///
/// When `per_node` is non-null it also receives the output facts of every
/// operator of the plan — what physical lowering (algebra/exec/physical.h)
/// chooses kernels from, so order is inferred in this one place.
using PlanFactsMap = std::unordered_map<const PlanNode*, PlanFacts>;
StatusOr<PlanFacts> AnalyzePlan(const PlanNode& root,
                                PlanFactsMap* per_node = nullptr);

}  // namespace xvm

#endif  // XVM_ALGEBRA_ANALYZE_ANALYZE_H_
