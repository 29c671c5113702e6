#ifndef XVM_ALGEBRA_OPERATORS_H_
#define XVM_ALGEBRA_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/value.h"
#include "common/status.h"
#include "store/canonical.h"

namespace xvm {

/// Bulk physical operators over materialized relations. Pipeline-breaking
/// operators (sort, joins, duplicate elimination) take and return whole
/// relations, which matches how the maintenance algorithms consume them
/// (delta tables and snowcaps are materialized sets by definition).

/// Which stored attributes a canonical-relation scan materializes. ID is
/// always present; val/cont are pulled from the document on demand.
struct ScanAttrs {
  bool val = false;
  bool cont = false;
};

/// Scans the canonical relation of `label`, producing columns
/// "<name>.ID" [, "<name>.val"][, "<name>.cont"], in document order.
Relation ScanRelation(const StoreIndex& store, LabelId label,
                      const std::string& col_prefix, const ScanAttrs& attrs);

/// π_cols: keeps columns at `cols` (in that order).
Relation Project(const Relation& in, const std::vector<int>& cols);

/// Sorts rows by the given key columns (lexicographic, document order for
/// ID columns). Stable.
Relation SortBy(Relation in, const std::vector<int>& key_cols);

/// A tuple with its derivation count (paper §2.2 "Derivation count").
struct CountedTuple {
  Tuple tuple;
  int64_t count = 1;
};

/// δ with counts: groups identical rows; each group's count is the number of
/// input rows that collapse to it (number of derivations). Output is sorted.
std::vector<CountedTuple> DupElimWithCounts(const Relation& in);

/// Upper bound on the rows one Cartesian product may emit. Products only
/// appear in adversarial / test plans (pattern compilation never emits one),
/// so a blown-up product is a malformed plan, not a workload to serve —
/// same philosophy as the persist layer's bounded reads.
inline constexpr uint64_t kMaxProductRows = uint64_t{1} << 24;

/// Cartesian product (n-ary ×, pairwise). Fails with OutOfRange instead of
/// allocating when the result would exceed kMaxProductRows.
StatusOr<Relation> CartesianProduct(const Relation& left,
                                    const Relation& right);

/// Hash equi-join on left.cols == right.cols (pairwise).
Relation HashJoinEq(const Relation& left, const std::vector<int>& left_cols,
                    const Relation& right, const std::vector<int>& right_cols);

/// Structural-join axis.
enum class Axis : uint8_t {
  kChild,       // left ≺ right (parent/child)
  kDescendant,  // left ≺≺ right (ancestor/descendant, strict)
};

/// Stack-based structural join (Al-Khalifa et al. 2002, Stack-Tree-Desc).
/// Joins `outer` (potential ancestors, must be sorted by ID column
/// `outer_col`) with `inner` (potential descendants, sorted by `inner_col`).
/// Produces outer ++ inner columns; output is sorted by the inner ID column.
/// Complexity O(|outer| + |inner| + |output|).
Relation StructuralJoin(const Relation& outer, int outer_col,
                        const Relation& inner, int inner_col, Axis axis);

/// Checks that `rel` is sorted by ID column `col` (debug validation).
bool IsSortedByIdCol(const Relation& rel, int col);

/// Concatenates rows of two union-compatible relations. Compatibility is
/// checked per column by kind, not by name: the Δ terms of one union rename
/// columns freely ("R:person.ID" vs "delta:person.ID"), but concatenating
/// an ID column onto a payload column is always a plan bug and aborts.
Relation UnionAll(Relation a, const Relation& b);

}  // namespace xvm

#endif  // XVM_ALGEBRA_OPERATORS_H_
