#ifndef XVM_ALGEBRA_OPERATORS_H_
#define XVM_ALGEBRA_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/value.h"
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
/// "<name>.ID" [, "<name>.val"][, "<name>.cont"], in document order. With
/// `positions` (increasing positions in the relation) only those rows are
/// read, and only their val/cont are fetched; null reads every row.
Relation ScanRelation(const StoreIndex& store, LabelId label,
                      const std::string& col_prefix, const ScanAttrs& attrs,
                      const std::vector<size_t>* positions = nullptr);

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

}  // namespace xvm

#endif  // XVM_ALGEBRA_OPERATORS_H_
