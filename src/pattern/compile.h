#ifndef XVM_PATTERN_COMPILE_H_
#define XVM_PATTERN_COMPILE_H_

#include <functional>
#include <vector>

#include "algebra/operators.h"
#include "pattern/tree_pattern.h"
#include "store/canonical.h"

namespace xvm {

struct PhysicalPlan;  // algebra/exec/physical.h

/// Column positions of one pattern node inside a binding relation (-1 when
/// the column or the node is absent).
struct NodeLayout {
  int id_col = -1;
  int val_col = -1;
  int cont_col = -1;
};

/// Schema and per-node column positions of the *full binding* relation of a
/// pattern (or of a sub-pattern selected by `subset`): for every included
/// node its ID, plus val/cont where annotated, in pre-order.
struct BindingLayout {
  Schema schema;
  std::vector<NodeLayout> per_node;  // indexed by pattern node index
};

/// Computes the binding layout. `subset` (if non-null, sized pattern.size())
/// selects an upward-closed set of nodes (a snowcap); null means all nodes.
BindingLayout ComputeBindingLayout(const TreePattern& pattern,
                                   const std::vector<bool>* subset);

/// ID columns of `layout` in pattern-node order. Binding relations are
/// sorted lexicographically by them (the final sort of EvalTreePattern), so
/// this is also the declared order of a materialized snowcap: its plan
/// leaf's sort contract, the order maintenance keeps it in, and the order
/// view loading and the content auditor check.
std::vector<int> BindingOrder(const BindingLayout& layout);

/// Schema of the leaf relation of pattern node `n`: "<name>.ID"
/// [, "<name>.val"][, "<name>.cont"], where val is present iff the node
/// stores val *or* has a value predicate, and cont iff the node stores cont.
Schema LeafSchema(const PatternNode& n);

/// Supplies the leaf relation of pattern node `i`. Contract: the returned
/// relation has the columns of LeafSchema and its rows are sorted by, and
/// unique on, the ID column. The default source scans the canonical
/// relation R_label; maintenance substitutes delta tables for selected
/// nodes (the heart of the paper's approach), and reads each remaining
/// store leaf of a union term as the sorted subset of R_label the
/// statement's Δ can reach (view/term_bounds.h), or whole past the probe
/// budget — either way a sorted subset of the same relation, so the
/// contract holds.
using LeafSource = std::function<Relation(int node_idx)>;

/// The store leaf of pattern node `n`: the rows of R_label at `positions`
/// (increasing), or every row when null; an empty relation with the leaf
/// schema when the document lacks the label.
Relation ScanLeaf(const StoreIndex& store, const PatternNode& n,
                  const std::vector<size_t>* positions = nullptr);

/// Leaf source reading whole relations from the canonical-relation store.
LeafSource StoreLeafSource(const StoreIndex* store, const TreePattern* pattern);

/// Evaluates the (sub-)pattern as a full binding relation: the algebraic
/// semantics of §2.2 before projection/duplicate elimination. A thin wrapper
/// over the physical executor: builds the pattern's plan IR
/// (algebra/analyze/build_plan.h), lowers it with fact-driven kernel
/// selection (algebra/exec/physical.h) and runs it (algebra/exec/exec.h) —
/// structural relationships via stack-based structural joins, value
/// predicates fused into the leaf scans, a '/'-anchored root restricted to
/// the document root element. Output sorted by all ID columns.
Relation EvalTreePattern(const TreePattern& pattern,
                         const LeafSource& leaf_source,
                         const std::vector<bool>* subset = nullptr);

/// Runs a lowered binding plan (BuildPatternPlan, lowered) with every leaf
/// read through `leaf_source`: the execution half of EvalTreePattern, for
/// callers that lowered the plan once up front (view/view_plans.h).
Relation RunPatternPlan(const PhysicalPlan& plan,
                        const LeafSource& leaf_source);

/// Column indices (into the full binding schema) of the attributes the view
/// stores, in pre-order — the projection list of the e_v expression.
std::vector<int> StoredColumnIndices(const TreePattern& pattern,
                                     const BindingLayout& layout);

/// Full view semantics with derivation counts: eval, project stored
/// attributes, duplicate-eliminate counting derivations, sort (paper §2.2).
std::vector<CountedTuple> EvalViewWithCounts(const TreePattern& pattern,
                                             const LeafSource& leaf_source);

/// The execution half of EvalViewWithCounts: runs a lowered view plan
/// (BuildViewPlan, lowered) with every leaf read through `leaf_source`.
std::vector<CountedTuple> RunViewPlan(const PhysicalPlan& plan,
                                      const LeafSource& leaf_source);

/// Schema of the projected (stored) view tuples.
Schema ViewTupleSchema(const TreePattern& pattern);

}  // namespace xvm

#endif  // XVM_PATTERN_COMPILE_H_
