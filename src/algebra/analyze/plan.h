#ifndef XVM_ALGEBRA_ANALYZE_PLAN_H_
#define XVM_ALGEBRA_ANALYZE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "algebra/value.h"

namespace xvm {

/// The plan IR: the operator trees pattern compilation emits
/// (algebra/analyze/build_plan.h) for every view, snowcap and Δ-term
/// evaluation. It is data, not code: the static analyzer
/// (algebra/analyze/analyze.h) infers every operator's output schema, proves
/// the sortedness preconditions of the merge-based structural joins and
/// rejects malformed plans at view-install time; lowering
/// (algebra/exec/physical.h) turns an analyzed plan into the kernels the
/// executor runs, and the reference evaluator (algebra/analyze/symexec.h)
/// runs it naively as the oracle. The IR carries exactly the operators the
/// compiler emits.

enum class PlanOp : uint8_t {
  kLeaf,
  kSelect,      // σ over a conjunction of PlanPredicates
  kProject,     // π, columns kept in the given order
  kSortBy,      // stable lexicographic sort by key columns
  kDupElim,     // δ with derivation counts; output sorted by full tuple
  kStructJoin,  // stack-based structural join (child / descendant axis)
};

/// What feeds a leaf: a canonical relation R_l, a Δ table of the current
/// statement, a materialized snowcap, or an inline literal (tests).
enum class PlanLeafKind : uint8_t {
  kStoreScan,
  kDeltaScan,
  kSnowcap,
  kLiteral,
};

/// One selection atom: the value comparison with a constant of the paper's
/// algebra A (§2.2), the '/'-root anchor of a pattern, and the
/// maintenance-only σ_alive filter — the atoms pattern compilation emits.
/// Structural relationships between columns are structural joins, not
/// predicates. It is the only predicate form: the executor and symexec
/// evaluate it, and the analyzer checks its column ranges and attribute
/// kinds.
struct PlanPredicate {
  enum class Kind : uint8_t {
    kEqConst,     // t[a] = "constant"   (string column)
    kRootAnchor,  // t[a] is the document root element (ID column)
    kAlive,       // σ_alive: no listed ID column lies in the deleted region
  };
  Kind kind = Kind::kEqConst;
  int a = -1;
  std::string constant;   // kEqConst
  std::vector<int> cols;  // kAlive

  std::string ToString() const;
};

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  PlanOp op = PlanOp::kLeaf;
  std::vector<PlanNodePtr> inputs;

  // kLeaf: declared schema plus the leaf's order/dependency contract. The
  // contract is what the producer guarantees (canonical relations and Δ
  // tables are stored in document order; val/cont payloads are functions of
  // the row's node ID); the analyzer takes it on faith here and proves
  // everything above it.
  PlanLeafKind leaf_kind = PlanLeafKind::kLiteral;
  std::string leaf_name;  // "R:person", "delta:person", "snowcap:{a,b}", ...
  Schema leaf_schema;
  std::vector<int> leaf_sort_prefix;    // lexicographic order declared
  std::vector<int> leaf_determined_by;  // per column: determining ID column
                                        // index, or -1 (unknown)
  // Pattern-node index behind a kStoreScan / kDeltaScan leaf, or -1 when
  // the leaf is not pattern-derived (snowcaps, literals). The physical
  // executor resolves such leaves through a LeafSource(node_idx) callback;
  // name-based resolvers (delta_check) ignore it.
  int leaf_node = -1;

  // kSelect
  std::vector<PlanPredicate> predicates;
  // kProject (columns kept) / kSortBy (sort keys)
  std::vector<int> cols;
  // kStructJoin: inputs = {outer, inner}
  int outer_col = -1;
  int inner_col = -1;
  Axis axis = Axis::kDescendant;

  /// Operator tag for diagnostics ("sjoin", "project", ...).
  std::string OpName() const;
  /// One-line description with parameters ("project[0,2,5]").
  std::string Describe() const;
};

/// Leaf with a fully explicit contract.
PlanNodePtr MakeLeaf(PlanLeafKind kind, std::string name, Schema schema,
                     std::vector<int> sort_prefix,
                     std::vector<int> determined_by);
/// Leaf following the leaf-relation contract of pattern compilation: column
/// 0 is the node's ID, rows are sorted by it and unique on it, and every
/// other column is a payload of that node (determined by the ID).
PlanNodePtr MakeContractLeaf(PlanLeafKind kind, std::string name,
                             Schema schema);
PlanNodePtr MakeSelect(PlanNodePtr in, std::vector<PlanPredicate> preds);
PlanNodePtr MakeProject(PlanNodePtr in, std::vector<int> cols);
PlanNodePtr MakeSortBy(PlanNodePtr in, std::vector<int> keys);
PlanNodePtr MakeDupElim(PlanNodePtr in);
PlanNodePtr MakeStructJoin(PlanNodePtr outer, int outer_col, PlanNodePtr inner,
                           int inner_col, Axis axis);

/// Renders the plan as an indented operator tree, root first. `max_depth`
/// >= 0 truncates deeper subtrees with "..." (diagnostics quote excerpts).
std::string PlanToString(const PlanNode& root, int max_depth = -1);

}  // namespace xvm

#endif  // XVM_ALGEBRA_ANALYZE_PLAN_H_
