#ifndef XVM_ALGEBRA_EXEC_PHYSICAL_H_
#define XVM_ALGEBRA_EXEC_PHYSICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/analyze/plan.h"
#include "algebra/value.h"
#include "common/status.h"

namespace xvm {

/// Physical lowering of the plan IR (algebra/analyze/plan.h): the pass that
/// turns an analyzed logical plan into the kernel sequence the executor
/// (algebra/exec/exec.h) runs. Kernel selection reads the per-node facts of
/// the install-time analyzer (AnalyzePlan in algebra/analyze/analyze.h) —
/// lowering infers no order of its own — and decides, per node:
///
///  * SortBy whose input order covers the keys becomes kSortElided, a
///    pass-through that under XVM_CHECK_INVARIANTS audits the order it
///    relies on (the compiler's per-leaf sorts on the ID column all lower
///    to this).
///  * Any other SortBy becomes kSortAdaptive: one O(n) sortedness check,
///    then either a pass-through or a real stable sort (e.g. re-sorting a
///    snowcap by a frontier column other than its first).
///  * DupElim over input sorted such that group order equals full-tuple
///    order becomes kDupElimSorted (adjacent grouping) instead of the
///    EncodeTuple hash map.
///  * Select/Project chains directly over a pattern leaf fuse into the scan
///    (one pass, no intermediate relations).
///
/// Leaf order contracts hold at runtime: store and Δ leaves are scanned in
/// document order, and a materialized snowcap is kept in its declared order
/// (BindingOrder in pattern/compile.h) by maintenance, checked when a view
/// is loaded and by the content auditor.

/// Physical kernel of one lowered node.
enum class PhysKernel : uint8_t {
  kScan,          // pattern/literal leaf + fused predicates/projection
  kSnowcapScan,   // borrow a materialized snowcap relation in place
  kSelect,        // standalone σ (above non-leaf input)
  kProject,       // standalone π
  kSortElided,    // statically proven: pass-through (+ invariant audit)
  kSortAdaptive,  // runtime check-then-sort
  kDupElimSorted, // adjacent grouping on proven-sorted input
  kDupElimHash,   // EncodeTuple hash grouping + final sort
  kStructJoin,    // stack-based structural join; keep last (kNumPhysKernels)
};

/// Number of kernels: sizes the ExecStats per-kernel array and bounds the
/// PhysKernelName lookups of the metrics flush.
inline constexpr size_t kNumPhysKernels =
    static_cast<size_t>(PhysKernel::kStructJoin) + 1;

/// Stable lowercase kernel name ("scan", "sort-elided", ...), used for the
/// __exec__ metrics counter names and the planlint --physical dump.
const char* PhysKernelName(PhysKernel k);

/// One lowered operator. Parameters are copied out of the logical plan, so
/// a PhysicalPlan is self-contained (the logical plan may be discarded).
struct PhysNode {
  PhysKernel kernel = PhysKernel::kScan;
  std::vector<int> inputs;  // indices into PhysicalPlan::nodes (post-order)
  Schema schema;            // output schema

  // kScan / kSnowcapScan.
  PlanLeafKind leaf_kind = PlanLeafKind::kLiteral;
  std::string leaf_name;
  Schema leaf_schema;
  std::vector<int> leaf_sort_prefix;
  int leaf_node = -1;  // pattern-node index, -1 when not pattern-derived

  // kScan fused filters + kSelect predicates (evaluated in plan order,
  // against the *leaf* schema for scans).
  std::vector<PlanPredicate> predicates;
  // kScan fused projection (empty = identity) / kProject columns /
  // kSortElided + kSortAdaptive keys.
  std::vector<int> cols;

  // kStructJoin.
  int outer_col = -1;
  int inner_col = -1;
  Axis axis = Axis::kDescendant;

  /// Why this kernel was chosen (elision proof, unproven order, ...).
  /// Shown by planlint --physical; empty when the choice needs no comment.
  std::string note;

  /// One-line description with parameters, mirroring PlanNode::Describe.
  std::string Describe() const;
};

/// A lowered plan: kernels in post-order (every node's inputs precede it;
/// the root is the last node).
struct PhysicalPlan {
  std::vector<PhysNode> nodes;
  int sorts_elided_static = 0;  // SortBy nodes lowered to kSortElided
  int scans_fused = 0;          // scans that absorbed a select/project

  int root() const { return static_cast<int>(nodes.size()) - 1; }
  const Schema& output_schema() const { return nodes.back().schema; }

  /// Indented kernel tree, root first — the byte-exact format the planlint
  /// --physical goldens pin.
  std::string ToString() const;
};

/// Validates `root` with AnalyzePlan, then lowers it. Fails (propagating
/// the analyzer's diagnostic) on any plan the install-time gate would
/// reject; compiler-emitted plans of installed views never fail.
StatusOr<PhysicalPlan> LowerPlan(const PlanNode& root);

}  // namespace xvm

#endif  // XVM_ALGEBRA_EXEC_PHYSICAL_H_
