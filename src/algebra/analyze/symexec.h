#ifndef XVM_ALGEBRA_ANALYZE_SYMEXEC_H_
#define XVM_ALGEBRA_ANALYZE_SYMEXEC_H_

#include <functional>

#include "algebra/analyze/plan.h"
#include "algebra/operators.h"
#include "common/status.h"

namespace xvm {

/// A reference evaluator for the plan IR (algebra/analyze/plan.h): executes
/// an operator tree directly, with deliberately naive operator
/// implementations whose semantics are obvious by inspection — nested-loop
/// joins instead of the stack-based merge, predicate evaluation straight off
/// the PlanPredicate atoms. The production executor (algebra/exec/exec.h)
/// runs the lowered plan on the optimized kernels; this second, independent
/// implementation is what the Δ-equivalence prover (delta_check.h) trusts,
/// and the cross-validation tests pin the two implementations to each other
/// on every enumerated instance.
///
/// Output-order contract: each operator reproduces the row order of its
/// optimized twin in algebra/operators.cc (proved in symexec.cc comments),
/// so a plan's result is bit-identical to the executor's — not merely equal
/// as a multiset.

/// Environment a plan executes against. The executor itself is pure; leaves
/// and the σ_alive region are the only contact points with the outside.
struct ExecContext {
  /// Resolves a leaf node (kStoreScan / kDeltaScan / kSnowcap / kLiteral) to
  /// its relation. Required. The executor passes the PlanNode so the
  /// resolver can dispatch on leaf_kind / leaf_name / leaf_schema.
  std::function<StatusOr<Relation>(const PlanNode& leaf)> resolve_leaf;

  /// σ_alive membership test: true iff `id` lies in the deleted region.
  /// Null means nothing was deleted (every kAlive predicate passes).
  std::function<bool(const DeweyId& id)> deleted;

  /// When set, every resolved leaf is checked against its declared contract:
  /// schema equality (names and kinds) and sortedness by leaf_sort_prefix.
  /// A violation fails the execution — the leaf contract is exactly what the
  /// static analyzer takes on faith, so the reference evaluator refuses to
  /// compute on inputs that break it.
  bool verify_leaf_contracts = true;
};

/// Executes `root` and returns its output relation. Fails with
/// InvalidArgument (operator path + plan excerpt, in the analyzer's
/// diagnostic format) on malformed plans or leaf-contract violations.
StatusOr<Relation> ExecutePlan(const PlanNode& root, const ExecContext& ctx);

/// Executes a plan whose root is kDupElim and returns the duplicate
/// eliminated tuples with derivation counts — the form EvalViewWithCounts
/// and the maintenance propagation consume.
StatusOr<std::vector<CountedTuple>> ExecutePlanWithCounts(
    const PlanNode& root, const ExecContext& ctx);

}  // namespace xvm

#endif  // XVM_ALGEBRA_ANALYZE_SYMEXEC_H_
