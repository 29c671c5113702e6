#ifndef XVM_ALGEBRA_ANALYZE_BUILD_PLAN_H_
#define XVM_ALGEBRA_ANALYZE_BUILD_PLAN_H_

#include <vector>

#include "algebra/analyze/plan.h"
#include "pattern/compile.h"
#include "pattern/tree_pattern.h"

namespace xvm {

/// Builders that emit, as explicit plan IR, every operator pipeline the
/// system executes: EvalTreePattern / EvalViewWithCounts
/// (pattern/compile.cc) and every plan of a view's term-plan table
/// (view/view_plans.h), which maintenance runs. These plans are the single
/// source of truth for execution: each is lowered with
/// algebra/exec/physical.h and run through algebra/exec/exec.h, so a
/// builder change *is* an execution change. The independent reference
/// evaluator (algebra/analyze/symexec.h) and the Δ-equivalence prover
/// cross-validate the executor on every compiler-emitted plan
/// (tests/analyze_test.cc and the fuzz suites).

/// Which table feeds each pattern-node leaf.
enum class PlanLeafSourceKind : uint8_t {
  kStore,  // canonical relation R_label
  kDelta,  // Δ table of the current statement
};

/// Mirrors EvalTreePattern: full binding plan, finally sorted by every ID
/// column of the canonical (pre-order) layout.
PlanNodePtr BuildPatternPlan(const TreePattern& pattern,
                             const std::vector<bool>* subset,
                             PlanLeafSourceKind src);

/// Mirrors EvalViewWithCounts: project the stored attributes out of the
/// full binding plan, then duplicate-eliminate with derivation counts.
PlanNodePtr BuildViewPlan(const TreePattern& pattern);

/// The union term with Δ-set `delta_set` inside `within`, as the term-plan
/// table (view/view_plans.h) builds it once per (Δ-set, σ_alive) and
/// MaintainedView::EvaluateTerm runs it: evaluate the R-part (a
/// materialized snowcap leaf when `r_part_materialized`, else recomputed
/// from store leaves), join the Δ sub-patterns hanging off the snowcap
/// frontier, optionally filter R-side bindings against the deleted region
/// (`with_region`), and project back to the canonical pre-order layout of
/// `within`.
PlanNodePtr BuildTermPlan(const TreePattern& pattern,
                          const std::vector<bool>& within,
                          const std::vector<bool>& delta_set,
                          bool r_part_materialized, bool with_region);

}  // namespace xvm

#endif  // XVM_ALGEBRA_ANALYZE_BUILD_PLAN_H_
