#ifndef XVM_ALGEBRA_EXEC_EXEC_H_
#define XVM_ALGEBRA_EXEC_EXEC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "algebra/exec/physical.h"
#include "algebra/operators.h"
#include "common/metrics.h"
#include "common/status.h"
#include "ids/dewey.h"

namespace xvm {

/// The physical plan executor: runs a lowered plan (algebra/exec/physical.h)
/// over the store, kernel by kernel. This is the single execution engine of
/// the system — pattern compilation (pattern/compile.cc) and union-term
/// maintenance (view/maintain.cc) are thin wrappers that build a logical
/// plan, lower it, and call ExecutePhysicalPlan. The deliberately naive
/// reference evaluator (algebra/analyze/symexec.h) stays independent as the
/// cross-validation oracle; results must be bit-identical.
///
/// Under XVM_CHECK_INVARIANTS the kernels audit every fact the lowering
/// relied on (elided sort order, leaf contracts, structural-join input
/// order) and abort on violation; release builds trust the proofs.

/// Pseudo-view name the executor's metrics are reported under.
inline constexpr char kExecMetricsView[] = "__exec__";

/// Per-kernel row and time accounting.
struct ExecKernelStats {
  int64_t invocations = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  /// Wall time inside the kernel, leaf resolution included; the kernels of
  /// one plan sum to at most its exec_ms.
  double ms = 0.0;
};

/// Accumulated executor statistics. Plain data, single-writer: callers keep
/// one per maintenance context and flush deltas to the MetricsRegistry.
struct ExecStats {
  std::array<ExecKernelStats, kNumPhysKernels> kernels{};
  int64_t plans_executed = 0;
  /// SortBy nodes the lowering proved redundant (kSortElided), counted per
  /// execution: sorts that cost no comparison at run time.
  int64_t sorts_elided_static = 0;
  /// Adaptive sorts whose O(n) check found the input already ordered.
  int64_t sorts_elided_dynamic = 0;
  /// Adaptive sorts that had to fall back to a real sort.
  int64_t sorts_performed = 0;
  /// Scans executed with a select/project fused in, counted per execution.
  int64_t scans_fused = 0;
  double exec_ms = 0.0;

  void MergeFrom(const ExecStats& other);
};

/// Flushes `delta` (the stats accumulated since the last flush) into
/// `metrics` under the "__exec__" pseudo-view: one "execute_plan" phase
/// sample covering delta.exec_ms, per kernel name a rows_in/rows_out/
/// invocations counter triple and a "<kernel>.ms" phase sample, and the
/// elision/fusion counters (see DESIGN.md
/// §"Physical execution"). No-op when delta.plans_executed == 0.
void FlushExecStats(const ExecStats& delta, MetricsRegistry* metrics);

/// Environment a physical plan executes against. Mirrors symexec's
/// ExecContext, split per leaf kind so the hot paths dispatch without
/// re-inspecting leaf names. std::function keeps this header free of
/// pattern/ and view/ types (layering: algebra must not depend upward).
struct PhysExecContext {
  /// Resolves the canonical relation of pattern node `node_idx`
  /// (kStoreScan leaves; pattern/compile.h's LeafSource matches this
  /// signature exactly).
  std::function<Relation(int node_idx)> store_leaf;
  /// Borrows the Δ table of pattern node `node_idx` (kDeltaScan leaves),
  /// read in place like a snowcap: it must stay alive and unmodified for the
  /// duration of the ExecutePhysicalPlan call.
  std::function<const Relation*(int node_idx)> delta_leaf;
  /// Borrows the materialized snowcap relation of a kSnowcapScan leaf, or
  /// the sorted subset of its rows the caller's Δ bound reaches. The
  /// relation is read in place — never copied — and must stay alive and
  /// unmodified for the duration of the ExecutePhysicalPlan call.
  std::function<const Relation*(const PhysNode& leaf)> snowcap_leaf;
  /// Fallback resolver for leaves the specific hooks above do not cover
  /// (kLiteral, or a missing hook). Optional; execution fails if a leaf
  /// reaches a null fallback.
  std::function<StatusOr<Relation>(const PhysNode& leaf)> resolve_leaf;
  /// σ_alive membership test: true iff `id` lies in the deleted region.
  /// Null means nothing was deleted (every kAlive predicate passes).
  std::function<bool(const DeweyId& id)> deleted;
  /// Stats sink; optional.
  ExecStats* stats = nullptr;
};

/// Executes a lowered plan and returns the root relation. Errors only
/// surface from leaf resolution; everything structural about the plan was
/// proven at lowering time (kernel-level violations abort via XVM_CHECK /
/// the invariant auditor rather than returning).
StatusOr<Relation> ExecutePhysicalPlan(const PhysicalPlan& plan,
                                       const PhysExecContext& ctx);

/// Executes a plan whose root kernel is a duplicate elimination and returns
/// the grouped tuples with derivation counts — the form EvalViewWithCounts
/// and the maintenance propagation consume.
StatusOr<std::vector<CountedTuple>> ExecutePhysicalPlanWithCounts(
    const PhysicalPlan& plan, const PhysExecContext& ctx);

}  // namespace xvm

#endif  // XVM_ALGEBRA_EXEC_EXEC_H_
