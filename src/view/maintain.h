#ifndef XVM_VIEW_MAINTAIN_H_
#define XVM_VIEW_MAINTAIN_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/exec/exec.h"
#include "common/status.h"
#include "common/timing.h"
#include "store/canonical.h"
#include "update/delta.h"
#include "update/update.h"
#include "view/lattice.h"
#include "view/outcome.h"
#include "view/snapshot.h"
#include "view/terms.h"
#include "view/view_def.h"
#include "view/view_plans.h"
#include "view/view_store.h"

namespace xvm {

/// A set of non-nested deleted subtree roots, sorted in document order.
/// Covers(id) decides in O(log n) whether `id` is one of the roots or lies
/// beneath one — the σ_alive check implementing R \ Δ− (DESIGN.md §2).
class DeletedRegion {
 public:
  DeletedRegion() = default;
  /// `roots` must be sorted and non-nested (as produced by ComputeDeltaMinus
  /// anchor_ids).
  explicit DeletedRegion(std::vector<DeweyId> roots);

  bool empty() const { return roots_.empty(); }
  bool Covers(const DeweyId& id) const;
  const std::vector<DeweyId>& roots() const { return roots_; }

 private:
  std::vector<DeweyId> roots_;
};

/// The Δ leaves of one propagation pass: for pattern node i, the Δ rows of
/// its label as a leaf relation (ID, then val and/or cont as the node
/// stores them). The pass declares every term it will evaluate up front
/// (Expect); a leaf is built when the first term reads it, read in place by
/// the later ones, and freed when the last term that reads it is Done.
class DeltaLeaves {
 public:
  /// `labels` is the view's PatternLabels(); all three must outlive this.
  DeltaLeaves(const TreePattern& pattern, const std::vector<LabelId>& labels,
              const DeltaTables& delta);

  const DeltaTables& tables() const { return delta_; }
  /// One more term of the pass reads the leaves of `delta_set`.
  void Expect(const NodeSet& delta_set);
  const Relation* Leaf(int node);
  /// A term that reads the leaves of `delta_set` is evaluated: frees those
  /// no later term reads.
  void Done(const NodeSet& delta_set);

 private:
  const TreePattern& pattern_;
  const std::vector<LabelId>& labels_;
  const DeltaTables& delta_;
  std::vector<std::unique_ptr<Relation>> built_;  // per pattern node
  std::vector<int> readers_;  // expected terms not yet Done, per node
};

/// Tuning knobs, mainly for ablation studies. Disabling a pruning
/// proposition never affects correctness — only how many provably-empty
/// terms get evaluated.
struct MaintainOptions {
  bool prune_empty_delta = true;   // Prop. 3.6
  bool prune_anchor_paths = true;  // Props. 3.8 / 4.7
};

/// A materialized view kept incrementally consistent with its document —
/// the paper's contribution, Algorithms 1–6. One instance owns the view
/// content and its auxiliary lattice structures; the canonical-relation
/// store is shared with the document.
///
/// Views are registered with and updated through a ViewManager
/// (view/manager.h), which runs the statement pipeline:
///   ViewManager mgr(&doc, &store);
///   mgr.AddView(def, LatticeStrategy::kSnowcaps);  // CheckPlans+Initialize
///   mgr.ApplyAndPropagateAll(stmt);  // document changes, views follow
/// This class provides the per-view halves that pipeline calls.
class MaintainedView {
 public:
  MaintainedView(ViewDefinition def, StoreIndex* store,
                 LatticeStrategy strategy);

  void set_options(const MaintainOptions& options) { options_ = options; }
  const MaintainOptions& options() const { return options_; }

  /// Evaluates the view (with derivation counts) and materializes the
  /// lattice snowcaps. Call once, after the store is built, on a view whose
  /// CheckPlans() passed.
  void Initialize();

  /// The install gate: the first analysis or lowering failure of the
  /// view's term-plan table (view/view_plans.h), built when this view was
  /// constructed, as InvalidArgument with an operator-path diagnostic; then
  /// the opt-in Δ prover (XVM_PROVE_DELTA). ViewManager::AddView calls this
  /// before Initialize().
  Status CheckPlans() const;

  const ViewDefinition& def() const { return def_; }
  const MaterializedView& view() const { return view_; }
  const ViewLattice& lattice() const { return lattice_; }
  /// Every plan this view's maintenance runs, lowered at construction.
  const ViewPlans& plans() const { return plans_; }

  /// Mutable access for the persistence layer (view/persist.h), which
  /// restores saved content in place of Initialize(). Not for general use.
  MaterializedView& mutable_view() { return view_; }
  ViewLattice& mutable_lattice() { return lattice_; }

  /// Propagation halves, called by a coordinator that applies the document
  /// update itself (the document must already reflect the update;
  /// the store must NOT yet — its canonical relations are the old R_l the
  /// union terms read). `region` restricts R-side bindings to live nodes
  /// (required whenever the same statement also deleted nodes). They only
  /// index the term-plan table, so CheckPlans() must have passed.
  void PropagateInsert(const DeltaTables& delta_plus,
                       const DeletedRegion* region, PhaseTimer* timer,
                       MaintenanceStats* stats);
  void PropagateDelete(const DeltaTables& delta_minus, PhaseTimer* timer,
                       MaintenanceStats* stats);

  /// Rebuilds view + snowcaps from the (already updated) store by running
  /// the table's base plans. Used at Initialize() and by the
  /// predicate-guard fallback.
  void RecomputeFromStore();

  /// Freezes the current view content into an immutable snapshot stamped at
  /// `generation` (view/snapshot.h). When `prev` was built from the same
  /// content version, its content is shared whole (an O(1) re-stamp).
  /// Otherwise the snapshot copies the content's chunk and index-shard
  /// pointer vectors, O(|view| / kChunkCapacity + kIndexShards), and shares
  /// every chunk and shard with the previous generation except the ones
  /// this statement's Δ copied on write (view/view_store.h).
  ViewSnapshotPtr BuildSnapshot(uint64_t generation,
                                const ViewSnapshot* prev) const;

  /// Labels whose Δ− rows must capture string values for this view.
  std::set<LabelId> DeltaMinusValLabelIds() const;

  /// Payloads the Δ+ extraction must materialize for this view (val for
  /// stored-val / predicate labels, cont for stored-cont labels).
  DeltaNeeds DeltaPlusNeeds() const;

  /// Returns and resets the executor statistics accumulated by term
  /// evaluation since the last call. ViewManager aggregates these across
  /// views and flushes them under the "__exec__" pseudo-view.
  ExecStats TakeExecStats() {
    ExecStats out = exec_stats_;
    exec_stats_ = ExecStats{};
    return out;
  }

  /// Receives a term maintenance evaluated and the Δ it ran over, its
  /// output, and its output with every leaf read whole.
  using TermCheck = std::function<void(
      const TermEntry& term, const DeltaTables& delta,
      const Relation& bounded, const Relation& whole)>;
  /// Test-only: when set, every term maintenance evaluates runs a second
  /// time with its Δ bounds dropped, and `check` compares the two.
  void SetTermCheckForTesting(TermCheck check) {
    term_check_ = std::move(check);
  }

 private:
  /// Indices of the Δ-sets of `space` whose terms survive pruning.
  std::vector<size_t> SurvivingTerms(const TermSpace& space,
                                     const DeltaTables& delta) const;
  /// Runs one table entry: Δ leaves read `delta`; store leaves the rows of
  /// the (old) canonical relations and a snowcap R-part the rows of its
  /// materialized relation that `delta` can reach (view/term_bounds.h).
  /// `labels` is PatternLabels(); the leaf counters go to `stats`.
  Relation EvaluateTerm(const TermEntry& term, DeltaLeaves* delta,
                        const DeletedRegion* region,
                        const std::vector<LabelId>& labels,
                        MaintenanceStats* stats);
  /// EvaluateTerm's body; with `bounded` false every leaf is read whole and
  /// nothing is counted.
  Relation RunTerm(const TermEntry& term, DeltaLeaves* delta,
                   const DeletedRegion* region,
                   const std::vector<LabelId>& labels, bool bounded,
                   MaintenanceStats* stats);
  /// Upkeep (snowcap terms and payloads, PIMT, PDMT) visits only the rows
  /// the Δ can reach (view/upkeep.h); `labels` is PatternLabels().
  /// `surviving[idx]` is SurvivingTerms of snowcap idx, Expected in `delta`.
  void MaintainSnowcapsInsert(DeltaLeaves* delta,
                              const std::vector<std::vector<size_t>>& surviving,
                              const DeletedRegion* region,
                              const std::vector<LabelId>& labels,
                              MaintenanceStats* stats);
  void MaintainSnowcapsDelete(const DeletedRegion& region,
                              const std::vector<LabelId>& labels,
                              MaintenanceStats* stats);
  void RunPimt(const DeltaTables& delta, const std::vector<LabelId>& labels,
               MaintenanceStats* stats);
  void RunPdmt(const DeletedRegion& region, const std::vector<LabelId>& labels,
               MaintenanceStats* stats);
  /// The label ID of every pattern node (kInvalidLabel when the document
  /// has none), resolved per statement: labels are interned as documents
  /// change.
  std::vector<LabelId> PatternLabels() const;
  bool PredicateGuardTriggered(const DeltaTables& delta) const;

  ViewDefinition def_;
  StoreIndex* store_;
  ViewLattice lattice_;
  // Precomputed at construction ("performed when v is created", Alg. 1).
  ViewPlans plans_;
  MaterializedView view_;
  MaintainOptions options_;
  ExecStats exec_stats_;  // accumulated by EvaluateTerm, drained by manager
  TermCheck term_check_;  // tests only
};

}  // namespace xvm

#endif  // XVM_VIEW_MAINTAIN_H_
