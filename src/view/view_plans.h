#ifndef XVM_VIEW_VIEW_PLANS_H_
#define XVM_VIEW_VIEW_PLANS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "algebra/analyze/analyze.h"
#include "algebra/analyze/plan.h"
#include "algebra/exec/physical.h"
#include "common/status.h"
#include "view/lattice.h"
#include "view/term_bounds.h"
#include "view/terms.h"
#include "view/upkeep.h"
#include "view/view_def.h"

namespace xvm {

/// One union term of the Δ-rewrite (Alg. 1) with the plan it runs: the
/// term with Δ-set `delta_set`, with or without σ_alive.
struct TermEntry {
  NodeSet delta_set;
  bool with_region = false;
  /// Index into ViewLattice::snowcaps() of the snowcap the R-part reads,
  /// or -1 when the R-part is recomputed from store leaves (or empty).
  int snowcap = -1;
  PlanNodePtr logical;    // BuildTermPlan output, kept for the prover
  PhysicalPlan physical;  // what the executor runs
  /// Which rows of each store or snowcap leaf a statement's Δ can reach;
  /// applied below the executor, so `physical` reads them unchanged.
  TermBounds bounds;
};

/// The union terms of the view, or of one materialized snowcap, and the
/// base plan that evaluates it from the store.
struct TermSpace {
  NodeSet within;  // every pattern node, or the snowcap's nodes
  /// Two entries per Δ-set, in EnumerateDeltaSets[Within] order: σ_alive
  /// off at 2i, on at 2i + 1.
  std::vector<TermEntry> entries;
  /// Lowered BuildViewPlan for the view (run with derivation counts),
  /// lowered BuildPatternPlan over `within` for a snowcap.
  PhysicalPlan base;
  /// How PIMT/PDMT (the view) or snowcap upkeep finds the rows a Δ reaches.
  UpkeepOrder upkeep;

  /// Number of Δ-sets.
  size_t size() const { return entries.size() / 2; }
  const TermEntry& Term(size_t i, bool with_region) const {
    return entries[2 * i + (with_region ? 1 : 0)];
  }
};

/// The one term-plan table of a view (DESIGN.md §2, "Term evaluation"):
/// every plan maintenance runs for `def` under `lattice`, enumerated,
/// analyzed and lowered once, when the view is created ("Develop the union
/// terms", Alg. 1), plus where term output lands in the stored tuple.
/// Propagation, planlint and the Δ prover only index it.
///
/// Construction stops at the first plan that fails analysis or lowering
/// and records that failure as status(); the table is then incomplete and
/// the view must not be installed (MaintainedView::CheckPlans returns it,
/// ViewManager::AddView refuses the view). On top of per-plan analysis it
/// verifies that
///   * the binding plan's schema is the canonical layout;
///   * the view plan's schema is def.tuple_schema() and the stored ID
///     columns provably key the view (PDMT removes tuples by that key);
///   * every union term reproduces the canonical layout of the view or
///     snowcap it maintains (union compatibility).
class ViewPlans {
 public:
  ViewPlans(const ViewDefinition& def, const ViewLattice& lattice);

  /// The first analysis or lowering failure (InvalidArgument naming the
  /// view, the term and the analyzer's operator path), else Ok.
  const Status& status() const { return status_; }

  /// The view's union terms and its base plan.
  const TermSpace& view() const { return view_; }
  /// Index-aligned with the lattice's snowcaps.
  const std::vector<TermSpace>& snowcaps() const { return snowcaps_; }

  /// Union-term entries of the view and every snowcap.
  size_t term_count() const;

  /// Facts of the full binding plan and of the stored-tuple plan.
  const PlanFacts& binding_facts() const { return binding_facts_; }
  const PlanFacts& view_facts() const { return view_facts_; }

  /// Canonical binding columns the view stores, in stored-tuple order: the
  /// projection of an insert term's output.
  const std::vector<int>& stored_cols() const { return stored_cols_; }
  /// The stored ID columns among them: the projection of a delete term's
  /// output, which the view removes by that key.
  const std::vector<int>& removal_cols() const { return removal_cols_; }
  /// Positions of the ID columns in the stored tuple.
  const std::vector<int>& id_positions() const { return id_positions_; }
  /// Per pattern node, its columns in the stored tuple (PIMT/PDMT).
  const std::vector<NodeLayout>& stored_layout() const {
    return stored_layout_;
  }

  /// planlint's report of an accepted table.
  std::string Describe(const ViewDefinition& def) const;

 private:
  Status Populate(const ViewDefinition& def, const ViewLattice& lattice);

  Status status_;
  TermSpace view_;
  std::vector<TermSpace> snowcaps_;
  PlanFacts binding_facts_;
  PlanFacts view_facts_;
  std::vector<int> stored_cols_;
  std::vector<int> removal_cols_;
  std::vector<int> id_positions_;
  std::vector<NodeLayout> stored_layout_;
};

}  // namespace xvm

#endif  // XVM_VIEW_VIEW_PLANS_H_
