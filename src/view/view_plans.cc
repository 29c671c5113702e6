#include "view/view_plans.h"

#include <utility>

#include "algebra/analyze/build_plan.h"
#include "pattern/compile.h"

namespace xvm {

namespace {

std::string SchemaMismatch(const std::string& what, const Schema& got,
                           const Schema& want) {
  return what + " schema mismatch:\n  inferred: " + got.ToString() +
         "\n  expected: " + want.ToString();
}

/// Index of the lattice snowcap whose node set is `r_part`, or -1.
int SnowcapIndex(const ViewLattice& lattice, const NodeSet& r_part) {
  const auto& snowcaps = lattice.snowcaps();
  for (size_t i = 0; i < snowcaps.size(); ++i) {
    if (snowcaps[i].nodes == r_part) return static_cast<int>(i);
  }
  return -1;
}

/// Builds, analyzes and lowers both σ_alive variants of every union term of
/// `space->within` over `delta_sets`; each must reproduce `canon`, the
/// canonical layout of what the terms maintain.
Status AddTerms(const ViewDefinition& def, const ViewLattice& lattice,
                const std::vector<NodeSet>& delta_sets, const Schema& canon,
                TermSpace* space) {
  const TreePattern& pat = def.pattern();
  const NodeSet& within = space->within;
  for (const NodeSet& ds : delta_sets) {
    NodeSet r_part(pat.size(), false);
    for (size_t i = 0; i < pat.size(); ++i) r_part[i] = within[i] && !ds[i];
    const int snowcap = SnowcapIndex(lattice, r_part);
    for (bool with_region : {false, true}) {
      TermEntry entry;
      entry.delta_set = ds;
      entry.with_region = with_region;
      entry.snowcap = snowcap;
      entry.logical =
          BuildTermPlan(pat, within, ds, snowcap >= 0, with_region);
      auto reject = [&](const std::string& why) {
        return Status::InvalidArgument(
            "view '" + def.name() + "', term Δ-set " +
            NodeSetToString(pat, ds) + " within " +
            NodeSetToString(pat, within) +
            (snowcap >= 0 ? ", materialized t_R" : ", recomputed t_R") +
            (with_region ? ", with σ_alive" : "") + ": " + why);
      };
      StatusOr<PhysicalPlan> phys = LowerPlan(*entry.logical);
      if (!phys.ok()) return reject(phys.status().message());
      if (!(phys->output_schema() == canon)) {
        return reject(
            SchemaMismatch("union-term", phys->output_schema(), canon));
      }
      entry.physical = std::move(*phys);
      entry.bounds = MakeTermBounds(pat, within, ds, snowcap >= 0);
      space->entries.push_back(std::move(entry));
    }
  }
  return Status::Ok();
}

}  // namespace

ViewPlans::ViewPlans(const ViewDefinition& def, const ViewLattice& lattice) {
  status_ = Populate(def, lattice);
}

size_t ViewPlans::term_count() const {
  size_t n = view_.entries.size();
  for (const TermSpace& sc : snowcaps_) n += sc.entries.size();
  return n;
}

std::string ViewPlans::Describe(const ViewDefinition& def) const {
  std::string out = "view " + def.name() + ": OK\n";
  out += "  pattern: " + def.pattern().ToString() + "\n";
  out += "  tuple schema: " + def.tuple_schema().ToString() + "\n";
  out += "  view facts: " + view_facts_.ToString() + "\n";
  out += "  binding facts: " + binding_facts_.ToString() + "\n";
  // Populate rejects a view whose key it cannot prove.
  out += "  stored-ID key: proven\n";
  out += "  Δ union-term plans checked: " +
         std::to_string(view_.entries.size()) + "\n";
  out += "  snowcap term plans checked: " +
         std::to_string(term_count() - view_.entries.size()) + "\n";
  return out;
}

Status ViewPlans::Populate(const ViewDefinition& def,
                           const ViewLattice& lattice) {
  const TreePattern& pat = def.pattern();

  // Where term output lands in the stored tuple.
  BindingLayout full = ComputeBindingLayout(pat, nullptr);
  stored_cols_ = StoredColumnIndices(pat, full);
  for (int c : stored_cols_) {
    if (full.schema.col(static_cast<size_t>(c)).kind == ValueKind::kId) {
      removal_cols_.push_back(c);
    }
  }
  for (size_t c = 0; c < def.tuple_schema().size(); ++c) {
    if (def.tuple_schema().col(c).kind == ValueKind::kId) {
      id_positions_.push_back(static_cast<int>(c));
    }
  }
  stored_layout_.resize(pat.size());
  int col = 0;
  for (size_t i = 0; i < pat.size(); ++i) {
    const PatternNode& n = pat.node(static_cast<int>(i));
    if (n.store_id) stored_layout_[i].id_col = col++;
    if (n.store_val) stored_layout_[i].val_col = col++;
    if (n.store_cont) stored_layout_[i].cont_col = col++;
  }

  // Full canonical-binding plan: the layout every view term reproduces.
  PlanNodePtr binding =
      BuildPatternPlan(pat, nullptr, PlanLeafSourceKind::kStore);
  XVM_ASSIGN_OR_RETURN(binding_facts_, AnalyzePlan(*binding));
  if (!(binding_facts_.schema == full.schema)) {
    return Status::InvalidArgument(
        "view '" + def.name() + "': " +
        SchemaMismatch("binding plan", binding_facts_.schema, full.schema));
  }

  // Stored-tuple plan (EvalViewWithCounts): schema must be the declared
  // tuple schema, and the stored ID columns must provably key the view —
  // PDMT removes tuples by that key.
  PlanNodePtr view_plan = BuildViewPlan(pat);
  XVM_ASSIGN_OR_RETURN(view_facts_, AnalyzePlan(*view_plan));
  if (!(view_facts_.schema == def.tuple_schema())) {
    return Status::InvalidArgument(
        "view '" + def.name() + "': " +
        SchemaMismatch("view plan", view_facts_.schema, def.tuple_schema()));
  }
  if (!view_facts_.HasKeyWithin(id_positions_)) {
    return Status::InvalidArgument(
        "view '" + def.name() +
        "': cannot prove that the stored ID columns key the view "
        "(remove-by-ID-key maintenance requires it)\n  proven facts: " +
        view_facts_.ToString());
  }
  XVM_ASSIGN_OR_RETURN(view_.base, LowerPlan(*view_plan));
  view_.upkeep = MakeUpkeepOrder(pat, stored_layout_, def.cvn());

  // The view's union terms: both σ_alive modes (pure inserts vs statements
  // that also delete); whether the R-part is a materialized snowcap is
  // fixed by the lattice.
  view_.within.assign(pat.size(), true);
  XVM_RETURN_IF_ERROR(
      AddTerms(def, lattice, EnumerateDeltaSets(pat), full.schema, &view_));

  // Auxiliary-structure maintenance: each materialized snowcap is itself
  // kept incrementally via the same union-term rewriting, restricted to the
  // snowcap's sub-pattern (Prop. 3.13).
  for (const MaterializedSnowcap& sc : lattice.snowcaps()) {
    TermSpace space;
    space.within = sc.nodes;
    PlanNodePtr base =
        BuildPatternPlan(pat, &sc.nodes, PlanLeafSourceKind::kStore);
    XVM_ASSIGN_OR_RETURN(space.base, LowerPlan(*base));
    if (!(space.base.output_schema() == sc.layout.schema)) {
      return Status::InvalidArgument(
          "view '" + def.name() + "', snowcap " +
          NodeSetToString(pat, sc.nodes) + ": " +
          SchemaMismatch("snowcap plan", space.base.output_schema(),
                         sc.layout.schema));
    }
    XVM_RETURN_IF_ERROR(AddTerms(def, lattice,
                                 EnumerateDeltaSetsWithin(pat, sc.nodes),
                                 sc.layout.schema, &space));
    space.upkeep = MakeUpkeepOrder(pat, sc.layout.per_node, def.cvn());
    snowcaps_.push_back(std::move(space));
  }
  return Status::Ok();
}

}  // namespace xvm
