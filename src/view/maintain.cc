#include "view/maintain.h"

#include <algorithm>
#include <utility>

#include "algebra/analyze/delta_check.h"
#include "view/upkeep.h"

namespace xvm {

DeletedRegion::DeletedRegion(std::vector<DeweyId> roots)
    : roots_(std::move(roots)) {}

bool DeletedRegion::Covers(const DeweyId& id) const {
  if (roots_.empty()) return false;
  // The only root that can be an ancestor-or-self of `id` is the greatest
  // root <= id (roots are non-nested and sorted in document order).
  auto it = std::upper_bound(roots_.begin(), roots_.end(), id);
  if (it == roots_.begin()) return false;
  --it;
  return it->IsAncestorOrSelf(id);
}

namespace {

/// First anchor >= id decides whether any anchor lies in id's subtree
/// (subtrees are contiguous ID ranges in document order).
bool AnyAnchorAtOrBelow(const std::vector<DeweyId>& sorted_anchors,
                        const DeweyId& id) {
  auto it = std::lower_bound(sorted_anchors.begin(), sorted_anchors.end(), id);
  return it != sorted_anchors.end() && id.IsAncestorOrSelf(*it);
}

/// True iff some anchor lies *strictly* below id.
bool AnyAnchorStrictlyBelow(const std::vector<DeweyId>& sorted_anchors,
                            const DeweyId& id) {
  auto it = std::upper_bound(sorted_anchors.begin(), sorted_anchors.end(), id);
  return it != sorted_anchors.end() && id.IsAncestorOf(*it);
}

/// Sorts `added` into the snowcap's binding order and merges it into the
/// (already ordered) rows.
void MergeInBindingOrder(std::vector<Tuple> added, MaterializedSnowcap* sc) {
  // The snowcap's plan leaf declares its binding order; keeping it lets
  // every term over the snowcap elide its sorts. Merge backwards in place:
  // one binary search per added row, and only the rows after the first
  // insertion point move.
  const std::vector<int> order = BindingOrder(sc->layout);
  auto less = [&order](const Tuple& a, const Tuple& b) {
    return RowLess(a, b, order);
  };
  std::sort(added.begin(), added.end(), less);
  std::vector<Tuple>& rows = sc->data.rows;
  const size_t old_size = rows.size();
  rows.resize(old_size + added.size());
  auto old_end = rows.begin() + static_cast<ptrdiff_t>(old_size);
  auto dst = rows.end();  // rows at and after dst are final
  for (auto it = added.rbegin(); it != added.rend(); ++it) {
    auto pos = std::upper_bound(rows.begin(), old_end, *it, less);
    dst = std::move_backward(pos, old_end, dst);
    old_end = pos;
    *--dst = std::move(*it);
  }
}

/// True iff some payload node of row `t` has an ID `affected` picks.
template <typename Affected>
bool AnyPayloadAffected(const UpkeepOrder& order, const Affected& affected,
                        const Tuple& t) {
  return std::any_of(order.payloads.begin(), order.payloads.end(),
                     [&](const UpkeepOrder::Payload& p) {
                       return affected(
                           t[static_cast<size_t>(p.cols.id_col)].id());
                     });
}

/// Re-reads from the store the val/cont payloads of row `t` for every
/// payload node whose ID satisfies `affected`. Returns true iff any was
/// re-read. store->Val/Cont: the anchors were invalidated right after the
/// PUL applied, so this recomputes once and the other views' passes over
/// the same node hit the cache.
/// `affected` picks ancestors-or-self of Δ anchors, which predate this
/// statement, so they resolve through its (lagging) relations. A target in
/// a copy an op sequence just inserted does not; its rows came from Δ+.
template <typename Affected>
bool RefreshPayloads(StoreIndex* store, const UpkeepOrder& order,
                     const Affected& affected, Tuple* t) {
  bool changed = false;
  for (const UpkeepOrder::Payload& p : order.payloads) {
    const DeweyId& id = (*t)[static_cast<size_t>(p.cols.id_col)].id();
    if (!affected(id)) continue;
    NodeHandle h = store->FindById(id);
    if (h == kNullNode) continue;
    if (p.cols.val_col >= 0) {
      (*t)[static_cast<size_t>(p.cols.val_col)] = Value(store->Val(h));
    }
    if (p.cols.cont_col >= 0) {
      (*t)[static_cast<size_t>(p.cols.cont_col)] = Value(store->Cont(h));
    }
    changed = true;
  }
  return changed;
}

/// Calls visit(i) for every row position `reach` holds; counts the rows.
template <typename Visit>
void ForEachReached(const Reach& reach, size_t* rows_visited,
                    const Visit& visit) {
  *rows_visited += reach.rows_compared;
  for (const RowRange& range : reach.ranges) {
    *rows_visited += range.end - range.begin;
    for (size_t i = range.begin; i < range.end; ++i) visit(i);
  }
}

/// PIMT/PDMT: rewrites, in one batch, the view tuples `reach` holds whose
/// payload nodes `affected` picks. Returns the number rewritten.
template <typename Affected>
size_t RefreshViewPayloads(StoreIndex* store, const UpkeepOrder& order,
                           const Affected& affected, const Reach& reach,
                           MaterializedView* view, size_t* rows_visited) {
  std::vector<std::pair<size_t, Tuple>> changed;
  ForEachReached(reach, rows_visited, [&](size_t i) {
    const Tuple& t = view->content()[i].tuple;
    if (!AnyPayloadAffected(order, affected, t)) return;
    Tuple next = t;
    if (RefreshPayloads(store, order, affected, &next)) {
      changed.emplace_back(i, std::move(next));
    }
  });
  return view->ReplaceEntries(std::move(changed));
}

/// The snowcap counterpart of PIMT/PDMT: without it a snowcap's val/cont
/// columns go stale, and a later term over the snowcap copies the stale
/// payload into the view (for a node that is not an ancestor of that
/// term's anchors, so PIMT would not repair it).
template <typename Affected>
void RefreshSnowcapRows(StoreIndex* store, const UpkeepOrder& order,
                        const Affected& affected, const Reach& reach,
                        MaterializedSnowcap* sc, size_t* rows_visited) {
  ForEachReached(reach, rows_visited, [&](size_t i) {
    RefreshPayloads(store, order, affected, &sc->data.rows[i]);
  });
}

/// Affected iff some deleted subtree hung strictly below this (surviving)
/// node: its val/cont lost data.
auto PayloadShrank(const DeletedRegion& region) {
  return [&region](const DeweyId& id) {
    return !region.Covers(id) && AnyAnchorStrictlyBelow(region.roots(), id);
  };
}

/// Removes the rows at `doomed` (increasing positions), keeping the binding
/// order of the others: every row after the first doomed one moves once.
void EraseRows(const std::vector<size_t>& doomed, std::vector<Tuple>* rows) {
  if (doomed.empty()) return;
  auto out = rows->begin() + static_cast<ptrdiff_t>(doomed.front());
  for (size_t k = 0; k < doomed.size(); ++k) {
    auto from = rows->begin() + static_cast<ptrdiff_t>(doomed[k]) + 1;
    auto to = k + 1 < doomed.size()
                  ? rows->begin() + static_cast<ptrdiff_t>(doomed[k + 1])
                  : rows->end();
    out = std::move(from, to, out);
  }
  rows->erase(out, rows->end());
}

}  // namespace

MaintainedView::MaintainedView(ViewDefinition def, StoreIndex* store,
                               LatticeStrategy strategy)
    : def_(std::move(def)),
      store_(store),
      lattice_(&def_.pattern(), strategy),
      plans_(def_, lattice_),
      view_(def_.tuple_schema()) {}

void MaintainedView::Initialize() { RecomputeFromStore(); }

Status MaintainedView::CheckPlans() const {
  XVM_RETURN_IF_ERROR(plans_.status());
  // Opt-in semantic gate (XVM_PROVE_DELTA): bounded-exhaustive proof that
  // the Δ-rewrite plans equal recompute-diff, cached per plan fingerprint.
  XVM_RETURN_IF_ERROR(ProveDeltaForInstall(def_));
  return Status::Ok();
}

std::vector<size_t> MaintainedView::SurvivingTerms(
    const TermSpace& space, const DeltaTables& delta) const {
  const TreePattern& pat = def_.pattern();
  const LabelDict& dict = store_->doc().dict();
  std::vector<size_t> out;
  for (size_t i = 0; i < space.size(); ++i) {
    const NodeSet& ds = space.Term(i, false).delta_set;
    if (options_.prune_empty_delta &&
        TermPrunedByEmptyDelta(pat, ds, delta, dict)) {
      continue;
    }
    if (options_.prune_anchor_paths &&
        TermPrunedByAnchorPaths(pat, ds, space.within, delta, dict)) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

void MaintainedView::RecomputeFromStore() {
  XVM_CHECK(plans_.status().ok());  // CheckPlans refuses such views
  view_.Reset(RunViewPlan(plans_.view().base,
                          StoreLeafSource(store_, &def_.pattern())));
  lattice_.Materialize(*store_, plans_);
}

ViewSnapshotPtr MaintainedView::BuildSnapshot(uint64_t generation,
                                              const ViewSnapshot* prev) const {
  if (prev != nullptr && prev->source_version() == view_.version()) {
    return prev->Restamped(generation);
  }
  return std::make_shared<const ViewSnapshot>(def_.name(), view_.schema(),
                                              view_.id_cols(), view_.Freeze(),
                                              generation, view_.version());
}

std::set<LabelId> MaintainedView::DeltaMinusValLabelIds() const {
  std::set<LabelId> out;
  for (const auto& name : def_.DeltaMinusValLabels()) {
    LabelId id = store_->doc().dict().Lookup(name);
    if (id != kInvalidLabel) out.insert(id);
  }
  return out;
}

DeltaNeeds MaintainedView::DeltaPlusNeeds() const {
  DeltaNeeds needs;
  const LabelDict& dict = store_->doc().dict();
  for (const auto& n : def_.pattern().nodes()) {
    LabelId id = dict.Lookup(n.label);
    if (id == kInvalidLabel) continue;
    if (n.store_val || n.val_pred.has_value()) needs.val_labels.insert(id);
    if (n.store_cont) needs.cont_labels.insert(id);
  }
  return needs;
}

DeltaLeaves::DeltaLeaves(const TreePattern& pattern,
                         const std::vector<LabelId>& labels,
                         const DeltaTables& delta)
    : pattern_(pattern), labels_(labels), delta_(delta),
      built_(pattern.size()), readers_(pattern.size(), 0) {}

void DeltaLeaves::Expect(const NodeSet& delta_set) {
  for (size_t i = 0; i < delta_set.size(); ++i) {
    if (delta_set[i]) ++readers_[i];
  }
}

void DeltaLeaves::Done(const NodeSet& delta_set) {
  for (size_t i = 0; i < delta_set.size(); ++i) {
    if (delta_set[i] && --readers_[i] == 0) built_[i].reset();
  }
}

const Relation* DeltaLeaves::Leaf(int node) {
  std::unique_ptr<Relation>& rel = built_[static_cast<size_t>(node)];
  if (rel != nullptr) return rel.get();
  const PatternNode& n = pattern_.node(node);
  const bool want_val = n.store_val || n.val_pred.has_value();
  rel = std::make_unique<Relation>();
  rel->schema = LeafSchema(n);
  const LabelId label = labels_[static_cast<size_t>(node)];
  if (label == kInvalidLabel) return rel.get();
  for (const DeltaRow& row : delta_.ForLabel(label)) {
    Tuple t;
    t.emplace_back(row.id);
    if (want_val) t.emplace_back(row.val);
    if (n.store_cont) t.emplace_back(row.cont);
    rel->rows.push_back(std::move(t));
  }
  return rel.get();
}

Relation MaintainedView::EvaluateTerm(const TermEntry& term,
                                      DeltaLeaves* delta,
                                      const DeletedRegion* region,
                                      const std::vector<LabelId>& labels,
                                      MaintenanceStats* stats) {
  Relation out = RunTerm(term, delta, region, labels, /*bounded=*/true, stats);
  if (term_check_) {
    term_check_(term, delta->tables(), out,
                RunTerm(term, delta, region, labels, /*bounded=*/false,
                        nullptr));
  }
  delta->Done(term.delta_set);
  return out;
}

Relation MaintainedView::RunTerm(const TermEntry& term, DeltaLeaves* delta,
                                 const DeletedRegion* region,
                                 const std::vector<LabelId>& labels,
                                 bool bounded, MaintenanceStats* stats) {
  BoundedLeaves leaves(term.bounds, def_.pattern(), *store_, labels,
                       delta->tables(), bounded);
  PhysExecContext ctx;
  ctx.store_leaf = [&leaves](int node) { return leaves.Store(node); };
  ctx.delta_leaf = [delta](int node) { return delta->Leaf(node); };
  // t_R as a materialized snowcap: the executor reads the reachable rows,
  // or the whole snowcap in place (it is kept in its binding order, so a
  // sort by its first column is elided statically, and the stack-based
  // structural join only scans outer rows up to the last Δ ID).
  if (term.snowcap >= 0) {
    const size_t sc = static_cast<size_t>(term.snowcap);
    const Relation* rows = leaves.Snowcap(lattice_.snowcaps()[sc].data,
                                          plans_.snowcaps()[sc].upkeep);
    ctx.snowcap_leaf = [rows](const PhysNode&) { return rows; };
  }
  if (term.with_region) {
    ctx.deleted = [region](const DeweyId& id) { return region->Covers(id); };
  }
  if (stats != nullptr) ctx.stats = &exec_stats_;
  StatusOr<Relation> out = ExecutePhysicalPlan(term.physical, ctx);
  XVM_CHECK(out.ok());
  if (stats != nullptr) {
    stats->leaf_rows_read += leaves.rows_read();
    stats->leaves_unbounded += leaves.unbounded();
  }
  return std::move(*out);
}

bool MaintainedView::PredicateGuardTriggered(const DeltaTables& delta) const {
  // An update that adds/removes data *underneath* an existing node whose
  // label carries a value predicate may flip that node's σ[val=c] result —
  // an effect outside the add/remove-embeddings model (the paper does not
  // treat it). Detect it from the anchor IDs and fall back to recomputation.
  const LabelDict& dict = store_->doc().dict();
  for (const auto& n : def_.pattern().nodes()) {
    if (!n.val_pred.has_value()) continue;
    LabelId label = dict.Lookup(n.label);
    if (label == kInvalidLabel) continue;
    for (const auto& anchor : delta.anchor_ids()) {
      bool hits = delta.sign() == DeltaTables::Sign::kPlus
                      ? anchor.HasAncestorOrSelfLabeled(label)
                      : anchor.HasAncestorLabeled(label);
      if (hits) return true;
    }
  }
  return false;
}

void MaintainedView::PropagateInsert(const DeltaTables& delta_plus,
                                     const DeletedRegion* region,
                                     PhaseTimer* timer,
                                     MaintenanceStats* stats) {
  if (PredicateGuardTriggered(delta_plus)) {
    stats->recompute_fallback = true;
    return;
  }
  const TermSpace& terms = plans_.view();
  const bool with_region = region != nullptr && !region->empty();
  const std::vector<LabelId> labels = PatternLabels();
  DeltaLeaves delta_leaves(def_.pattern(), labels, delta_plus);

  std::vector<size_t> surviving;
  std::vector<std::vector<size_t>> snowcap_surviving;
  {
    ScopedPhase phase(timer, phase::kGetExpression);
    surviving = SurvivingTerms(terms, delta_plus);
    stats->terms_considered += terms.size();
    stats->terms_pruned_data += terms.size() - surviving.size();
    for (size_t i : surviving) {
      delta_leaves.Expect(terms.Term(i, with_region).delta_set);
    }
    for (const TermSpace& sc_terms : plans_.snowcaps()) {
      snowcap_surviving.push_back(SurvivingTerms(sc_terms, delta_plus));
      for (size_t i : snowcap_surviving.back()) {
        delta_leaves.Expect(sc_terms.Term(i, with_region).delta_set);
      }
    }
  }
  {
    ScopedPhase phase(timer, phase::kExecuteUpdate);
    for (size_t i : surviving) {
      Relation rel = EvaluateTerm(terms.Term(i, with_region), &delta_leaves,
                                  region, labels, stats);
      ++stats->terms_evaluated;
      Relation proj = Project(rel, plans_.stored_cols());
      // Derivation counting over the executor's term output — view-content
      // bookkeeping, not plan interpretation. The counted rows come out in
      // canonical order and merge into the view as one batch.
      std::vector<CountedTuple> counted = DupElimWithCounts(proj);  // NOLINT(xvm-exec): counts derivations of an executed term
      for (const CountedTuple& ct : counted) {
        stats->derivations_added += ct.count;
      }
      view_.AddDerivations(std::move(counted));
    }
    RunPimt(delta_plus, labels, stats);
  }
  {
    ScopedPhase phase(timer, phase::kUpdateLattice);
    MaintainSnowcapsInsert(&delta_leaves, snowcap_surviving, region, labels,
                           stats);
  }
}

void MaintainedView::PropagateDelete(const DeltaTables& delta_minus,
                                     PhaseTimer* timer,
                                     MaintenanceStats* stats) {
  if (delta_minus.anchor_ids().empty()) return;  // nothing was deleted
  if (PredicateGuardTriggered(delta_minus)) {
    stats->recompute_fallback = true;
    return;
  }
  const TermSpace& terms = plans_.view();
  DeletedRegion region(delta_minus.anchor_ids());
  const std::vector<LabelId> labels = PatternLabels();
  DeltaLeaves delta_leaves(def_.pattern(), labels, delta_minus);

  std::vector<size_t> surviving;
  {
    ScopedPhase phase(timer, phase::kGetExpression);
    surviving = SurvivingTerms(terms, delta_minus);
    stats->terms_considered += terms.size();
    stats->terms_pruned_data += terms.size() - surviving.size();
    for (size_t i : surviving) {
      delta_leaves.Expect(terms.Term(i, /*with_region=*/true).delta_set);
    }
  }
  {
    ScopedPhase phase(timer, phase::kExecuteUpdate);
    for (size_t i : surviving) {
      Relation rel = EvaluateTerm(terms.Term(i, /*with_region=*/true),
                                  &delta_leaves, &region, labels, stats);
      ++stats->terms_evaluated;
      Relation proj = Project(rel, plans_.removal_cols());
      // Same as the insert side: multiset bookkeeping, not execution. The
      // rows are ID projections in canonical order: the view finds them by
      // their ID values in one merge pass.
      std::vector<CountedTuple> counted = DupElimWithCounts(proj);  // NOLINT(xvm-exec): counts derivations of an executed term
      for (const CountedTuple& ct : counted) {
        stats->derivations_removed += ct.count;
      }
      view_.RemoveDerivations(counted);
    }
    RunPdmt(region, labels, stats);
  }
  {
    ScopedPhase phase(timer, phase::kUpdateLattice);
    MaintainSnowcapsDelete(region, labels, stats);
  }
}

void MaintainedView::MaintainSnowcapsInsert(
    DeltaLeaves* delta_leaves,
    const std::vector<std::vector<size_t>>& surviving,
    const DeletedRegion* region, const std::vector<LabelId>& labels,
    MaintenanceStats* stats) {
  auto& snowcaps = lattice_.snowcaps();
  const DeltaTables& delta = delta_leaves->tables();
  const std::vector<DeweyId>& anchors = delta.anchor_ids();
  auto affected = [&anchors](const DeweyId& id) {
    return AnyAnchorAtOrBelow(anchors, id);
  };
  const bool with_region = region != nullptr && !region->empty();
  // Descending size: each snowcap's t_R reads *smaller* snowcaps, which are
  // updated later in this loop and therefore still hold pre-update data —
  // exactly the R the union terms require.
  for (size_t idx = snowcaps.size(); idx-- > 0;) {
    MaterializedSnowcap& sc = snowcaps[idx];
    const TermSpace& terms = plans_.snowcaps()[idx];
    std::vector<Tuple> added;
    for (size_t i : surviving[idx]) {
      Relation rel =
          EvaluateTerm(terms.Term(i, with_region), delta_leaves, region,
                       labels, stats);
      for (auto& row : rel.rows) added.push_back(std::move(row));
    }
    if (!added.empty()) MergeInBindingOrder(std::move(added), &sc);
    const Reach reach = ReachPayloadAncestors(terms.upkeep, labels, anchors,
                                              SortedRows(sc.data.rows));
    RefreshSnowcapRows(store_, terms.upkeep, affected, reach, &sc,
                       &stats->upkeep_rows_visited);
  }
}

void MaintainedView::MaintainSnowcapsDelete(const DeletedRegion& region,
                                            const std::vector<LabelId>& labels,
                                            MaintenanceStats* stats) {
  auto& snowcaps = lattice_.snowcaps();
  for (size_t idx = 0; idx < snowcaps.size(); ++idx) {
    MaterializedSnowcap& sc = snowcaps[idx];
    const UpkeepOrder& order = plans_.snowcaps()[idx].upkeep;
    std::vector<size_t> doomed;
    const Reach covered = ReachCoveredRows(order, labels, region.roots(),
                                           SortedRows(sc.data.rows));
    ForEachReached(covered, &stats->upkeep_rows_visited, [&](size_t i) {
      const Tuple& row = sc.data.rows[i];
      for (const UpkeepOrder::Key& key : order.keys) {
        if (region.Covers(row[static_cast<size_t>(key.col)].id())) {
          doomed.push_back(i);
          return;
        }
      }
    });
    EraseRows(doomed, &sc.data.rows);
    const Reach reach = ReachPayloadAncestors(order, labels, region.roots(),
                                              SortedRows(sc.data.rows));
    RefreshSnowcapRows(store_, order, PayloadShrank(region), reach, &sc,
                       &stats->upkeep_rows_visited);
  }
}

void MaintainedView::RunPimt(const DeltaTables& delta,
                             const std::vector<LabelId>& labels,
                             MaintenanceStats* stats) {
  const std::vector<DeweyId>& anchors = delta.anchor_ids();
  // Alg. 4: t.n = n_i or t.n ≺≺ n_i — the stored node is, or is an ancestor
  // of, an insertion target; its val/cont absorbed new data.
  auto affected = [&anchors](const DeweyId& id) {
    return AnyAnchorAtOrBelow(anchors, id);
  };
  const UpkeepOrder& order = plans_.view().upkeep;
  const Reach reach = ReachPayloadAncestors(order, labels, anchors,
                                            SortedRows(view_.content()));
  stats->tuples_modified +=
      RefreshViewPayloads(store_, order, affected, reach, &view_,
                          &stats->upkeep_rows_visited);
}

void MaintainedView::RunPdmt(const DeletedRegion& region,
                             const std::vector<LabelId>& labels,
                             MaintenanceStats* stats) {
  const UpkeepOrder& order = plans_.view().upkeep;
  const Reach reach = ReachPayloadAncestors(order, labels, region.roots(),
                                            SortedRows(view_.content()));
  stats->tuples_modified +=
      RefreshViewPayloads(store_, order, PayloadShrank(region), reach, &view_,
                          &stats->upkeep_rows_visited);
}

std::vector<LabelId> MaintainedView::PatternLabels() const {
  const LabelDict& dict = store_->doc().dict();
  std::vector<LabelId> out;
  out.reserve(def_.pattern().size());
  for (const PatternNode& n : def_.pattern().nodes()) {
    out.push_back(dict.Lookup(n.label));
  }
  return out;
}

}  // namespace xvm
