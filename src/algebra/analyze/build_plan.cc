#include "algebra/analyze/build_plan.h"

#include <string>
#include <utility>

#include "common/status.h"

namespace xvm {

namespace {

bool Included(const std::vector<bool>* subset, int i) {
  return subset == nullptr || (*subset)[static_cast<size_t>(i)];
}

/// Column layout of a subtree binding plan: pre-order over the subtree of
/// `node` restricted to `within` — the builder-side twin of maintain.cc's
/// SubtreeLayoutRec.
void SubtreeLayout(const TreePattern& pattern, const std::vector<bool>& within,
                   int node, int* next_col, std::vector<NodeLayout>* per_node) {
  const PatternNode& n = pattern.node(node);
  NodeLayout& l = (*per_node)[static_cast<size_t>(node)];
  l.id_col = (*next_col)++;
  if (n.store_val) l.val_col = (*next_col)++;
  if (n.store_cont) l.cont_col = (*next_col)++;
  for (int c : n.children) {
    if (within[static_cast<size_t>(c)]) {
      SubtreeLayout(pattern, within, c, next_col, per_node);
    }
  }
}

/// Leaf plan of pattern node `node`, honoring the LeafSource contract:
/// columns LeafSchema(node), rows sorted by and unique on the ID column.
PlanNodePtr BuildLeafPlan(const TreePattern& pattern, int node,
                          PlanLeafSourceKind src) {
  const PatternNode& n = pattern.node(node);
  const bool store = src == PlanLeafSourceKind::kStore;
  PlanNodePtr leaf = MakeContractLeaf(
      store ? PlanLeafKind::kStoreScan : PlanLeafKind::kDeltaScan,
      (store ? "R:" : "delta:") + n.label, LeafSchema(n));
  leaf->leaf_node = node;
  return leaf;
}

/// The binding plan of the pattern subtree rooted at `root`, restricted to
/// `subset` when non-null: the leaf of `root` structurally joined, child by
/// child, with the subtree plans of its included children. Output column
/// order is pre-order over the subtree; first column is `root`'s ID, and
/// rows are sorted by it (the inner input of the parent's structural join).
PlanNodePtr BuildPatternSubtreePlan(const TreePattern& pattern, int root,
                                    const std::vector<bool>* subset,
                                    PlanLeafSourceKind src) {
  XVM_CHECK(Included(subset, root));
  const PatternNode& n = pattern.node(root);
  PlanNodePtr cur = BuildLeafPlan(pattern, root, src);
  const size_t leaf_width = cur->leaf_schema.size();

  // A '/'-anchored pattern root matches only the document root element.
  if (root == 0 && n.edge == EdgeKind::kChild) {
    PlanPredicate anchor;
    anchor.kind = PlanPredicate::Kind::kRootAnchor;
    anchor.a = 0;
    std::vector<PlanPredicate> preds;
    preds.push_back(std::move(anchor));
    cur = MakeSelect(std::move(cur), std::move(preds));
  }

  // Value predicate; afterwards drop a val column that exists only for the
  // predicate (binding schemas are uniform across leaf sources).
  if (n.val_pred.has_value()) {
    PlanPredicate eq;
    eq.kind = PlanPredicate::Kind::kEqConst;
    eq.a = 1;  // leaf contract: ID at 0, val immediately after
    eq.constant = *n.val_pred;
    std::vector<PlanPredicate> preds;
    preds.push_back(std::move(eq));
    cur = MakeSelect(std::move(cur), std::move(preds));
    if (!n.store_val) {
      std::vector<int> keep;
      for (size_t c = 0; c < leaf_width; ++c) {
        if (c != 1) keep.push_back(static_cast<int>(c));
      }
      cur = MakeProject(std::move(cur), std::move(keep));
    }
  }

  // The structural join below needs this pipeline sorted on the ID column,
  // so the plan states that sort explicitly. The analyzer proves it
  // redundant from the leaf contract and the order-preservation of
  // select/project, so lowering demotes it to an XVM_CHECK_INVARIANTS-only
  // audit (kSortElided).
  cur = MakeSortBy(std::move(cur), {0});

  for (int c : n.children) {
    if (!Included(subset, c)) continue;
    PlanNodePtr child = BuildPatternSubtreePlan(pattern, c, subset, src);
    Axis axis = pattern.node(c).edge == EdgeKind::kChild ? Axis::kChild
                                                         : Axis::kDescendant;
    cur = MakeStructJoin(std::move(cur), 0, std::move(child), 0, axis);
    // Structural-join output is sorted by the inner column; restore the
    // subtree-root ordering for the next child / the parent join.
    cur = MakeSortBy(std::move(cur), {0});
  }
  return cur;
}

}  // namespace

PlanNodePtr BuildPatternPlan(const TreePattern& pattern,
                             const std::vector<bool>* subset,
                             PlanLeafSourceKind src) {
  XVM_CHECK(!pattern.empty());
  XVM_CHECK(Included(subset, 0));
  PlanNodePtr cur = BuildPatternSubtreePlan(pattern, 0, subset, src);
  return MakeSortBy(std::move(cur),
                    BindingOrder(ComputeBindingLayout(pattern, subset)));
}

PlanNodePtr BuildViewPlan(const TreePattern& pattern) {
  PlanNodePtr bindings =
      BuildPatternPlan(pattern, nullptr, PlanLeafSourceKind::kStore);
  BindingLayout layout = ComputeBindingLayout(pattern, nullptr);
  PlanNodePtr projected = MakeProject(std::move(bindings),
                                      StoredColumnIndices(pattern, layout));
  return MakeDupElim(std::move(projected));
}

PlanNodePtr BuildTermPlan(const TreePattern& pattern,
                          const std::vector<bool>& within,
                          const std::vector<bool>& delta_set,
                          bool r_part_materialized, bool with_region) {
  const size_t k = pattern.size();
  XVM_CHECK(within.size() == k && delta_set.size() == k);

  std::vector<bool> r_part(k, false);
  bool r_empty = true;
  for (size_t i = 0; i < k; ++i) {
    if (within[i] && !delta_set[i]) {
      r_part[i] = true;
      r_empty = false;
    }
  }
  if (r_empty) {
    // The whole (sub-)pattern binds to freshly changed nodes.
    return BuildPatternPlan(pattern, &within, PlanLeafSourceKind::kDelta);
  }

  // t_R: materialized snowcap leaf, or recomputed from store leaves.
  BindingLayout r_layout = ComputeBindingLayout(pattern, &r_part);
  PlanNodePtr cur;
  if (r_part_materialized) {
    // Maintenance keeps a snowcap in its binding order (MaintainSnowcapsInsert
    // merges new rows into place), so the leaf declares that order and the
    // analyzer may elide sorts and prove structural joins from it.
    std::vector<int> det(r_layout.schema.size(), -1);
    std::string name = "snowcap:{";
    for (size_t i = 0; i < k; ++i) {
      const NodeLayout& l = r_layout.per_node[i];
      if (l.id_col < 0) continue;
      if (name.back() != '{') name += ",";
      name += pattern.node(static_cast<int>(i)).name;
      det[static_cast<size_t>(l.id_col)] = l.id_col;
      if (l.val_col >= 0) det[static_cast<size_t>(l.val_col)] = l.id_col;
      if (l.cont_col >= 0) det[static_cast<size_t>(l.cont_col)] = l.id_col;
    }
    name += "}";
    cur = MakeLeaf(PlanLeafKind::kSnowcap, std::move(name), r_layout.schema,
                   BindingOrder(r_layout), std::move(det));
  } else {
    cur = BuildPatternPlan(pattern, &r_part, PlanLeafSourceKind::kStore);
  }
  std::vector<NodeLayout> cur_layout = r_layout.per_node;
  int width = static_cast<int>(r_layout.schema.size());

  // Join the Δ sub-patterns hanging off the snowcap frontier.
  for (size_t c = 0; c < k; ++c) {
    if (!within[c] || !delta_set[c]) continue;
    int parent = pattern.node(static_cast<int>(c)).parent;
    if (parent < 0 || !r_part[static_cast<size_t>(parent)]) continue;
    PlanNodePtr dsub = BuildPatternSubtreePlan(pattern, static_cast<int>(c),
                                               &within,
                                               PlanLeafSourceKind::kDelta);
    std::vector<NodeLayout> sub_layout(k);
    int next_col = 0;
    SubtreeLayout(pattern, within, static_cast<int>(c), &next_col,
                  &sub_layout);

    int pcol = cur_layout[static_cast<size_t>(parent)].id_col;
    XVM_CHECK(pcol >= 0);
    // Order the accumulated relation by the frontier parent column: elided
    // when its order already covers the column (e.g. a snowcap joined at its
    // root), else an adaptive check-then-sort.
    cur = MakeSortBy(std::move(cur), {pcol});
    Axis axis = pattern.node(static_cast<int>(c)).edge == EdgeKind::kChild
                    ? Axis::kChild
                    : Axis::kDescendant;
    cur = MakeStructJoin(std::move(cur), pcol, std::move(dsub), 0, axis);
    for (int s : pattern.Subtree(static_cast<int>(c))) {
      if (!within[static_cast<size_t>(s)]) continue;
      NodeLayout l = sub_layout[static_cast<size_t>(s)];
      if (l.id_col >= 0) l.id_col += width;
      if (l.val_col >= 0) l.val_col += width;
      if (l.cont_col >= 0) l.cont_col += width;
      cur_layout[static_cast<size_t>(s)] = l;
    }
    width += next_col;
  }

  // σ_alive: keep only rows whose R-side bindings survived the deletion.
  if (with_region) {
    PlanPredicate alive;
    alive.kind = PlanPredicate::Kind::kAlive;
    for (size_t i = 0; i < k; ++i) {
      if (r_part[i]) alive.cols.push_back(cur_layout[i].id_col);
    }
    std::vector<PlanPredicate> preds;
    preds.push_back(std::move(alive));
    cur = MakeSelect(std::move(cur), std::move(preds));
  }

  // Reorder columns to the canonical (pre-order) layout of `within`.
  std::vector<int> proj;
  for (int i : pattern.Subtree(0)) {
    if (!within[static_cast<size_t>(i)]) continue;
    const NodeLayout& l = cur_layout[static_cast<size_t>(i)];
    const PatternNode& n = pattern.node(i);
    proj.push_back(l.id_col);
    if (n.store_val) proj.push_back(l.val_col);
    if (n.store_cont) proj.push_back(l.cont_col);
  }
  return MakeProject(std::move(cur), std::move(proj));
}

}  // namespace xvm
