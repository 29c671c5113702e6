#include "pattern/compile.h"

#include <algorithm>
#include <iostream>
#include <utility>

#include "algebra/analyze/build_plan.h"
#include "algebra/exec/exec.h"
#include "algebra/exec/physical.h"
#include "common/status.h"

namespace xvm {

namespace {

bool Included(const std::vector<bool>* subset, int i) {
  return subset == nullptr || (*subset)[static_cast<size_t>(i)];
}

void LayoutRec(const TreePattern& pattern, const std::vector<bool>* subset,
               int i, BindingLayout* out) {
  if (!Included(subset, i)) return;
  const PatternNode& n = pattern.node(i);
  NodeLayout& l = out->per_node[static_cast<size_t>(i)];
  l.id_col = static_cast<int>(out->schema.Add({n.name + ".ID", ValueKind::kId}));
  if (n.store_val) {
    l.val_col =
        static_cast<int>(out->schema.Add({n.name + ".val", ValueKind::kString}));
  }
  if (n.store_cont) {
    l.cont_col = static_cast<int>(
        out->schema.Add({n.name + ".cont", ValueKind::kString}));
  }
  for (int c : n.children) LayoutRec(pattern, subset, c, out);
}

}  // namespace

BindingLayout ComputeBindingLayout(const TreePattern& pattern,
                                   const std::vector<bool>* subset) {
  BindingLayout out;
  out.per_node.resize(pattern.size());
  if (!pattern.empty() && Included(subset, 0)) {
    LayoutRec(pattern, subset, 0, &out);
  }
  return out;
}

std::vector<int> BindingOrder(const BindingLayout& layout) {
  std::vector<int> order;
  for (const NodeLayout& l : layout.per_node) {
    if (l.id_col >= 0) order.push_back(l.id_col);
  }
  return order;
}

Schema LeafSchema(const PatternNode& n) {
  Schema schema;
  schema.Add({n.name + ".ID", ValueKind::kId});
  if (n.store_val || n.val_pred.has_value()) {
    schema.Add({n.name + ".val", ValueKind::kString});
  }
  if (n.store_cont) schema.Add({n.name + ".cont", ValueKind::kString});
  return schema;
}

Relation ScanLeaf(const StoreIndex& store, const PatternNode& n,
                  const std::vector<size_t>* positions) {
  LabelId label = store.doc().dict().Lookup(n.label);
  if (label == kInvalidLabel) {
    // Label never seen in this document: empty relation, correct schema.
    Relation empty;
    empty.schema = LeafSchema(n);
    return empty;
  }
  ScanAttrs attrs;
  attrs.val = n.store_val || n.val_pred.has_value();
  attrs.cont = n.store_cont;
  return ScanRelation(store, label, n.name, attrs, positions);
}

LeafSource StoreLeafSource(const StoreIndex* store,
                           const TreePattern* pattern) {
  return [store, pattern](int node_idx) -> Relation {
    return ScanLeaf(*store, pattern->node(node_idx));
  };
}

namespace {

/// Lowers a compiler-built plan. A failure here means the pattern builders
/// emitted a plan the analyzer rejects — a programming error, not an input
/// error, so it aborts with the analyzer's diagnostic.
PhysicalPlan LowerOrDie(const PlanNode& plan) {
  StatusOr<PhysicalPlan> phys = LowerPlan(plan);
  if (!phys.ok()) {
    std::cerr << "pattern plan failed to lower: " << phys.status().ToString()
              << "\n";
  }
  XVM_CHECK(phys.ok());
  return std::move(*phys);
}

/// Every leaf resolved through `leaf_source` (pattern plans are built with
/// store leaves only; the caller's source decides what they actually read).
PhysExecContext LeafContext(const LeafSource& leaf_source) {
  PhysExecContext ctx;
  ctx.store_leaf = leaf_source;
  return ctx;
}

}  // namespace

Relation EvalTreePattern(const TreePattern& pattern,
                         const LeafSource& leaf_source,
                         const std::vector<bool>* subset) {
  XVM_CHECK(!pattern.empty());
  XVM_CHECK(Included(subset, 0));
  PlanNodePtr plan =
      BuildPatternPlan(pattern, subset, PlanLeafSourceKind::kStore);
  return RunPatternPlan(LowerOrDie(*plan), leaf_source);
}

Relation RunPatternPlan(const PhysicalPlan& plan,
                        const LeafSource& leaf_source) {
  StatusOr<Relation> out = ExecutePhysicalPlan(plan, LeafContext(leaf_source));
  XVM_CHECK(out.ok());
  return std::move(*out);
}

std::vector<int> StoredColumnIndices(const TreePattern& pattern,
                                     const BindingLayout& layout) {
  std::vector<int> cols;
  for (int i : pattern.Subtree(0)) {
    const PatternNode& n = pattern.node(i);
    const NodeLayout& l = layout.per_node[static_cast<size_t>(i)];
    if (l.id_col < 0) continue;  // excluded from subset
    if (n.store_id) cols.push_back(l.id_col);
    if (n.store_val) cols.push_back(l.val_col);
    if (n.store_cont) cols.push_back(l.cont_col);
  }
  return cols;
}

std::vector<CountedTuple> EvalViewWithCounts(const TreePattern& pattern,
                                             const LeafSource& leaf_source) {
  return RunViewPlan(LowerOrDie(*BuildViewPlan(pattern)), leaf_source);
}

std::vector<CountedTuple> RunViewPlan(const PhysicalPlan& plan,
                                      const LeafSource& leaf_source) {
  StatusOr<std::vector<CountedTuple>> out =
      ExecutePhysicalPlanWithCounts(plan, LeafContext(leaf_source));
  XVM_CHECK(out.ok());
  return std::move(*out);
}

Schema ViewTupleSchema(const TreePattern& pattern) {
  BindingLayout layout = ComputeBindingLayout(pattern, nullptr);
  Relation dummy;
  dummy.schema = layout.schema;
  Relation projected =
      Project(dummy, StoredColumnIndices(pattern, layout));
  return projected.schema;
}

}  // namespace xvm
