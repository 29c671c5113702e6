#include "algebra/exec/physical.h"

#include <utility>

#include "algebra/analyze/analyze.h"
#include "common/status.h"

namespace xvm {

namespace {

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

/// True iff grouping rows adjacent on the sort prefix yields groups in
/// full-tuple order with full-tuple-equal members — the soundness condition
/// of the sorted DupElim kernel. Walking the columns in position order,
/// every column must either be the next sort-prefix column or be determined
/// by an already-consumed one (so ties on the prefix imply full-tuple
/// equality, and the first differing column between two groups is always a
/// prefix column).
bool GroupOrderIsTupleOrder(const PlanFacts& f) {
  const std::vector<int>& sp = f.sort_prefix;
  size_t j = 0;
  for (size_t pos = 0; pos < f.schema.size(); ++pos) {
    if (j < sp.size() && sp[j] == static_cast<int>(pos)) {
      ++j;
      continue;
    }
    const int d = f.determined_by[pos];
    bool ok = false;
    for (size_t p = 0; d >= 0 && p < j && !ok; ++p) ok = sp[p] == d;
    if (!ok) return false;
  }
  return true;
}

std::string ColNames(const Schema& schema, const std::vector<int>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += " ";
    out += schema.col(static_cast<size_t>(cols[i])).name;
  }
  return out + "]";
}

/// Emits kernels bottom-up. Every order/dependency fact comes from the
/// analyzer's per-node facts; lowering only chooses kernels from them and
/// fuses Select/Project into scans.
class Lowerer {
 public:
  explicit Lowerer(const PlanFactsMap& facts) : facts_(facts) {}

  /// Lowers `node`'s subtree; returns the index of its output kernel.
  int Lower(const PlanNode& node) {
    switch (node.op) {
      case PlanOp::kLeaf: return LowerLeaf(node);
      case PlanOp::kSelect: return LowerSelect(node);
      case PlanOp::kProject: return LowerProject(node);
      case PlanOp::kSortBy: return LowerSortBy(node);
      case PlanOp::kDupElim: return LowerDupElim(node);
      case PlanOp::kStructJoin: return LowerStructJoin(node);
    }
    XVM_CHECK(false);  // AnalyzePlan rejects unknown operators
    return -1;
  }

  PhysicalPlan TakePlan() && { return std::move(plan_); }

 private:
  const PlanFacts& Facts(const PlanNode& node) const {
    return facts_.at(&node);
  }

  int Append(PhysNode phys) {
    plan_.nodes.push_back(std::move(phys));
    return static_cast<int>(plan_.nodes.size()) - 1;
  }

  int LowerLeaf(const PlanNode& node) {
    PhysNode phys;
    phys.kernel = node.leaf_kind == PlanLeafKind::kSnowcap
                      ? PhysKernel::kSnowcapScan
                      : PhysKernel::kScan;
    phys.leaf_kind = node.leaf_kind;
    phys.leaf_name = node.leaf_name;
    phys.leaf_schema = node.leaf_schema;
    phys.leaf_sort_prefix = node.leaf_sort_prefix;
    phys.leaf_node = node.leaf_node;
    phys.schema = node.leaf_schema;
    return Append(std::move(phys));
  }

  int LowerSelect(const PlanNode& node) {
    const int in = Lower(*node.inputs[0]);
    // Fuse into a scan that has not projected yet (the predicates then
    // index the unchanged leaf schema).
    PhysNode& child = plan_.nodes[static_cast<size_t>(in)];
    if (child.kernel == PhysKernel::kScan && child.cols.empty()) {
      if (child.predicates.empty()) ++plan_.scans_fused;
      child.predicates.insert(child.predicates.end(), node.predicates.begin(),
                              node.predicates.end());
      return in;
    }
    PhysNode phys;
    phys.kernel = PhysKernel::kSelect;
    phys.inputs = {in};
    phys.predicates = node.predicates;
    phys.schema = Facts(node).schema;
    return Append(std::move(phys));
  }

  int LowerProject(const PlanNode& node) {
    const int in = Lower(*node.inputs[0]);
    PhysNode& child = plan_.nodes[static_cast<size_t>(in)];
    if (child.kernel == PhysKernel::kScan) {
      if (child.cols.empty() && child.predicates.empty()) ++plan_.scans_fused;
      if (child.cols.empty()) {
        child.cols = node.cols;
      } else {
        std::vector<int> composed;
        composed.reserve(node.cols.size());
        for (int c : node.cols) {
          composed.push_back(child.cols[static_cast<size_t>(c)]);
        }
        child.cols = std::move(composed);
      }
      child.schema = Facts(node).schema;
      return in;
    }
    PhysNode phys;
    phys.kernel = PhysKernel::kProject;
    phys.inputs = {in};
    phys.cols = node.cols;
    phys.schema = Facts(node).schema;
    return Append(std::move(phys));
  }

  int LowerSortBy(const PlanNode& node) {
    const int in = Lower(*node.inputs[0]);
    const PlanFacts& in_facts = Facts(*node.inputs[0]);
    PhysNode phys;
    phys.inputs = {in};
    phys.cols = node.cols;
    phys.schema = in_facts.schema;
    if (in_facts.OrderCovers(node.cols)) {
      phys.kernel = PhysKernel::kSortElided;
      phys.note = "elided: input order " +
                  ColNames(in_facts.schema, in_facts.sort_prefix) +
                  " covers the keys";
      ++plan_.sorts_elided_static;
    } else {
      phys.kernel = PhysKernel::kSortAdaptive;
      phys.note = "check-then-sort: input order unproven";
    }
    return Append(std::move(phys));
  }

  int LowerDupElim(const PlanNode& node) {
    const int in = Lower(*node.inputs[0]);
    const PlanFacts& in_facts = Facts(*node.inputs[0]);
    PhysNode phys;
    phys.inputs = {in};
    phys.schema = in_facts.schema;
    if (GroupOrderIsTupleOrder(in_facts)) {
      phys.kernel = PhysKernel::kDupElimSorted;
      phys.note = "sorted input " +
                  ColNames(in_facts.schema, in_facts.sort_prefix) +
                  ": adjacent grouping";
    } else {
      phys.kernel = PhysKernel::kDupElimHash;
      phys.note = "hash grouping: input order does not determine tuple order";
    }
    return Append(std::move(phys));
  }

  /// The analyzer already proved the structural join's input order, so only
  /// parameters are copied.
  int LowerStructJoin(const PlanNode& node) {
    const int l = Lower(*node.inputs[0]);
    const int r = Lower(*node.inputs[1]);
    PhysNode phys;
    phys.kernel = PhysKernel::kStructJoin;
    phys.inputs = {l, r};
    phys.schema = Facts(node).schema;
    phys.outer_col = node.outer_col;
    phys.inner_col = node.inner_col;
    phys.axis = node.axis;
    return Append(std::move(phys));
  }

  const PlanFactsMap& facts_;
  PhysicalPlan plan_;
};

void RenderRec(const PhysicalPlan& plan, int idx, int depth,
               std::string* out) {
  const PhysNode& n = plan.nodes[static_cast<size_t>(idx)];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(n.Describe());
  if (n.kernel == PhysKernel::kScan || n.kernel == PhysKernel::kSnowcapScan) {
    out->append(" :: " + n.leaf_schema.ToString());
  }
  if (!n.note.empty()) out->append("  // " + n.note);
  out->append("\n");
  for (int in : n.inputs) RenderRec(plan, in, depth + 1, out);
}

}  // namespace

const char* PhysKernelName(PhysKernel k) {
  switch (k) {
    case PhysKernel::kScan: return "scan";
    case PhysKernel::kSnowcapScan: return "snowcap_scan";
    case PhysKernel::kSelect: return "select";
    case PhysKernel::kProject: return "project";
    case PhysKernel::kSortElided: return "sort_elided";
    case PhysKernel::kSortAdaptive: return "sort_adaptive";
    case PhysKernel::kDupElimSorted: return "dupelim_sorted";
    case PhysKernel::kDupElimHash: return "dupelim_hash";
    case PhysKernel::kStructJoin: return "sjoin";
  }
  return "?";
}

std::string PhysNode::Describe() const {
  switch (kernel) {
    case PhysKernel::kScan:
    case PhysKernel::kSnowcapScan: {
      std::string out = std::string(PhysKernelName(kernel)) + "(" + leaf_name;
      if (leaf_node >= 0) out += ", node " + std::to_string(leaf_node);
      out += ")";
      for (const PlanPredicate& p : predicates) {
        out += " σ[" + p.ToString() + "]";
      }
      if (!cols.empty()) out += " π[" + JoinInts(cols) + "]";
      return out;
    }
    case PhysKernel::kSelect: {
      std::string out = "select[";
      for (size_t i = 0; i < predicates.size(); ++i) {
        if (i > 0) out += " && ";
        out += predicates[i].ToString();
      }
      return out + "]";
    }
    case PhysKernel::kProject:
      return "project[" + JoinInts(cols) + "]";
    case PhysKernel::kSortElided:
      return "sort-elided[" + JoinInts(cols) + "]";
    case PhysKernel::kSortAdaptive:
      return "sort-adaptive[" + JoinInts(cols) + "]";
    case PhysKernel::kDupElimSorted:
      return "dupelim-sorted";
    case PhysKernel::kDupElimHash:
      return "dupelim-hash";
    case PhysKernel::kStructJoin:
      return std::string("sjoin[") +
             (axis == Axis::kChild ? "child" : "desc") + " outer." +
             std::to_string(outer_col) + " inner." + std::to_string(inner_col) +
             "]";
  }
  return "?";
}

std::string PhysicalPlan::ToString() const {
  std::string out;
  if (!nodes.empty()) RenderRec(*this, root(), 0, &out);
  return out;
}

StatusOr<PhysicalPlan> LowerPlan(const PlanNode& root) {
  PlanFactsMap facts;
  XVM_RETURN_IF_ERROR(AnalyzePlan(root, &facts).status());
  Lowerer lowerer(facts);
  lowerer.Lower(root);
  return std::move(lowerer).TakePlan();
}

}  // namespace xvm
