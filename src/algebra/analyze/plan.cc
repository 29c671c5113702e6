#include "algebra/analyze/plan.h"

#include <utility>

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

}  // namespace

std::string PlanPredicate::ToString() const {
  switch (kind) {
    case Kind::kEqConst:
      return "t[" + std::to_string(a) + "]=\"" + constant + "\"";
    case Kind::kRootAnchor:
      return "root-anchor(t[" + std::to_string(a) + "])";
    case Kind::kAlive:
      return "alive[" + JoinInts(cols) + "]";
  }
  return "?";
}

std::string PlanNode::OpName() const {
  switch (op) {
    case PlanOp::kLeaf:
      switch (leaf_kind) {
        case PlanLeafKind::kStoreScan: return "scan";
        case PlanLeafKind::kDeltaScan: return "dscan";
        case PlanLeafKind::kSnowcap: return "snowcap";
        case PlanLeafKind::kLiteral: return "literal";
      }
      return "leaf";
    case PlanOp::kSelect: return "select";
    case PlanOp::kProject: return "project";
    case PlanOp::kSortBy: return "sort";
    case PlanOp::kDupElim: return "dupelim";
    case PlanOp::kStructJoin: return "sjoin";
  }
  return "?";
}

std::string PlanNode::Describe() const {
  switch (op) {
    case PlanOp::kLeaf:
      return OpName() + "(" + leaf_name + ")";
    case PlanOp::kSelect: {
      std::string out = "select[";
      for (size_t i = 0; i < predicates.size(); ++i) {
        if (i > 0) out += " && ";
        out += predicates[i].ToString();
      }
      return out + "]";
    }
    case PlanOp::kProject:
      return "project[" + JoinInts(cols) + "]";
    case PlanOp::kSortBy:
      return "sort[" + JoinInts(cols) + "]";
    case PlanOp::kDupElim:
      return "dupelim";
    case PlanOp::kStructJoin:
      return std::string("sjoin[") +
             (axis == Axis::kChild ? "child" : "desc") + " outer." +
             std::to_string(outer_col) + " inner." +
             std::to_string(inner_col) + "]";
  }
  return "?";
}

PlanNodePtr MakeLeaf(PlanLeafKind kind, std::string name, Schema schema,
                     std::vector<int> sort_prefix,
                     std::vector<int> determined_by) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kLeaf;
  n->leaf_kind = kind;
  n->leaf_name = std::move(name);
  n->leaf_schema = std::move(schema);
  n->leaf_sort_prefix = std::move(sort_prefix);
  n->leaf_determined_by = std::move(determined_by);
  return n;
}

PlanNodePtr MakeContractLeaf(PlanLeafKind kind, std::string name,
                             Schema schema) {
  std::vector<int> det(schema.size(), 0);
  return MakeLeaf(kind, std::move(name), std::move(schema), {0},
                  std::move(det));
}

PlanNodePtr MakeSelect(PlanNodePtr in, std::vector<PlanPredicate> preds) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kSelect;
  n->inputs.push_back(std::move(in));
  n->predicates = std::move(preds);
  return n;
}

PlanNodePtr MakeProject(PlanNodePtr in, std::vector<int> cols) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kProject;
  n->inputs.push_back(std::move(in));
  n->cols = std::move(cols);
  return n;
}

PlanNodePtr MakeSortBy(PlanNodePtr in, std::vector<int> keys) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kSortBy;
  n->inputs.push_back(std::move(in));
  n->cols = std::move(keys);
  return n;
}

PlanNodePtr MakeDupElim(PlanNodePtr in) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kDupElim;
  n->inputs.push_back(std::move(in));
  return n;
}

PlanNodePtr MakeStructJoin(PlanNodePtr outer, int outer_col, PlanNodePtr inner,
                           int inner_col, Axis axis) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kStructJoin;
  n->inputs.push_back(std::move(outer));
  n->inputs.push_back(std::move(inner));
  n->outer_col = outer_col;
  n->inner_col = inner_col;
  n->axis = axis;
  return n;
}

namespace {

void RenderRec(const PlanNode& node, int depth, int max_depth,
               std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (max_depth >= 0 && depth > max_depth) {
    out->append("...\n");
    return;
  }
  out->append(node.Describe());
  if (node.op == PlanOp::kLeaf) {
    out->append(" :: " + node.leaf_schema.ToString());
  }
  out->append("\n");
  for (const auto& in : node.inputs) {
    RenderRec(*in, depth + 1, max_depth, out);
  }
}

}  // namespace

std::string PlanToString(const PlanNode& root, int max_depth) {
  std::string out;
  RenderRec(root, 0, max_depth, &out);
  return out;
}

}  // namespace xvm
