#include "algebra/analyze/symexec.h"

#include <algorithm>
#include <string>
#include <utility>

namespace xvm {

namespace {

const char* KindName(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return "null";
    case ValueKind::kId: return "id";
    case ValueKind::kString: return "str";
  }
  return "?";
}

/// True iff `rows` is lexicographically non-decreasing on `keys`.
bool SortedByKeys(const std::vector<Tuple>& rows, const std::vector<int>& keys) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (int c : keys) {
      auto cmp = rows[i - 1][static_cast<size_t>(c)] <=>
                 rows[i][static_cast<size_t>(c)];
      if (cmp == std::strong_ordering::less) break;
      if (cmp == std::strong_ordering::greater) return false;
    }
  }
  return true;
}

class Executor {
 public:
  explicit Executor(const ExecContext& ctx) : ctx_(ctx) {}

  StatusOr<Relation> Evaluate(const PlanNode& root) {
    return Exec(root, root.OpName());
  }

 private:
  StatusOr<Relation> Exec(const PlanNode& node, const std::string& path) {
    switch (node.op) {
      case PlanOp::kLeaf: return ExecLeaf(node, path);
      case PlanOp::kSelect: return ExecSelect(node, path);
      case PlanOp::kProject: return ExecProject(node, path);
      case PlanOp::kSortBy: return ExecSortBy(node, path);
      case PlanOp::kDupElim: return ExecDupElim(node, path);
      case PlanOp::kStructJoin: return ExecStructJoin(node, path);
    }
    return Error(node, path, "unknown operator");
  }

  StatusOr<Relation> Child(const PlanNode& node, const std::string& path,
                           size_t idx, const std::string& tag) {
    return Exec(*node.inputs[idx],
                path + "/" +
                    (tag.empty() ? node.inputs[idx]->OpName() : tag));
  }

  Status Error(const PlanNode& node, const std::string& path,
               const std::string& msg) {
    return Status::InvalidArgument(
        "symbolic execution: " + msg + "\n  at operator path: " + path +
        "\n  offending operator:\n" + PlanToString(node, 2));
  }

  Status CheckArity(const PlanNode& node, const std::string& path,
                    size_t arity) {
    if (node.inputs.size() != arity) {
      return Error(node, path,
                   "operator arity mismatch: expected " +
                       std::to_string(arity) + " input(s), plan has " +
                       std::to_string(node.inputs.size()));
    }
    return Status::Ok();
  }

  Status CheckCol(const PlanNode& node, const std::string& path,
                  const Relation& in, int col, const char* what) {
    if (col < 0 || static_cast<size_t>(col) >= in.schema.size()) {
      return Error(node, path,
                   std::string(what) + " column reference " +
                       std::to_string(col) + " out of range (input has " +
                       std::to_string(in.schema.size()) + " columns)");
    }
    return Status::Ok();
  }

  Status CheckKind(const PlanNode& node, const std::string& path,
                   const Relation& in, int col, ValueKind want,
                   const char* what) {
    XVM_RETURN_IF_ERROR(CheckCol(node, path, in, col, what));
    ValueKind k = in.schema.col(static_cast<size_t>(col)).kind;
    if (k != want) {
      return Error(node, path,
                   std::string(what) + " requires a " +
                       std::string(KindName(want)) + " column, but column " +
                       std::to_string(col) + " ('" +
                       in.schema.col(static_cast<size_t>(col)).name +
                       "') has kind " + KindName(k));
    }
    return Status::Ok();
  }

  StatusOr<Relation> ExecLeaf(const PlanNode& node, const std::string& path) {
    if (!node.inputs.empty()) {
      return Error(node, path, "leaf operator must have no inputs");
    }
    if (!ctx_.resolve_leaf) {
      return Error(node, path, "execution context has no leaf resolver");
    }
    StatusOr<Relation> rel = ctx_.resolve_leaf(node);
    if (!rel.ok()) {
      return Error(node, path,
                   "leaf '" + node.leaf_name +
                       "' failed to resolve: " + rel.status().message());
    }
    if (ctx_.verify_leaf_contracts) {
      if (!(rel->schema == node.leaf_schema)) {
        return Error(node, path,
                     "leaf contract violated: resolver produced schema " +
                         rel->schema.ToString() + " for leaf '" +
                         node.leaf_name + "' declaring " +
                         node.leaf_schema.ToString());
      }
      for (int c : node.leaf_sort_prefix) {
        XVM_RETURN_IF_ERROR(CheckCol(node, path, *rel, c,
                                     "leaf sort contract"));
      }
      if (!SortedByKeys(rel->rows, node.leaf_sort_prefix)) {
        return Error(node, path,
                     "leaf contract violated: rows of leaf '" +
                         node.leaf_name +
                         "' are not sorted by the declared sort prefix");
      }
    }
    return rel;
  }

  StatusOr<Relation> ExecSelect(const PlanNode& node,
                                const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(Relation in, Child(node, path, 0, ""));
    for (const PlanPredicate& p : node.predicates) {
      switch (p.kind) {
        case PlanPredicate::Kind::kEqConst:
          XVM_RETURN_IF_ERROR(CheckKind(node, path, in, p.a,
                                        ValueKind::kString,
                                        "value predicate"));
          break;
        case PlanPredicate::Kind::kRootAnchor:
          XVM_RETURN_IF_ERROR(CheckKind(node, path, in, p.a, ValueKind::kId,
                                        "root anchor"));
          break;
        case PlanPredicate::Kind::kAlive:
          for (int c : p.cols) {
            XVM_RETURN_IF_ERROR(CheckKind(node, path, in, c, ValueKind::kId,
                                          "liveness filter"));
          }
          break;
      }
    }
    Relation out;
    out.schema = in.schema;
    for (auto& row : in.rows) {
      bool keep = true;
      for (const PlanPredicate& p : node.predicates) {
        if (!EvalPredicate(p, row)) {
          keep = false;
          break;
        }
      }
      if (keep) out.rows.push_back(std::move(row));
    }
    return out;
  }

  bool EvalPredicate(const PlanPredicate& p, const Tuple& row) const {
    switch (p.kind) {
      case PlanPredicate::Kind::kEqConst:
        return row[static_cast<size_t>(p.a)].str() == p.constant;
      case PlanPredicate::Kind::kRootAnchor:
        return row[static_cast<size_t>(p.a)].id().depth() == 1;
      case PlanPredicate::Kind::kAlive:
        if (!ctx_.deleted) return true;
        for (int c : p.cols) {
          if (ctx_.deleted(row[static_cast<size_t>(c)].id())) return false;
        }
        return true;
    }
    return false;
  }

  StatusOr<Relation> ExecProject(const PlanNode& node,
                                 const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(Relation in, Child(node, path, 0, ""));
    Relation out;
    for (int c : node.cols) {
      XVM_RETURN_IF_ERROR(CheckCol(node, path, in, c, "projection"));
      out.schema.Add(in.schema.col(static_cast<size_t>(c)));
    }
    out.rows.reserve(in.rows.size());
    for (const auto& row : in.rows) {
      Tuple t;
      t.reserve(node.cols.size());
      for (int c : node.cols) t.push_back(row[static_cast<size_t>(c)]);
      out.rows.push_back(std::move(t));
    }
    return out;
  }

  StatusOr<Relation> ExecSortBy(const PlanNode& node,
                                const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(Relation in, Child(node, path, 0, ""));
    for (int c : node.cols) {
      XVM_RETURN_IF_ERROR(CheckCol(node, path, in, c, "sort key"));
    }
    // Stable, like operators.cc SortBy — equal-key rows keep their input
    // order, so a plan-level unconditional sort and the evaluator's
    // conditional re-sort produce identical sequences.
    std::stable_sort(in.rows.begin(), in.rows.end(),
                     [&node](const Tuple& a, const Tuple& b) {
                       for (int c : node.cols) {
                         auto cmp = a[static_cast<size_t>(c)] <=>
                                    b[static_cast<size_t>(c)];
                         if (cmp != std::strong_ordering::equal) {
                           return cmp == std::strong_ordering::less;
                         }
                       }
                       return false;
                     });
    return in;
  }

  StatusOr<Relation> ExecDupElim(const PlanNode& node,
                                 const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(Relation in, Child(node, path, 0, ""));
    // Distinct rows sorted by full tuple — DupElimWithCounts minus the
    // counts (ExecutePlanWithCounts recovers them at the root).
    Relation out;
    out.schema = in.schema;
    std::sort(in.rows.begin(), in.rows.end());
    for (auto& row : in.rows) {
      if (out.rows.empty() || !(out.rows.back() == row)) {
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  StatusOr<Relation> ExecStructJoin(const PlanNode& node,
                                    const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 2));
    XVM_ASSIGN_OR_RETURN(Relation outer, Child(node, path, 0,
                                               "sjoin[outer]"));
    XVM_ASSIGN_OR_RETURN(Relation inner, Child(node, path, 1,
                                               "sjoin[inner]"));
    XVM_RETURN_IF_ERROR(CheckKind(node, path, outer, node.outer_col,
                                  ValueKind::kId, "structural join"));
    XVM_RETURN_IF_ERROR(CheckKind(node, path, inner, node.inner_col,
                                  ValueKind::kId, "structural join"));
    Relation out;
    out.schema = Schema::Concat(outer.schema, inner.schema);
    // Nested loop: per inner row (in order), every outer row in scan order
    // that is an ancestor (or parent). When the outer input is sorted by the
    // join column — which the analyzer proves for every accepted plan — the
    // stack-based merge emits the identical sequence: the surviving stack is
    // the ancestor chain of the inner ID in document order, which for sorted
    // input equals scan order, and equal-ID outer rows are grouped adjacently
    // in push (= scan) order.
    for (const auto& d : inner.rows) {
      const DeweyId& d_id = d[static_cast<size_t>(node.inner_col)].id();
      for (const auto& a : outer.rows) {
        const DeweyId& a_id = a[static_cast<size_t>(node.outer_col)].id();
        bool hit = node.axis == Axis::kChild ? a_id.IsParentOf(d_id)
                                             : a_id.IsAncestorOf(d_id);
        if (!hit) continue;
        Tuple t = a;
        t.insert(t.end(), d.begin(), d.end());
        out.rows.push_back(std::move(t));
      }
    }
    return out;
  }

  const ExecContext& ctx_;
};

}  // namespace

StatusOr<Relation> ExecutePlan(const PlanNode& root, const ExecContext& ctx) {
  return Executor(ctx).Evaluate(root);
}

StatusOr<std::vector<CountedTuple>> ExecutePlanWithCounts(
    const PlanNode& root, const ExecContext& ctx) {
  if (root.op != PlanOp::kDupElim || root.inputs.size() != 1) {
    return Status::InvalidArgument(
        "symbolic execution: counted execution requires a dupelim root "
        "(the derivation-count grouping), plan root is '" +
        root.OpName() + "'");
  }
  XVM_ASSIGN_OR_RETURN(Relation in, Executor(ctx).Evaluate(*root.inputs[0]));
  return DupElimWithCounts(in);
}

}  // namespace xvm
