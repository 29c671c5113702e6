#include "algebra/analyze/analyze.h"

#include <algorithm>
#include <utility>

namespace xvm {

bool PlanFacts::OrderCovers(const std::vector<int>& keys) const {
  size_t j = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (j < sort_prefix.size() && sort_prefix[j] == keys[i]) {
      ++j;
      continue;
    }
    const int d = determined_by[static_cast<size_t>(keys[i])];
    bool tied = false;
    for (size_t p = 0; d >= 0 && p < i && !tied; ++p) tied = keys[p] == d;
    if (!tied) return false;
  }
  return true;
}

bool PlanFacts::HasKeyWithin(const std::vector<int>& cols) const {
  for (const auto& key : keys) {
    bool inside = true;
    for (int c : key) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        inside = false;
        break;
      }
    }
    if (inside) return true;
  }
  return false;
}

std::string PlanFacts::ToString() const {
  auto col_name = [this](int c) {
    return c >= 0 && static_cast<size_t>(c) < schema.size()
               ? schema.col(static_cast<size_t>(c)).name
               : "#" + std::to_string(c);
  };
  std::string out = "order: [";
  for (size_t i = 0; i < sort_prefix.size(); ++i) {
    if (i > 0) out += " ";
    out += col_name(sort_prefix[i]);
  }
  out += "]; keys:";
  if (keys.empty()) out += " none";
  for (const auto& key : keys) {
    out += " {";
    for (size_t i = 0; i < key.size(); ++i) {
      if (i > 0) out += ",";
      out += col_name(key[i]);
    }
    out += "}";
  }
  out += duplicate_free ? "; duplicate-free" : "; may have duplicates";
  return out;
}

namespace {

constexpr size_t kMaxKeys = 4;

const char* KindName(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return "null";
    case ValueKind::kId: return "id";
    case ValueKind::kString: return "str";
  }
  return "?";
}

/// Keeps the key list small and canonical: sorted sets, no supersets of an
/// existing key, smallest keys first.
void AddKey(std::vector<int> key, PlanFacts* facts) {
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  for (const auto& have : facts->keys) {
    if (std::includes(key.begin(), key.end(), have.begin(), have.end())) {
      return;  // an existing key already covers this one
    }
  }
  // The new key supersedes any existing superset of it.
  std::erase_if(facts->keys, [&](const std::vector<int>& have) {
    return std::includes(have.begin(), have.end(), key.begin(), key.end());
  });
  facts->keys.push_back(std::move(key));
  std::sort(facts->keys.begin(), facts->keys.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  if (facts->keys.size() > kMaxKeys) facts->keys.resize(kMaxKeys);
}

class Analyzer {
 public:
  explicit Analyzer(PlanFactsMap* per_node) : per_node_(per_node) {}

  StatusOr<PlanFacts> AnalyzeRoot(const PlanNode& root) {
    return Analyze(root, root.OpName());
  }

 private:
  /// `path` is the operator path from the root down to `node`, e.g.
  /// "dupelim/project/sort/sjoin[inner]/select".
  StatusOr<PlanFacts> Analyze(const PlanNode& node, const std::string& path) {
    XVM_ASSIGN_OR_RETURN(PlanFacts facts, AnalyzeOp(node, path));
    if (per_node_ != nullptr) (*per_node_)[&node] = facts;
    return facts;
  }

  StatusOr<PlanFacts> AnalyzeOp(const PlanNode& node,
                                const std::string& path) {
    switch (node.op) {
      case PlanOp::kLeaf: return AnalyzeLeaf(node, path);
      case PlanOp::kSelect: return AnalyzeSelect(node, path);
      case PlanOp::kProject: return AnalyzeProject(node, path);
      case PlanOp::kSortBy: return AnalyzeSortBy(node, path);
      case PlanOp::kDupElim: return AnalyzeDupElim(node, path);
      case PlanOp::kStructJoin: return AnalyzeStructJoin(node, path);
    }
    return Error(node, path, "unknown operator");
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

  StatusOr<PlanFacts> Child(const PlanNode& node, const std::string& path,
                            size_t idx, const std::string& tag) {
    return Analyze(*node.inputs[idx],
                   path + "/" + (tag.empty() ? node.inputs[idx]->OpName()
                                             : tag));
  }

  Status Error(const PlanNode& node, const std::string& path,
               const std::string& msg) {
    return Status::InvalidArgument(
        "plan analysis: " + msg + "\n  at operator path: " + path +
        "\n  offending operator:\n" + PlanToString(node, 2));
  }

  Status CheckCol(const PlanNode& node, const std::string& path,
                  const PlanFacts& in, int col, const char* what) {
    if (col < 0 || static_cast<size_t>(col) >= in.schema.size()) {
      return Error(node, path,
                   std::string(what) + " column reference " +
                       std::to_string(col) + " out of range (input has " +
                       std::to_string(in.schema.size()) + " columns)");
    }
    return Status::Ok();
  }

  Status CheckIdCol(const PlanNode& node, const std::string& path,
                    const PlanFacts& in, int col, const char* what) {
    XVM_RETURN_IF_ERROR(CheckCol(node, path, in, col, what));
    ValueKind k = in.schema.col(static_cast<size_t>(col)).kind;
    if (k != ValueKind::kId) {
      return Error(node, path,
                   std::string(what) + " requires an ID column, but column " +
                       std::to_string(col) + " ('" +
                       in.schema.col(static_cast<size_t>(col)).name +
                       "') has kind " + KindName(k));
    }
    return Status::Ok();
  }

  StatusOr<PlanFacts> AnalyzeLeaf(const PlanNode& node,
                                  const std::string& path) {
    if (!node.inputs.empty()) {
      return Error(node, path, "leaf operator must have no inputs");
    }
    PlanFacts facts;
    facts.schema = node.leaf_schema;
    if (facts.schema.empty()) {
      // No compiler-emitted leaf is arity-0: canonical relations carry at
      // least the node ID, Δ tables mirror them, literals bind a column.
      // An empty schema upstream would make every derived fact vacuous.
      return Error(node, path, "leaf has empty schema");
    }
    if (node.leaf_determined_by.size() != facts.schema.size() &&
        !node.leaf_determined_by.empty()) {
      return Error(node, path,
                   "leaf dependency contract has " +
                       std::to_string(node.leaf_determined_by.size()) +
                       " entries for " + std::to_string(facts.schema.size()) +
                       " columns");
    }
    facts.determined_by = node.leaf_determined_by;
    if (facts.determined_by.empty()) {
      facts.determined_by.assign(facts.schema.size(), -1);
    }
    for (size_t c = 0; c < facts.determined_by.size(); ++c) {
      int d = facts.determined_by[c];
      if (d < 0) continue;
      XVM_RETURN_IF_ERROR(
          CheckIdCol(node, path, facts, d, "leaf dependency contract"));
      (void)c;
    }
    for (int c : node.leaf_sort_prefix) {
      XVM_RETURN_IF_ERROR(CheckCol(node, path, facts, c, "leaf sort contract"));
    }
    facts.sort_prefix = node.leaf_sort_prefix;
    // If the generator columns (self-determined IDs) determine every column,
    // the leaf's rows are unique on them: that is the contract of canonical
    // relations (one row per node), Δ tables and materialized bindings.
    std::vector<int> generators;
    bool all_determined = !facts.schema.empty();
    for (size_t c = 0; c < facts.schema.size(); ++c) {
      int d = facts.determined_by[c];
      if (d == static_cast<int>(c)) generators.push_back(static_cast<int>(c));
      if (d < 0) all_determined = false;
    }
    if (all_determined && !generators.empty()) {
      AddKey(generators, &facts);
      facts.duplicate_free = true;
    }
    return facts;
  }

  StatusOr<PlanFacts> AnalyzeSelect(const PlanNode& node,
                                    const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(PlanFacts in, Child(node, path, 0, ""));
    for (const PlanPredicate& p : node.predicates) {
      switch (p.kind) {
        case PlanPredicate::Kind::kEqConst: {
          XVM_RETURN_IF_ERROR(
              CheckCol(node, path, in, p.a, "value predicate"));
          ValueKind k = in.schema.col(static_cast<size_t>(p.a)).kind;
          if (k != ValueKind::kString) {
            return Error(node, path,
                         "attribute-kind misuse: value comparison " +
                             p.ToString() + " applied to column '" +
                             in.schema.col(static_cast<size_t>(p.a)).name +
                             "' of kind " + KindName(k) +
                             " (constants compare against val/cont payloads "
                             "only)");
          }
          break;
        }
        case PlanPredicate::Kind::kRootAnchor:
          XVM_RETURN_IF_ERROR(
              CheckIdCol(node, path, in, p.a, "root anchor"));
          break;
        case PlanPredicate::Kind::kAlive:
          for (int c : p.cols) {
            XVM_RETURN_IF_ERROR(
                CheckIdCol(node, path, in, c, "liveness filter"));
          }
          break;
      }
    }
    return in;  // selection preserves order, keys and dependencies
  }

  StatusOr<PlanFacts> AnalyzeProject(const PlanNode& node,
                                     const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(PlanFacts in, Child(node, path, 0, ""));
    PlanFacts out;
    // First output position of each retained input column.
    std::vector<int> first_pos(in.schema.size(), -1);
    for (int c : node.cols) {
      XVM_RETURN_IF_ERROR(CheckCol(node, path, in, c, "projection"));
      if (first_pos[static_cast<size_t>(c)] < 0) {
        first_pos[static_cast<size_t>(c)] =
            static_cast<int>(out.schema.size());
      }
      out.schema.Add(in.schema.col(static_cast<size_t>(c)));
    }
    // Dependencies: survive when the determinant is retained.
    out.determined_by.assign(out.schema.size(), -1);
    for (size_t j = 0; j < node.cols.size(); ++j) {
      int c = node.cols[j];
      int d = in.determined_by[static_cast<size_t>(c)];
      if (d < 0) continue;
      if (d == c) {
        out.determined_by[j] = static_cast<int>(j);
      } else if (first_pos[static_cast<size_t>(d)] >= 0) {
        out.determined_by[j] = first_pos[static_cast<size_t>(d)];
      }
    }
    // Order: the longest fully-retained prefix of the input order.
    for (int c : in.sort_prefix) {
      int p = first_pos[static_cast<size_t>(c)];
      if (p < 0) break;
      out.sort_prefix.push_back(p);
    }
    // Keys: survive when fully retained. Retaining a key keeps projected
    // rows pairwise distinct, so duplicate-freeness survives with it.
    for (const auto& key : in.keys) {
      std::vector<int> mapped;
      bool kept = true;
      for (int c : key) {
        int p = first_pos[static_cast<size_t>(c)];
        if (p < 0) {
          kept = false;
          break;
        }
        mapped.push_back(p);
      }
      if (kept) AddKey(std::move(mapped), &out);
    }
    out.duplicate_free = !out.keys.empty();
    return out;
  }

  StatusOr<PlanFacts> AnalyzeSortBy(const PlanNode& node,
                                    const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(PlanFacts out, Child(node, path, 0, ""));
    for (int c : node.cols) {
      XVM_RETURN_IF_ERROR(CheckCol(node, path, out, c, "sort key"));
    }
    // An input order that already covers the keys is kept: it is at least
    // as strong, and the sort leaves such input untouched.
    if (!out.OrderCovers(node.cols)) out.sort_prefix = node.cols;
    return out;
  }

  StatusOr<PlanFacts> AnalyzeDupElim(const PlanNode& node,
                                     const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 1));
    XVM_ASSIGN_OR_RETURN(PlanFacts out, Child(node, path, 0, ""));
    // Output is sorted by the full tuple and unique on it.
    out.sort_prefix.clear();
    std::vector<int> all;
    for (size_t c = 0; c < out.schema.size(); ++c) {
      out.sort_prefix.push_back(static_cast<int>(c));
      all.push_back(static_cast<int>(c));
    }
    AddKey(std::move(all), &out);
    // Dependency reduction: if the self-determined ID columns determine
    // every column, distinct tuples differ on them — they key the output.
    // This is how the stored ID columns are proven to key the view.
    std::vector<int> generators;
    bool all_determined = !out.schema.empty();
    for (size_t c = 0; c < out.schema.size(); ++c) {
      int d = out.determined_by[c];
      if (d == static_cast<int>(c)) generators.push_back(static_cast<int>(c));
      if (d < 0) all_determined = false;
    }
    if (all_determined && !generators.empty()) AddKey(generators, &out);
    out.duplicate_free = true;
    return out;
  }

  /// Concatenation bookkeeping of a join: schemas, dependencies and keys
  /// carry over (inner columns shifted past the outer ones).
  static void ConcatFacts(const PlanFacts& l, const PlanFacts& r,
                          PlanFacts* out) {
    out->schema = Schema::Concat(l.schema, r.schema);
    const int lw = static_cast<int>(l.schema.size());
    out->determined_by = l.determined_by;
    for (int d : r.determined_by) {
      out->determined_by.push_back(d < 0 ? -1 : d + lw);
    }
    for (const auto& kl : l.keys) {
      for (const auto& kr : r.keys) {
        std::vector<int> key = kl;
        for (int c : kr) key.push_back(c + lw);
        AddKey(std::move(key), out);
      }
    }
    out->duplicate_free = l.duplicate_free && r.duplicate_free;
  }

  StatusOr<PlanFacts> AnalyzeStructJoin(const PlanNode& node,
                                        const std::string& path) {
    XVM_RETURN_IF_ERROR(CheckArity(node, path, 2));
    XVM_ASSIGN_OR_RETURN(PlanFacts outer, Child(node, path, 0,
                                                "sjoin[outer]"));
    XVM_ASSIGN_OR_RETURN(PlanFacts inner, Child(node, path, 1,
                                                "sjoin[inner]"));
    XVM_RETURN_IF_ERROR(
        CheckIdCol(node, path, outer, node.outer_col, "structural join"));
    XVM_RETURN_IF_ERROR(
        CheckIdCol(node, path, inner, node.inner_col, "structural join"));
    // The stack-based merge silently mis-evaluates on unsorted input: prove
    // document order on both sides or reject the plan.
    if (!outer.SortedBy(node.outer_col)) {
      return Error(node, path,
                   "sort-order precondition violated: structural join "
                   "requires its outer input sorted by column " +
                       std::to_string(node.outer_col) + " ('" +
                       outer.schema.col(static_cast<size_t>(node.outer_col))
                           .name +
                       "'), but the provable outer facts are: " +
                       outer.ToString());
    }
    if (!inner.SortedBy(node.inner_col)) {
      return Error(node, path,
                   "sort-order precondition violated: structural join "
                   "requires its inner input sorted by column " +
                       std::to_string(node.inner_col) + " ('" +
                       inner.schema.col(static_cast<size_t>(node.inner_col))
                           .name +
                       "'), but the provable inner facts are: " +
                       inner.ToString());
    }
    PlanFacts out;
    ConcatFacts(outer, inner, &out);
    // Output rows are emitted per inner row, in inner order.
    out.sort_prefix = {node.inner_col +
                       static_cast<int>(outer.schema.size())};
    return out;
  }

  PlanFactsMap* per_node_;
};

}  // namespace

StatusOr<PlanFacts> AnalyzePlan(const PlanNode& root,
                                PlanFactsMap* per_node) {
  return Analyzer(per_node).AnalyzeRoot(root);
}

}  // namespace xvm
