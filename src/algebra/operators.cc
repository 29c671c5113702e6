#include "algebra/operators.h"

#include <algorithm>
#include <unordered_map>

#include "common/status.h"

namespace xvm {

Relation ScanRelation(const StoreIndex& store, LabelId label,
                      const std::string& col_prefix, const ScanAttrs& attrs,
                      const std::vector<size_t>* positions) {
  Relation out;
  out.schema.Add({col_prefix + ".ID", ValueKind::kId});
  if (attrs.val) out.schema.Add({col_prefix + ".val", ValueKind::kString});
  if (attrs.cont) out.schema.Add({col_prefix + ".cont", ValueKind::kString});

  const CanonicalRelation& rel = store.Relation(label);
  const Document& doc = store.doc();
  auto read = [&](NodeHandle h) {
    Tuple t;
    t.emplace_back(doc.node(h).id);
    // store.Val/Cont serve the delta-aware cache (dead nodes — present in
    // the pre-roll-forward relation during delete propagation — bypass it).
    if (attrs.val) t.emplace_back(store.Val(h));
    if (attrs.cont) t.emplace_back(store.Cont(h));
    out.rows.push_back(std::move(t));
  };
  if (positions == nullptr) {
    out.rows.reserve(rel.size());
    for (NodeHandle h : rel.nodes()) read(h);
  } else {
    out.rows.reserve(positions->size());
    for (size_t i : *positions) read(rel.nodes()[i]);
  }
  return out;
}

Relation Project(const Relation& in, const std::vector<int>& cols) {
  Relation out;
  for (int c : cols) {
    XVM_CHECK(c >= 0 && static_cast<size_t>(c) < in.schema.size());
    out.schema.Add(in.schema.col(static_cast<size_t>(c)));
  }
  out.rows.reserve(in.rows.size());
  for (const auto& row : in.rows) {
    Tuple t;
    t.reserve(cols.size());
    for (int c : cols) t.push_back(row[static_cast<size_t>(c)]);
    out.rows.push_back(std::move(t));
  }
  return out;
}

Relation SortBy(Relation in, const std::vector<int>& key_cols) {
  std::stable_sort(in.rows.begin(), in.rows.end(),
                   [&key_cols](const Tuple& a, const Tuple& b) {
                     return RowLess(a, b, key_cols);
                   });
  return in;
}

std::vector<CountedTuple> DupElimWithCounts(const Relation& in) {
  std::unordered_map<std::string, size_t> index;
  std::vector<CountedTuple> out;
  for (const auto& row : in.rows) {
    std::string key = EncodeTuple(row);
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(std::move(key), out.size());
      out.push_back(CountedTuple{row, 1});
    } else {
      ++out[it->second].count;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CountedTuple& a, const CountedTuple& b) {
              return a.tuple < b.tuple;
            });
  return out;
}

Relation StructuralJoin(const Relation& outer, int outer_col,
                        const Relation& inner, int inner_col, Axis axis) {
  Relation out;
  out.schema = Schema::Concat(outer.schema, inner.schema);

  // Stack of groups; each group holds outer tuples sharing one ID. The
  // groups on the stack always form a nested ancestor chain.
  struct Group {
    const DeweyId* id;
    std::vector<const Tuple*> tuples;
  };
  std::vector<Group> stack;
  size_t oi = 0;
  const size_t on = outer.rows.size();

  auto outer_id = [&](size_t i) -> const DeweyId& {
    return outer.rows[i][static_cast<size_t>(outer_col)].id();
  };

  for (const auto& d_row : inner.rows) {
    const DeweyId& d_id = d_row[static_cast<size_t>(inner_col)].id();
    // Push every outer tuple that starts before `d` in document order; any
    // ancestor of `d` necessarily precedes it (pre-order IDs).
    while (oi < on && outer_id(oi) < d_id) {
      const DeweyId& a_id = outer_id(oi);
      if (!stack.empty() && *stack.back().id == a_id) {
        stack.back().tuples.push_back(&outer.rows[oi]);
      } else {
        while (!stack.empty() && !stack.back().id->IsAncestorOf(a_id)) {
          stack.pop_back();
        }
        stack.push_back(Group{&a_id, {&outer.rows[oi]}});
      }
      ++oi;
    }
    // Drop stack entries that are not ancestors of `d`; what survives is the
    // (nested) chain of `d`'s ancestors present in `outer`.
    while (!stack.empty() && !stack.back().id->IsAncestorOf(d_id)) {
      stack.pop_back();
    }
    for (const Group& g : stack) {
      if (axis == Axis::kChild && !g.id->IsParentOf(d_id)) continue;
      for (const Tuple* a_row : g.tuples) {
        Tuple t = *a_row;
        t.insert(t.end(), d_row.begin(), d_row.end());
        out.rows.push_back(std::move(t));
      }
    }
  }
  return out;
}

}  // namespace xvm
