#include "algebra/operators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "xml/parser.h"

namespace xvm {
namespace {

Value Id(std::initializer_list<std::pair<LabelId, int64_t>> steps) {
  std::vector<DeweyStep> s;
  for (const auto& [label, ord] : steps) {
    s.push_back(DeweyStep{label, OrdKey({ord})});
  }
  return Value(DeweyId(std::move(s)));
}

bool SortedByCol(const Relation& rel, int col) {
  return std::is_sorted(rel.rows.begin(), rel.rows.end(),
                        [col](const Tuple& a, const Tuple& b) {
                          return RowLess(a, b, {col});
                        });
}

Relation OneIdCol(const std::string& name, std::vector<Value> ids) {
  Relation r;
  r.schema.Add({name, ValueKind::kId});
  for (auto& v : ids) r.rows.push_back({std::move(v)});
  return r;
}

TEST(ValueTest, OrderingAcrossKinds) {
  EXPECT_LT(Value(), Value(DeweyId::Root(0)));
  EXPECT_LT(Value(DeweyId::Root(0)), Value(std::string("x")));
}

TEST(ValueTest, EncodingDistinguishesValues) {
  EXPECT_NE(EncodeTuple({Value(std::string("ab"))}),
            EncodeTuple({Value(std::string("a")), Value(std::string("b"))}));
  EXPECT_NE(EncodeTuple({Value(DeweyId::Root(1))}),
            EncodeTuple({Value(std::string("\x01"))}));
}

TEST(SchemaTest, IndexOfAndConcat) {
  Schema a({{"x.ID", ValueKind::kId}, {"x.val", ValueKind::kString}});
  Schema b({{"y.ID", ValueKind::kId}});
  EXPECT_EQ(a.IndexOf("x.val"), 1);
  EXPECT_EQ(a.IndexOf("nope"), -1);
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IndexOf("y.ID"), 2);
}

TEST(OperatorsTest, ProjectReordersColumns) {
  Relation r;
  r.schema.Add({"a", ValueKind::kId});
  r.schema.Add({"b", ValueKind::kString});
  r.rows = {{Value(DeweyId::Root(1)), Value(std::string("x"))}};
  Relation out = Project(r, {1, 0});
  EXPECT_EQ(out.schema.col(0).name, "b");
  EXPECT_EQ(out.rows[0][0].str(), "x");
  EXPECT_EQ(out.rows[0][1].id(), DeweyId::Root(1));
}

TEST(OperatorsTest, SortByIdColumnIsDocumentOrder) {
  Relation r = OneIdCol("n.ID", {Id({{1, 0}, {2, 1}}), Id({{1, 0}}),
                                 Id({{1, 0}, {2, 0}, {3, 0}})});
  EXPECT_FALSE(SortedByCol(r, 0));
  Relation sorted = SortBy(std::move(r), {0});
  EXPECT_TRUE(SortedByCol(sorted, 0));
  EXPECT_EQ(sorted.rows[0][0].id().depth(), 1u);
}

TEST(OperatorsTest, DupElimCountsDerivations) {
  Relation r;
  r.schema.Add({"v", ValueKind::kString});
  r.rows = {{Value(std::string("a"))},
            {Value(std::string("b"))},
            {Value(std::string("a"))},
            {Value(std::string("a"))}};
  auto counted = DupElimWithCounts(r);
  ASSERT_EQ(counted.size(), 2u);
  EXPECT_EQ(counted[0].tuple[0].str(), "a");
  EXPECT_EQ(counted[0].count, 3);
  EXPECT_EQ(counted[1].count, 1);
}

// ---- Structural join ----

/// Reference implementation: nested loops with the structural predicate.
Relation NestedLoopStructural(const Relation& outer, int ocol,
                              const Relation& inner, int icol, Axis axis) {
  Relation out;
  out.schema = Schema::Concat(outer.schema, inner.schema);
  for (const auto& d : inner.rows) {
    for (const auto& a : outer.rows) {
      const DeweyId& aid = a[static_cast<size_t>(ocol)].id();
      const DeweyId& did = d[static_cast<size_t>(icol)].id();
      bool match = axis == Axis::kChild ? aid.IsParentOf(did)
                                        : aid.IsAncestorOf(did);
      if (!match) continue;
      Tuple t = a;
      t.insert(t.end(), d.begin(), d.end());
      out.rows.push_back(std::move(t));
    }
  }
  return out;
}

std::multiset<std::string> RowSet(const Relation& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) out.insert(EncodeTuple(row));
  return out;
}

TEST(StructuralJoinTest, SimpleAncestorDescendant) {
  Relation a = OneIdCol("a.ID", {Id({{1, 0}}), Id({{1, 0}, {1, 0}})});
  Relation d = OneIdCol("d.ID", {Id({{1, 0}, {1, 0}, {2, 0}})});
  Relation out = StructuralJoin(a, 0, d, 0, Axis::kDescendant);
  EXPECT_EQ(out.size(), 2u);  // both a's are ancestors of the d node
  Relation out_child = StructuralJoin(a, 0, d, 0, Axis::kChild);
  EXPECT_EQ(out_child.size(), 1u);  // only the deeper a is the parent
}

TEST(StructuralJoinTest, EqualIdsDoNotJoin) {
  Relation a = OneIdCol("a.ID", {Id({{1, 0}})});
  Relation d = OneIdCol("d.ID", {Id({{1, 0}})});
  EXPECT_EQ(StructuralJoin(a, 0, d, 0, Axis::kDescendant).size(), 0u);
}

TEST(StructuralJoinTest, DuplicateOuterIdsAllJoin) {
  // Two outer tuples share one ID (intermediate results do this routinely).
  Relation a;
  a.schema.Add({"a.ID", ValueKind::kId});
  a.schema.Add({"tag", ValueKind::kString});
  a.rows = {{Id({{1, 0}}).id().empty() ? Value() : Value(Id({{1, 0}}).id()),
             Value(std::string("t1"))},
            {Value(Id({{1, 0}}).id()), Value(std::string("t2"))}};
  Relation d = OneIdCol("d.ID", {Value(Id({{1, 0}, {2, 0}}).id())});
  Relation out = StructuralJoin(a, 0, d, 0, Axis::kDescendant);
  EXPECT_EQ(out.size(), 2u);
}

TEST(StructuralJoinTest, OutputSortedByInnerColumn) {
  Relation a = OneIdCol("a.ID", {Id({{1, 0}})});
  Relation d = OneIdCol(
      "d.ID", {Id({{1, 0}, {2, 0}}), Id({{1, 0}, {2, 1}}),
               Id({{1, 0}, {2, 1}, {3, 0}})});
  Relation out = StructuralJoin(a, 0, d, 0, Axis::kDescendant);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(SortedByCol(out, 1));
}

/// Property: stack-based structural join == nested loops on random forests.
class StructuralJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StructuralJoinPropertyTest, MatchesNestedLoops) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Random tree of ~60 nodes with labels 0..2.
  std::vector<DeweyId> nodes = {DeweyId::Root(0)};
  std::vector<int> child_count = {0};
  for (int i = 1; i < 60; ++i) {
    size_t parent = rng.Uniform(nodes.size());
    nodes.push_back(nodes[parent].Child(
        static_cast<LabelId>(rng.Uniform(3)),
        OrdKey({child_count[parent]++})));
    child_count.push_back(0);
  }
  auto rel_for = [&](LabelId l) {
    std::vector<Value> vals;
    for (const auto& id : nodes) {
      if (id.label() == l) vals.push_back(Value(id));
    }
    Relation r = OneIdCol("n.ID", std::move(vals));
    return SortBy(std::move(r), {0});
  };
  for (LabelId la = 0; la < 3; ++la) {
    for (LabelId lb = 0; lb < 3; ++lb) {
      Relation a = rel_for(la), b = rel_for(lb);
      for (Axis axis : {Axis::kDescendant, Axis::kChild}) {
        Relation fast = StructuralJoin(a, 0, b, 0, axis);
        Relation slow = NestedLoopStructural(a, 0, b, 0, axis);
        EXPECT_EQ(RowSet(fast), RowSet(slow))
            << "labels " << la << "," << lb;
        EXPECT_TRUE(SortedByCol(fast, 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralJoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ScanRelationTest, ProducesSortedIdValCont) {
  Document doc;
  ASSERT_TRUE(ParseDocument("<a><b>1</b><c><b>2</b></c></a>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  LabelId b = doc.dict().Lookup("b");
  Relation r = ScanRelation(store, b, "b", ScanAttrs{true, true});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.schema.col(0).name, "b.ID");
  EXPECT_EQ(r.rows[0][1].str(), "1");
  EXPECT_EQ(r.rows[1][2].str(), "<b>2</b>");
  EXPECT_TRUE(SortedByCol(r, 0));
}

}  // namespace
}  // namespace xvm
