#include "view/view_store.h"

#include <gtest/gtest.h>

namespace xvm {
namespace {

Schema TwoColSchema() {
  return Schema({{"a.ID", ValueKind::kId}, {"a.val", ValueKind::kString}});
}

Tuple MakeTuple(int64_t ord, const std::string& val) {
  return {Value(DeweyId::Root(0).Child(1, OrdKey({ord}))), Value(val)};
}

TEST(MaterializedViewTest, AddAndCount) {
  MaterializedView v(TwoColSchema());
  v.AddDerivations(MakeTuple(0, "x"), 1);
  v.AddDerivations(MakeTuple(0, "x"), 2);
  v.AddDerivations(MakeTuple(1, "y"), 1);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.total_derivations(), 4);
  EXPECT_EQ(v.CountOf(MakeTuple(0, "x")), 3);
  EXPECT_EQ(v.CountOf(MakeTuple(2, "z")), 0);
}

TEST(MaterializedViewTest, RemoveByIdKeyDecrementsAndErases) {
  MaterializedView v(TwoColSchema());
  Tuple t = MakeTuple(0, "x");
  v.AddDerivations(t, 2);
  const Tuple ids = v.IdsOf(t);
  EXPECT_TRUE(v.RemoveDerivations(ids, 1));
  EXPECT_EQ(v.CountOf(t), 1);
  EXPECT_TRUE(v.RemoveDerivations(ids, 1));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.total_derivations(), 0);
}

TEST(MaterializedViewTest, RemoveMissingIsIgnored) {
  MaterializedView v(TwoColSchema());
  EXPECT_TRUE(v.RemoveDerivations(v.IdsOf(MakeTuple(0, "x")), 1));
  v.AddDerivations(MakeTuple(1, "y"), 1);
  EXPECT_TRUE(v.RemoveDerivations(v.IdsOf(MakeTuple(0, "x")), 1));
  EXPECT_TRUE(v.RemoveDerivations(v.IdsOf(MakeTuple(2, "z")), 1));
  EXPECT_EQ(v.size(), 1u);
}

TEST(MaterializedViewTest, OverRemovalClampsAndReports) {
  MaterializedView v(TwoColSchema());
  Tuple t = MakeTuple(0, "x");
  v.AddDerivations(t, 1);
  EXPECT_FALSE(v.RemoveDerivations(v.IdsOf(t), 5));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.total_derivations(), 0);
}

TEST(MaterializedViewTest, IdKeyIgnoresPayloadColumns) {
  MaterializedView v(TwoColSchema());
  EXPECT_EQ(v.IdKeyOf(MakeTuple(0, "x")), v.IdKeyOf(MakeTuple(0, "y")));
  EXPECT_NE(v.IdKeyOf(MakeTuple(0, "x")), v.IdKeyOf(MakeTuple(1, "x")));
}

TEST(MaterializedViewTest, FindByIdKey) {
  MaterializedView v(TwoColSchema());
  Tuple t = MakeTuple(3, "payload");
  v.AddDerivations(t, 1);
  const CountedTuple* found = v.FindByIdKey(v.IdKeyOf(t));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->tuple[1].str(), "payload");
  EXPECT_EQ(found, &v.content()[0]);
  EXPECT_EQ(v.FindByIdKey("absent"), nullptr);
}

TEST(MaterializedViewTest, ReplaceEntriesRewritesPayload) {
  MaterializedView v(TwoColSchema());
  v.AddDerivations(MakeTuple(0, "old"), 2);
  v.AddDerivations(MakeTuple(1, "keep"), 1);
  const uint64_t version = v.version();
  std::vector<std::pair<size_t, Tuple>> replacements;
  replacements.emplace_back(0, MakeTuple(0, "new"));
  EXPECT_EQ(v.ReplaceEntries(std::move(replacements)), 1u);
  EXPECT_GT(v.version(), version);
  EXPECT_EQ(v.CountOf(MakeTuple(0, "new")), 2);
  EXPECT_EQ(v.CountOf(MakeTuple(0, "old")), 0);
  EXPECT_EQ(v.CountOf(MakeTuple(1, "keep")), 1);
  EXPECT_EQ(v.FindByIdKey(v.IdKeyOf(MakeTuple(0, "")))->tuple[1].str(), "new");
  EXPECT_TRUE(v.CheckStructure().empty());
  // Nothing to replace: the content and its version stay.
  EXPECT_EQ(v.ReplaceEntries({}), 0u);
  EXPECT_EQ(v.version(), version + 1);
}

TEST(MaterializedViewTest, SnapshotSortedAndResetRoundTrip) {
  MaterializedView v(TwoColSchema());
  v.AddDerivations(MakeTuple(2, "c"), 1);
  v.AddDerivations(MakeTuple(0, "a"), 3);
  v.AddDerivations(MakeTuple(1, "b"), 2);
  auto snap = v.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_LT(snap[0].tuple, snap[1].tuple);
  EXPECT_LT(snap[1].tuple, snap[2].tuple);

  MaterializedView v2(TwoColSchema());
  v2.Reset(snap);
  EXPECT_EQ(v2.Snapshot().size(), 3u);
  EXPECT_EQ(v2.total_derivations(), 6);
}

TEST(MaterializedViewTest, ClearEmpties) {
  MaterializedView v(TwoColSchema());
  v.AddDerivations(MakeTuple(0, "x"), 1);
  v.Clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.total_derivations(), 0);
}

}  // namespace
}  // namespace xvm
