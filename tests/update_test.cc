#include "update/update.h"

#include <gtest/gtest.h>

#include "update/delta.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void Load(const std::string& xml) {
    doc_ = std::make_unique<Document>();
    ASSERT_TRUE(ParseDocument(xml, doc_.get()).ok());
    store_ = std::make_unique<StoreIndex>(doc_.get());
    store_->Build();
  }

  size_t Count(const std::string& path) {
    auto r = EvalXPathString(*doc_, path);
    EXPECT_TRUE(r.ok());
    return r->size();
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<StoreIndex> store_;
};

TEST_F(UpdateTest, InsertForestUnderEachTarget) {
  Load("<r><a/><a/></r>");
  UpdateStmt u = UpdateStmt::InsertForest("//a", "<x/><y/>");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  EXPECT_EQ(pul->inserts.size(), 4u);  // 2 targets x 2 trees
  ApplyResult res = ApplyPul(doc_.get(), *pul, store_.get());
  EXPECT_EQ(res.inserted_nodes.size(), 4u);
  EXPECT_EQ(res.insert_target_ids.size(), 2u);
  EXPECT_EQ(Count("//a/x"), 2u);
  EXPECT_EQ(Count("//a/y"), 2u);
}

TEST_F(UpdateTest, InsertAppendsAsLastChild) {
  Load("<r><a><old/></a></r>");
  UpdateStmt u = UpdateStmt::InsertForest("//a", "<new/>");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  ApplyPul(doc_.get(), *pul, store_.get());
  auto a = EvalXPathString(*doc_, "//a");
  ASSERT_TRUE(a.ok());
  auto kids = doc_->Children((*a)[0]);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(doc_->dict().Name(doc_->node(kids[1]).label), "new");
}

TEST_F(UpdateTest, InsertQueryCopiesSourceSubtrees) {
  Load("<r><a/><src><t><u/></t></src></r>");
  UpdateStmt u = UpdateStmt::InsertQuery("//src/t", "//a");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  ApplyPul(doc_.get(), *pul, store_.get());
  EXPECT_EQ(Count("//a/t/u"), 1u);
  EXPECT_EQ(Count("//t"), 2u);  // source still present
}

TEST_F(UpdateTest, DeleteRemovesSubtrees) {
  Load("<r><a><b/></a><a/><c/></r>");
  UpdateStmt u = UpdateStmt::Delete("//a");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  ApplyResult res = ApplyPul(doc_.get(), *pul, store_.get());
  EXPECT_EQ(res.deleted_nodes.size(), 3u);
  EXPECT_EQ(res.deleted_roots.size(), 2u);
  EXPECT_EQ(Count("//a"), 0u);
  EXPECT_EQ(Count("//c"), 1u);
}

TEST_F(UpdateTest, NestedDeleteTargetsHandledOnce) {
  Load("<r><a><a><b/></a></a></r>");
  UpdateStmt u = UpdateStmt::Delete("//a");  // outer and inner both match
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  EXPECT_EQ(pul->deletes.size(), 2u);
  ApplyResult res = ApplyPul(doc_.get(), *pul, store_.get());
  EXPECT_EQ(res.deleted_nodes.size(), 3u);    // each node once
  EXPECT_EQ(res.deleted_roots.size(), 1u);  // inner was already dead
}

TEST_F(UpdateTest, BadTargetPathReportsError) {
  Load("<r/>");
  UpdateStmt u = UpdateStmt::Delete("not a path");
  auto pul = ComputePul(*doc_, u);
  EXPECT_FALSE(pul.ok());
  EXPECT_EQ(pul.status().code(), StatusCode::kParseError);
}

TEST_F(UpdateTest, StoreStaysConsistent) {
  Load("<r><a/><b/></r>");
  UpdateStmt ins = UpdateStmt::InsertForest("//a", "<b/><b/>");
  auto pul = ComputePul(*doc_, ins);
  ASSERT_TRUE(pul.ok());
  ApplyPul(doc_.get(), *pul, store_.get());
  LabelId b = doc_->dict().Lookup("b");
  EXPECT_EQ(store_->Relation(b).size(), 3u);

  UpdateStmt del = UpdateStmt::Delete("//a");
  auto pul2 = ComputePul(*doc_, del);
  ASSERT_TRUE(pul2.ok());
  ApplyPul(doc_.get(), *pul2, store_.get());
  EXPECT_EQ(store_->Relation(b).size(), 1u);
  // Relation stays sorted in document order.
  const auto& rel = store_->Relation(doc_->dict().Lookup("b"));
  for (size_t i = 1; i < rel.size(); ++i) {
    EXPECT_LT(doc_->node(rel.nodes()[i - 1]).id,
              doc_->node(rel.nodes()[i]).id);
  }
}

TEST_F(UpdateTest, DeltaPlusTablesGroupByLabel) {
  Load("<r><t/></r>");
  UpdateStmt u = UpdateStmt::InsertForest("//t", "<a><b/><b><c/></b></a>");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  ApplyResult applied = ApplyPul(doc_.get(), *pul, store_.get());
  DeltaTables delta = ComputeDeltaPlus(*doc_, applied);
  EXPECT_EQ(delta.sign(), DeltaTables::Sign::kPlus);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("a")).size(), 1u);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("b")).size(), 2u);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("c")).size(), 1u);
  EXPECT_TRUE(delta.Empty(doc_->dict().Lookup("t")));
  EXPECT_EQ(delta.TotalRows(), 4u);
  ASSERT_EQ(delta.anchor_ids().size(), 1u);
  // Anchor is the <t> insertion point.
  EXPECT_EQ(delta.anchor_ids()[0].label(), doc_->dict().Lookup("t"));
}

TEST_F(UpdateTest, DeltaPlusCapturesValAndCont) {
  Load("<r><t/></r>");
  UpdateStmt u = UpdateStmt::InsertForest("//t", "<a>x<b>y</b></a>");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  ApplyResult applied = ApplyPul(doc_.get(), *pul, store_.get());
  DeltaTables delta = ComputeDeltaPlus(*doc_, applied);
  const auto& rows = delta.ForLabel(doc_->dict().Lookup("a"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].val, "xy");
  EXPECT_EQ(rows[0].cont, "<a>x<b>y</b></a>");
}

TEST_F(UpdateTest, DeltaMinusBeforeApply) {
  Load("<r><a><b/><b/></a><a/></r>");
  UpdateStmt u = UpdateStmt::Delete("//a");
  auto pul = ComputePul(*doc_, u);
  ASSERT_TRUE(pul.ok());
  DeltaTables delta = ComputeDeltaMinus(*doc_, *pul);
  EXPECT_EQ(delta.sign(), DeltaTables::Sign::kMinus);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("a")).size(), 2u);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("b")).size(), 2u);
  EXPECT_EQ(delta.anchor_ids().size(), 2u);
}

TEST_F(UpdateTest, DeltaMinusDedupsNestedRoots) {
  Load("<r><a><a><b/></a></a></r>");
  auto pul = ComputePul(*doc_, UpdateStmt::Delete("//a"));
  ASSERT_TRUE(pul.ok());
  DeltaTables delta = ComputeDeltaMinus(*doc_, *pul);
  // Inner root folded into the outer: anchor is outermost only, and every
  // node is listed exactly once.
  EXPECT_EQ(delta.anchor_ids().size(), 1u);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("a")).size(), 2u);
  EXPECT_EQ(delta.ForLabel(doc_->dict().Lookup("b")).size(), 1u);
}

TEST_F(UpdateTest, DeltaMinusCapturesValOnRequest) {
  Load("<r><a>55</a></r>");
  auto pul = ComputePul(*doc_, UpdateStmt::Delete("//a"));
  ASSERT_TRUE(pul.ok());
  std::set<LabelId> needs = {doc_->dict().Lookup("a")};
  DeltaTables delta = ComputeDeltaMinus(*doc_, *pul, nullptr, &needs);
  const auto& rows = delta.ForLabel(doc_->dict().Lookup("a"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].val, "55");
}

TEST_F(UpdateTest, AnchorPathFilter) {
  Load("<r><x><y><t/></y></x></r>");
  auto pul = ComputePul(*doc_, UpdateStmt::InsertForest("//t", "<n/>"));
  ASSERT_TRUE(pul.ok());
  ApplyResult applied = ApplyPul(doc_.get(), *pul, store_.get());
  DeltaTables delta = ComputeDeltaPlus(*doc_, applied);
  EXPECT_TRUE(delta.AnyAnchorHasAncestorOrSelfLabeled(doc_->dict().Lookup("x")));
  EXPECT_TRUE(delta.AnyAnchorHasAncestorOrSelfLabeled(doc_->dict().Lookup("t")));
  EXPECT_FALSE(
      delta.AnyAnchorHasAncestorOrSelfLabeled(doc_->dict().Lookup("n")));
}

TEST_F(UpdateTest, InsertedNodeIdsAreFresh) {
  Load("<r><a/></r>");
  auto pul = ComputePul(*doc_, UpdateStmt::InsertForest("//a", "<b/>"));
  ASSERT_TRUE(pul.ok());
  ApplyResult applied = ApplyPul(doc_.get(), *pul, store_.get());
  ASSERT_EQ(applied.inserted_roots.size(), 1u);
  const DeweyId& new_id = doc_->node(applied.inserted_roots[0]).id;
  // The new node's ID hangs under its target's ID.
  EXPECT_TRUE(applied.insert_target_ids[0].IsParentOf(new_id));
}

}  // namespace
}  // namespace xvm
