#include "pattern/compile.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace xvm {
namespace {

TEST(TreePatternParseTest, LinearChain) {
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id,val}))");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->size(), 3u);
  EXPECT_EQ(p->node(0).label, "a");
  EXPECT_EQ(p->node(2).label, "c");
  EXPECT_TRUE(p->node(2).store_val);
  EXPECT_EQ(p->node(1).parent, 0);
  EXPECT_EQ(p->node(2).edge, EdgeKind::kDescendant);
}

TEST(TreePatternParseTest, BranchesAndPredicates) {
  auto p = TreePattern::Parse(
      "/site{id}(/people{id}(/person{id}(/@id{id}[val=\"person0\"],"
      "/name{id,val,cont})))");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->size(), 5u);
  EXPECT_EQ(p->node(0).edge, EdgeKind::kChild);
  EXPECT_EQ(p->node(3).label, "@id");
  ASSERT_TRUE(p->node(3).val_pred.has_value());
  EXPECT_EQ(*p->node(3).val_pred, "person0");
  EXPECT_EQ(p->node(2).children.size(), 2u);
}

TEST(TreePatternParseTest, DuplicateLabelsGetDistinctNames) {
  auto p = TreePattern::Parse("//b{id}(//d{id}(//b{id}))");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->node(0).name, "b");
  EXPECT_EQ(p->node(2).name, "b#2");
}

TEST(TreePatternParseTest, RejectsValWithoutId) {
  auto p = TreePattern::Parse("//a{val}");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreePatternParseTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(TreePattern::Parse("a{id}").ok());          // missing edge
  EXPECT_FALSE(TreePattern::Parse("//a{bogus}").ok());
  EXPECT_FALSE(TreePattern::Parse("//a{id}(//b{id}").ok());  // unbalanced
  EXPECT_FALSE(TreePattern::Parse("//a{id}[val=5]").ok());   // unquoted
  EXPECT_FALSE(TreePattern::Parse("").ok());
}

TEST(TreePatternTest, ToStringRoundTrips) {
  const std::string dsl =
      "//a{id}(//b{id}[val=\"x\"](/c{id,val}),//d{id,cont})";
  auto p = TreePattern::Parse(dsl);
  ASSERT_TRUE(p.ok());
  auto p2 = TreePattern::Parse(p->ToString());
  ASSERT_TRUE(p2.ok()) << p->ToString();
  EXPECT_EQ(p2->ToString(), p->ToString());
}

TEST(TreePatternTest, SubtreeAndIsInSubtree) {
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}),//d{id})");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsInSubtree(0, 2));
  EXPECT_TRUE(p->IsInSubtree(1, 2));
  EXPECT_FALSE(p->IsInSubtree(1, 3));
  auto sub = p->Subtree(1);
  EXPECT_EQ(sub, (std::vector<int>{1, 2}));
}

TEST(TreePatternTest, ContentOrValueNodes) {
  auto p = TreePattern::Parse("//a{id,cont}(//b{id},//c{id,val})");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ContentOrValueNodes(), (std::vector<int>{0, 2}));
}

class PatternEvalTest : public ::testing::Test {
 protected:
  void Load(const std::string& xml) {
    doc_ = std::make_unique<Document>();
    ASSERT_TRUE(ParseDocument(xml, doc_.get()).ok());
    store_ = std::make_unique<StoreIndex>(doc_.get());
    store_->Build();
  }

  Relation Eval(const std::string& dsl) {
    auto p = TreePattern::Parse(dsl);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    pattern_ = std::move(p).value();
    return EvalTreePattern(pattern_, StoreLeafSource(store_.get(), &pattern_));
  }

  std::vector<CountedTuple> EvalView(const std::string& dsl) {
    auto p = TreePattern::Parse(dsl);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    pattern_ = std::move(p).value();
    return EvalViewWithCounts(pattern_,
                              StoreLeafSource(store_.get(), &pattern_));
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<StoreIndex> store_;
  TreePattern pattern_;
};

TEST_F(PatternEvalTest, LinearDescendantChain) {
  Load("<r><a><b><c/></b></a><a><b/></a><c/></r>");
  Relation out = Eval("//a{id}(//b{id}(//c{id}))");
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(PatternEvalTest, MultipleEmbeddings) {
  Load("<a><b><b><c/></b></b></a>");
  // //a//b//c has two embeddings (either b).
  Relation out = Eval("//a{id}(//b{id}(//c{id}))");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(PatternEvalTest, ChildVsDescendantEdges) {
  Load("<a><b><c/></b><c/></a>");
  EXPECT_EQ(Eval("//a{id}(/c{id})").size(), 1u);
  EXPECT_EQ(Eval("//a{id}(//c{id})").size(), 2u);
}

TEST_F(PatternEvalTest, RootAnchoring) {
  Load("<a><a><b/></a></a>");
  EXPECT_EQ(Eval("/a{id}(//b{id})").size(), 1u);   // outer a only
  EXPECT_EQ(Eval("//a{id}(//b{id})").size(), 2u);  // both a's
}

TEST_F(PatternEvalTest, ValuePredicate) {
  Load("<r><a>5<b/></a><a>7<b/></a></r>");
  Relation out = Eval("//a{id}[val=\"5\"](//b{id})");
  EXPECT_EQ(out.size(), 1u);
  // Predicate-only val column is projected away.
  EXPECT_EQ(out.schema.size(), 2u);
}

TEST_F(PatternEvalTest, StoredValAndCont) {
  Load("<r><a>x<b>y</b></a></r>");
  Relation out = Eval("//a{id,val,cont}");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows[0][1].str(), "xy");
  EXPECT_EQ(out.rows[0][2].str(), "<a>x<b>y</b></a>");
}

TEST_F(PatternEvalTest, BranchingPattern) {
  Load("<r><a><b/><c/></a><a><b/></a><a><c/></a></r>");
  EXPECT_EQ(Eval("//a{id}(//b{id},//c{id})").size(), 1u);
}

TEST_F(PatternEvalTest, AttributeNodes) {
  Load("<r><p id=\"1\"><n/></p><p><n/></p></r>");
  EXPECT_EQ(Eval("//p{id}(/@id{id},/n{id})").size(), 1u);
}

TEST_F(PatternEvalTest, DerivationCounts) {
  Load("<a><c><b/></c><f><b/></f></a>");
  // //a[//b] storing only a: count = number of b-witnesses.
  auto counted = EvalView("//a{id}(//b)");
  ASSERT_EQ(counted.size(), 1u);
  EXPECT_EQ(counted[0].count, 2);
}

TEST_F(PatternEvalTest, SubsetEvaluationIsSnowcap) {
  Load("<r><a><b><c/></b></a><a><b/></a></r>");
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(p.ok());
  TreePattern pat = std::move(p).value();
  std::vector<bool> ab = {true, true, false};
  Relation out = EvalTreePattern(pat, StoreLeafSource(store_.get(), &pat), &ab);
  EXPECT_EQ(out.size(), 2u);       // both (a,b) pairs
  EXPECT_EQ(out.schema.size(), 2u);
}

TEST_F(PatternEvalTest, BindingLayoutPreOrder) {
  auto p = TreePattern::Parse("//a{id,val}(//b{id}(//c{id,cont}),//d{id})");
  ASSERT_TRUE(p.ok());
  BindingLayout layout = ComputeBindingLayout(*p, nullptr);
  EXPECT_EQ(layout.schema.size(), 6u);
  EXPECT_EQ(layout.per_node[0].id_col, 0);
  EXPECT_EQ(layout.per_node[0].val_col, 1);
  EXPECT_EQ(layout.per_node[1].id_col, 2);
  EXPECT_EQ(layout.per_node[2].cont_col, 4);
  EXPECT_EQ(layout.per_node[3].id_col, 5);
}

TEST_F(PatternEvalTest, ViewTupleSchemaMatchesAnnotations) {
  auto p = TreePattern::Parse("//a{id}(//b(//c{id,val}))");
  ASSERT_TRUE(p.ok());
  Schema s = ViewTupleSchema(*p);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.col(0).name, "a.ID");
  EXPECT_EQ(s.col(1).name, "c.ID");
  EXPECT_EQ(s.col(2).name, "c.val");
}

TEST_F(PatternEvalTest, EmptyWhenLabelAbsent) {
  Load("<r><a/></r>");
  EXPECT_EQ(Eval("//zzz{id}").size(), 0u);
  EXPECT_EQ(Eval("//a{id}(//zzz{id})").size(), 0u);
}

}  // namespace
}  // namespace xvm
