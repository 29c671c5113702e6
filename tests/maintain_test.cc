#include "view/manager.h"

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "pattern/compile.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm {
namespace {

/// Evaluates a view definition from scratch over `store` (ground truth).
std::vector<CountedTuple> GroundTruth(const ViewDefinition& def,
                                      const StoreIndex& store) {
  const TreePattern& pat = def.pattern();
  return EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
}

void ExpectViewEquals(const MaterializedView& view,
                      const std::vector<CountedTuple>& truth,
                      const std::string& context) {
  std::vector<CountedTuple> got = view.Snapshot();
  ASSERT_EQ(got.size(), truth.size()) << context;
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got[i].tuple, truth[i].tuple) << context << " tuple " << i;
    EXPECT_EQ(got[i].count, truth[i].count) << context << " count " << i;
  }
}

// DeletedRegion::Covers boundary cases: the upper_bound probe must treat a
// root itself as covered, cover descendants of the *last* root (where
// upper_bound lands at end()), and not cover the sibling immediately after
// a root (the first ID past the root's contiguous subtree range).
TEST(DeletedRegionTest, CoversBoundaries) {
  Document doc;
  ASSERT_TRUE(
      ParseDocument("<r><a><b/><c/></a><d><e/></d><f/></r>", &doc).ok());
  auto id = [&doc](NodeHandle h) { return doc.node(h).id; };
  auto kids = doc.Children(doc.root());
  ASSERT_EQ(kids.size(), 3u);
  const NodeHandle a = kids[0], d = kids[1], f = kids[2];
  const NodeHandle b = doc.Children(a)[0], c = doc.Children(a)[1];
  const NodeHandle e = doc.Children(d)[0];

  const DeletedRegion empty(std::vector<DeweyId>{});
  EXPECT_FALSE(empty.Covers(id(a)));
  EXPECT_FALSE(empty.Covers(id(doc.root())));

  const DeletedRegion region({id(a), id(d)});
  // A root covers itself…
  EXPECT_TRUE(region.Covers(id(a)));
  EXPECT_TRUE(region.Covers(id(d)));
  // …and its descendants, including under the LAST root (upper_bound ==
  // end() there, which a naive probe mishandles).
  EXPECT_TRUE(region.Covers(id(b)));
  EXPECT_TRUE(region.Covers(id(c)));
  EXPECT_TRUE(region.Covers(id(e)));
  // The sibling just past a root sorts after the root but is not covered.
  EXPECT_FALSE(region.Covers(id(f)));
  // Ancestors of roots and IDs before the first root are not covered.
  EXPECT_FALSE(region.Covers(id(doc.root())));
  const DeletedRegion late({id(d)});
  EXPECT_FALSE(late.Covers(id(a)));
  EXPECT_FALSE(late.Covers(id(b)));
  EXPECT_TRUE(late.Covers(id(e)));
  EXPECT_FALSE(late.Covers(id(f)));
}

/// End-to-end check: build a small document, define a view, apply one
/// statement through the maintenance machinery, compare against recompute.
struct Scenario {
  std::string view_dsl;
  std::string doc_xml;
  UpdateStmt stmt;
  LatticeStrategy strategy;
  std::string name;
};

class HandCraftedMaintainTest
    : public ::testing::TestWithParam<LatticeStrategy> {};

void RunScenario(const std::string& view_dsl, const std::string& doc_xml,
                 const UpdateStmt& stmt, LatticeStrategy strategy,
                 const std::string& context) {
  Document doc;
  ASSERT_TRUE(ParseDocument(doc_xml, &doc).ok()) << context;
  StoreIndex store(&doc);
  store.Build();
  auto def = ViewDefinition::Create("v", view_dsl);
  ASSERT_TRUE(def.ok()) << def.status().ToString() << " " << context;
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(std::move(def).value(), strategy).ok());
  const MaintainedView& mv = mgr.view(0);

  auto outcome = mgr.ApplyAndPropagateAll(stmt);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString() << " " << context;

  auto def2 = ViewDefinition::Create("v", view_dsl);
  ExpectViewEquals(mv.view(), GroundTruth(*def2, store), context);
}

// Example 3.1: view //a//b//c, insert <a><b/><b><c/></b></a>.
TEST_P(HandCraftedMaintainTest, PaperExample31) {
  RunScenario("//a{id}(//b{id}(//c{id}))",
              "<root><a><b><c/></b></a><x><a><b/></a></x></root>",
              UpdateStmt::InsertForest("//x/a/b",
                                       "<a><b/><b><c/></b></a>"),
              GetParam(), "example 3.1");
}

// Example 3.4: inserted data contains no c => view unaffected.
TEST_P(HandCraftedMaintainTest, PaperExample34InsertedDataPruning) {
  RunScenario("//a{id}(//b{id}(//c{id}))",
              "<root><a><b><c/></b></a></root>",
              UpdateStmt::InsertForest("//a/b", "<a><b/><b/></a>"),
              GetParam(), "example 3.4");
}

// Example 3.5: value predicate rejects the new subtree.
TEST_P(HandCraftedMaintainTest, PaperExample35ValuePredicatePruning) {
  RunScenario("//a{id}[val=\"5\"](//b{id})",
              "<root><a>5<b/></a></root>",
              UpdateStmt::InsertForest("//root", "<a>3<b/><b/></a>"),
              GetParam(), "example 3.5");
}

TEST_P(HandCraftedMaintainTest, ValuePredicateAcceptsMatchingInsert) {
  RunScenario("//a{id}[val=\"5\"](//b{id})",
              "<root><a>5<b/></a></root>",
              UpdateStmt::InsertForest("//root", "<a>5<b/><b/></a>"),
              GetParam(), "matching value predicate");
}

// Example 4.1 / Figure 11: delete //c//b from the two-branch document.
TEST_P(HandCraftedMaintainTest, PaperExample41Delete) {
  RunScenario("//a{id}(//b{id})",
              "<a><c><b/></c><f><b/></f></a>",
              UpdateStmt::Delete("//c//b"), GetParam(), "example 4.1");
}

// Example 4.5 / Figure 12: view //a[//c]//b, delete //a/f/c.
TEST_P(HandCraftedMaintainTest, PaperExample45Delete) {
  RunScenario("//a{id}(//c{id},//b{id})",
              "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>",
              UpdateStmt::Delete("//a/f/c"), GetParam(), "example 4.5");
}

// Example 4.8: derivation counts — deleting one of two b-derivations keeps
// the a tuple, deleting the second removes it.
TEST_P(HandCraftedMaintainTest, PaperExample48DerivationCounts) {
  Document doc;
  ASSERT_TRUE(ParseDocument("<a><c><b/></c><f><b/></f></a>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  auto def = ViewDefinition::Create("v", "//a{id}(//b{id})");
  ASSERT_TRUE(def.ok());
  // Project only a: //a[//b] with a existential b branch.
  auto def2 = ViewDefinition::Create("v2", "//a{id}(//b)");
  // Patterns must store something per node or not at all; b stores nothing.
  ASSERT_TRUE(def2.ok()) << def2.status().ToString();
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(std::move(def2).value(), GetParam()).ok());
  const MaintainedView& mv = mgr.view(0);
  ASSERT_EQ(mv.view().size(), 1u);
  EXPECT_EQ(mv.view().total_derivations(), 2);

  auto out1 = mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//c/b"));
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ(mv.view().size(), 1u);
  EXPECT_EQ(mv.view().total_derivations(), 1);

  auto out2 = mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//f/b"));
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(mv.view().size(), 0u);
}

// Example 3.14: insertion that only modifies stored content (PIMT).
TEST_P(HandCraftedMaintainTest, PaperExample314ContentModification) {
  RunScenario("/a{id}(/b{id}(//c{id,cont}))",
              "<a><b><d><c><e/></c></d></b><d><c/></d></a>",
              UpdateStmt::InsertForest("//d//c", "<extra>some value</extra>"),
              GetParam(), "example 3.14 PIMT");
}

TEST_P(HandCraftedMaintainTest, DeleteModifiesStoredContent) {
  RunScenario("/a{id}(/b{id}(//c{id,cont}))",
              "<a><b><d><c><e/><f/></c></d></b></a>",
              UpdateStmt::Delete("//c/e"), GetParam(), "PDMT refresh");
}

TEST_P(HandCraftedMaintainTest, InsertQuerySourcedPayload) {
  RunScenario("//a{id}(//b{id})",
              "<root><a><b/></a><src><b/><b/></src></root>",
              UpdateStmt::InsertQuery("//src/b", "//a"), GetParam(),
              "insert q1 into q2");
}

TEST_P(HandCraftedMaintainTest, DeleteEverything) {
  RunScenario("//a{id}(//b{id})", "<a><b/><a><b/></a></a>",
              UpdateStmt::Delete("/a"), GetParam(), "delete root");
}

TEST_P(HandCraftedMaintainTest, NestedSameLabelPattern) {
  RunScenario("//b{id}(//d{id}(//b{id}))",
              "<r><b><d><b/><d><b/></d></d></b></r>",
              UpdateStmt::InsertForest("//d", "<b><d><b/></d></b>"),
              GetParam(), "//b//d//b");
}

TEST_P(HandCraftedMaintainTest, ChildAxisView) {
  RunScenario("/r{id}(/a{id}(/b{id,val}))",
              "<r><a><b>x</b></a><nested><r><a><b>y</b></a></r></nested></r>",
              UpdateStmt::InsertForest("/r/a", "<b>z</b>"), GetParam(),
              "child-anchored view");
}

INSTANTIATE_TEST_SUITE_P(Strategies, HandCraftedMaintainTest,
                         ::testing::Values(LatticeStrategy::kSnowcaps,
                                           LatticeStrategy::kLeaves),
                         [](const auto& info) {
                           return info.param == LatticeStrategy::kSnowcaps
                                      ? "Snowcaps"
                                      : "Leaves";
                         });

/// Property-style sweep: every XMark (view, update) pair of Figures 18-21,
/// insert and delete variants, both strategies, checked against recompute.
struct XMarkCase {
  std::string view;
  std::string update;
  bool insert;
  LatticeStrategy strategy;
};

std::string XMarkCaseName(const ::testing::TestParamInfo<XMarkCase>& info) {
  return info.param.view + "_" + info.param.update +
         (info.param.insert ? "_ins" : "_del") +
         (info.param.strategy == LatticeStrategy::kSnowcaps ? "_SC" : "_LV");
}

class XMarkMaintainTest : public ::testing::TestWithParam<XMarkCase> {};

TEST_P(XMarkMaintainTest, MatchesRecomputation) {
  const XMarkCase& c = GetParam();
  Document doc;
  GenerateXMark(XMarkConfig{40 * 1024, 11}, &doc);
  StoreIndex store(&doc);
  store.Build();

  auto def = XMarkView(c.view);
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(std::move(def).value(), c.strategy).ok());
  const MaintainedView& mv = mgr.view(0);

  auto u = FindXMarkUpdate(c.update);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  UpdateStmt stmt = c.insert ? MakeInsertStmt(*u) : MakeDeleteStmt(*u);

  auto outcome = mgr.ApplyAndPropagateAll(stmt);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  auto def2 = XMarkView(c.view);
  ExpectViewEquals(mv.view(), GroundTruth(*def2, store),
                   c.view + "/" + c.update);
}

std::vector<XMarkCase> AllXMarkCases() {
  std::vector<XMarkCase> cases;
  for (const auto& [view, update] : XMarkViewUpdatePairs()) {
    for (bool insert : {true, false}) {
      for (LatticeStrategy s :
           {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
        cases.push_back({view, update, insert, s});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, XMarkMaintainTest,
                         ::testing::ValuesIn(AllXMarkCases()), XMarkCaseName);

/// Sequences of updates keep the view consistent (state carries over).
TEST(MaintainSequenceTest, InsertThenDeleteThenInsert) {
  Document doc;
  GenerateXMark(XMarkConfig{30 * 1024, 5}, &doc);
  StoreIndex store(&doc);
  store.Build();
  auto def = XMarkView("Q1");
  ASSERT_TRUE(def.ok());
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& mv = mgr.view(0);

  auto x1 = FindXMarkUpdate("X1_L");
  auto a6 = FindXMarkUpdate("A6_A");
  ASSERT_TRUE(x1.ok() && a6.ok());

  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*x1)).ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeDeleteStmt(*a6)).ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*x1)).ok());

  auto def2 = XMarkView("Q1");
  ExpectViewEquals(mv.view(), GroundTruth(*def2, store), "sequence");
}

/// The recompute baseline agrees with the maintained view.
TEST(RecomputeBaselineTest, AgreesWithMaintained) {
  Document doc1, doc2;
  GenerateXMark(XMarkConfig{20 * 1024, 3}, &doc1);
  GenerateXMark(XMarkConfig{20 * 1024, 3}, &doc2);
  StoreIndex store1(&doc1), store2(&doc2);
  store1.Build();
  store2.Build();

  auto def = XMarkView("Q2");
  ASSERT_TRUE(def.ok());
  ViewManager mgr(&doc1, &store1);
  ASSERT_TRUE(mgr.AddView(*def, LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& mv = mgr.view(0);
  RecomputedView rv(*def, &store2);
  rv.Initialize();

  auto u = FindXMarkUpdate("X2_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  ASSERT_TRUE(rv.ApplyAndRecompute(&doc2, MakeInsertStmt(*u)).ok());

  auto a = mv.view().Snapshot();
  auto b = rv.view().Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

}  // namespace
}  // namespace xvm
