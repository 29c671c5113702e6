#include "algebra/analyze/analyze.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algebra/analyze/build_plan.h"
#include "pattern/from_xpath.h"
#include "view/lattice.h"
#include "view/manager.h"
#include "view/view_def.h"
#include "view/view_plans.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm {
namespace {

// ---------------------------------------------------------------------------
// Acceptance: every plan the compiler emits must pass analysis. The same
// property is exercised at scale by the fuzz and parallel-stress suites via
// the ViewManager::AddView gate; here it is checked directly for the whole
// curated view corpus, including the snowcap/σ_alive term-plan space.

/// The term-plan table AddView builds for `def` with the snowcap lattice.
ViewPlans SnowcapTable(const ViewDefinition& def) {
  return ViewPlans(def,
                   ViewLattice(&def.pattern(), LatticeStrategy::kSnowcaps));
}

TEST(AnalyzeAcceptTest, AllXMarkViewPlansPass) {
  std::vector<ViewDefinition> defs;
  for (const std::string& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok()) << name;
    defs.push_back(std::move(def).value());
  }
  for (const std::string& variant : XMarkQ1VariantNames()) {
    auto def = XMarkQ1Variant(variant);
    ASSERT_TRUE(def.ok()) << variant;
    defs.push_back(std::move(def).value());
  }
  for (const ViewDefinition& def : defs) {
    ViewPlans plans = SnowcapTable(def);
    ASSERT_TRUE(plans.status().ok()) << def.name() << ": "
                                     << plans.status().message();
    EXPECT_GT(plans.view().entries.size(), 0u) << def.name();
    EXPECT_EQ(plans.view_facts().schema, def.tuple_schema()) << def.name();
  }
}

TEST(AnalyzeAcceptTest, XPathTranslationsPass) {
  const char* kXPaths[] = {
      "/site/people/person/name",
      "//person[@id]//name",
      "/a[b/c and d]//e",
      "//bidder[personref/@person=\"person12\"]/increase",
      "//increase[.=\"4.50\"]",
  };
  for (const char* xpath : kXPaths) {
    auto pattern = PatternFromXPathString(xpath, ResultAnnotation::kIdVal);
    ASSERT_TRUE(pattern.ok()) << xpath;
    auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
    ASSERT_TRUE(def.ok()) << xpath;
    ViewPlans plans = SnowcapTable(*def);
    EXPECT_TRUE(plans.status().ok()) << xpath << ": "
                                     << plans.status().message();
  }
}

TEST(AnalyzeAcceptTest, FactsOfTheViewPlan) {
  auto def = ViewDefinition::Create(
      "v", "//a{id}(//b{id,val}[val=\"x\"],//c{id,cont})");
  ASSERT_TRUE(def.ok());
  PlanNodePtr plan = BuildViewPlan(def->pattern());
  auto facts = AnalyzePlan(*plan);
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  // Stored tuple: a.ID, b.ID, b.val, c.ID, c.cont.
  EXPECT_EQ(facts->schema, def->tuple_schema());
  // DupElim output is sorted by the full tuple and duplicate-free.
  EXPECT_TRUE(facts->duplicate_free);
  EXPECT_TRUE(facts->SortedBy(0));
  // The FD reduction proves the ID columns {0,2,3}... here {a,b,c} IDs are
  // columns 0, 1 and 3 of the stored tuple and must key the view on their
  // own (val/cont are functions of their node's ID).
  EXPECT_TRUE(facts->HasKeyWithin({0, 1, 3}));
  EXPECT_FALSE(facts->HasKeyWithin({0, 1}));
}

TEST(AnalyzeAcceptTest, StructuralJoinOrderIsProvedNotAssumed) {
  // The leaf ensure-sort of the evaluator is deliberately NOT part of the
  // plan: the analyzer must prove document order from the leaf contract
  // through select/project. A pattern with root anchor, a value predicate
  // and a dropped pred-only val column exercises every preservation rule.
  auto def = ViewDefinition::Create("v", "/a{id}[val=\"k\"](//b{id})");
  ASSERT_TRUE(def.ok());
  PlanNodePtr plan =
      BuildPatternPlan(def->pattern(), nullptr, PlanLeafSourceKind::kStore);
  auto facts = AnalyzePlan(*plan);
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  EXPECT_TRUE(facts->SortedBy(0));
}

// ---------------------------------------------------------------------------
// Rejection: crafted malformed plans. Each must fail with InvalidArgument
// and a diagnostic naming the operator path from the root.

Schema IdValSchema(const std::string& n) {
  Schema s;
  s.Add({n + ".ID", ValueKind::kId});
  s.Add({n + ".val", ValueKind::kString});
  return s;
}

void ExpectRejected(const PlanNodePtr& plan, const std::string& fragment) {
  auto facts = AnalyzePlan(*plan);
  ASSERT_FALSE(facts.ok()) << "analyzer accepted a malformed plan";
  EXPECT_EQ(facts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(facts.status().message().find("at operator path"),
            std::string::npos)
      << facts.status().message();
  EXPECT_NE(facts.status().message().find(fragment), std::string::npos)
      << "missing '" << fragment << "' in: " << facts.status().message();
}

PlanNodePtr Leaf(const std::string& n) {
  return MakeContractLeaf(PlanLeafKind::kStoreScan, "R:" + n, IdValSchema(n));
}

TEST(AnalyzeRejectTest, ProjectColumnOutOfRange) {
  ExpectRejected(MakeProject(Leaf("a"), {0, 7}), "out of range");
}

TEST(AnalyzeRejectTest, SelectColumnOutOfRange) {
  PlanPredicate p;
  p.kind = PlanPredicate::Kind::kEqConst;
  p.a = 9;
  p.constant = "x";
  ExpectRejected(MakeSelect(Leaf("a"), {p}), "out of range");
}

TEST(AnalyzeRejectTest, ValuePredicateOnIdColumn) {
  PlanPredicate p;
  p.kind = PlanPredicate::Kind::kEqConst;
  p.a = 0;  // a.ID
  p.constant = "x";
  ExpectRejected(MakeSelect(Leaf("a"), {p}), "attribute-kind misuse");
}

TEST(AnalyzeRejectTest, StructuralPredicateOnStringColumn) {
  PlanPredicate p;
  p.kind = PlanPredicate::Kind::kRootAnchor;
  p.a = 1;  // a.val — not an ID
  ExpectRejected(MakeSelect(Leaf("a"), {p}), "ID");
}

TEST(AnalyzeRejectTest, StructuralJoinOnNonIdColumn) {
  ExpectRejected(
      MakeStructJoin(Leaf("a"), 0, Leaf("b"), 1, Axis::kDescendant),
      "ID column");
}

TEST(AnalyzeRejectTest, StructuralJoinOuterNotSorted) {
  // A leaf that declares no sort contract: nothing to prove order from.
  PlanNodePtr unsorted = MakeLeaf(PlanLeafKind::kLiteral, "lit", IdValSchema("a"),
                                  /*sort_prefix=*/{}, {0, 0});
  ExpectRejected(
      MakeStructJoin(std::move(unsorted), 0, Leaf("b"), 0, Axis::kChild),
      "sort-order precondition");
}

TEST(AnalyzeRejectTest, StructuralJoinInnerOrderDestroyedUpstream) {
  // The inner input is sorted, but by its val column: no ID order reaches
  // the join, so feeding it to a structural join without re-sorting must be
  // rejected.
  PlanNodePtr by_val = MakeLeaf(PlanLeafKind::kLiteral, "lit", IdValSchema("b"),
                                /*sort_prefix=*/{1}, {0, 0});
  ExpectRejected(
      MakeStructJoin(Leaf("a"), 0, std::move(by_val), 0, Axis::kDescendant),
      "sort-order precondition");
}

TEST(AnalyzeRejectTest, SortRepairsOrderForStructuralJoin) {
  // Control for the two order tests above: an explicit sort on the join
  // column makes the same plans pass.
  PlanNodePtr by_val = MakeLeaf(PlanLeafKind::kLiteral, "lit", IdValSchema("b"),
                                /*sort_prefix=*/{1}, {0, 0});
  PlanNodePtr plan = MakeStructJoin(Leaf("a"), 0,
                                    MakeSortBy(std::move(by_val), {0}), 0,
                                    Axis::kDescendant);
  EXPECT_TRUE(AnalyzePlan(*plan).ok());
}

TEST(AnalyzeRejectTest, ArityZeroLeafRejected) {
  // Arity-0 relations satisfy every per-column check vacuously; the
  // analyzer must reject them at the leaf instead of proving nothing.
  PlanNodePtr plan = MakeStructJoin(
      MakeLeaf(PlanLeafKind::kStoreScan, "R:empty", Schema(), {}, {}), 0,
      MakeLeaf(PlanLeafKind::kStoreScan, "R:empty", Schema(), {}, {}), 0,
      Axis::kDescendant);
  auto facts = AnalyzePlan(*plan);
  ASSERT_FALSE(facts.ok());
  EXPECT_EQ(facts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(facts.status().message().find("empty schema"), std::string::npos)
      << facts.status().message();
  // The first rejected leaf is reached through the join's outer input.
  EXPECT_NE(facts.status().message().find("sjoin[outer]"), std::string::npos)
      << facts.status().message();
}

TEST(AnalyzeAcceptTest, ProjectWithDuplicatedSourceColumns) {
  // Projecting the same input column twice is legal (PIMT payload plans do
  // this for self-referential bindings); dependencies must resolve to the
  // *first* output occurrence and the sort prefix must survive.
  auto facts = AnalyzePlan(*MakeProject(Leaf("a"), {0, 0, 1}));
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  ASSERT_EQ(facts->schema.size(), 3u);
  EXPECT_EQ(facts->schema.col(0).name, facts->schema.col(1).name);
  EXPECT_TRUE(facts->SortedBy(0));
  // Each copy of the self-determined ID stays self-determined (the copies
  // are equal, so both are generators); the payload hangs off the first.
  EXPECT_EQ(facts->determined_by[0], 0);
  EXPECT_EQ(facts->determined_by[1], 1);
  EXPECT_EQ(facts->determined_by[2], 0);
}

TEST(AnalyzeAcceptTest, DupElimOverAlreadyKeyedInput) {
  // A contract leaf is already unique on its ID; dupelim over it must stay
  // accepted and keep (not weaken) the key and duplicate-freedom facts.
  auto facts = AnalyzePlan(*MakeDupElim(Leaf("a")));
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  EXPECT_TRUE(facts->duplicate_free);
  EXPECT_TRUE(facts->HasKeyWithin({0}));
  EXPECT_TRUE(facts->SortedBy(0));
}

TEST(AnalyzeAcceptTest, SortKeepsACoveringInputOrder) {
  // A snowcap leaf declares its binding order [a.ID b.ID]. Sorting it by
  // a.ID leaves the rows untouched, so the stronger order survives (and
  // lowering elides the sort); sorting by b.ID replaces it.
  Schema schema;
  schema.Add({"a.ID", ValueKind::kId});
  schema.Add({"b.ID", ValueKind::kId});
  auto snowcap = [&schema] {
    return MakeLeaf(PlanLeafKind::kSnowcap, "snowcap:{a,b}", schema, {0, 1},
                    {0, 1});
  };
  auto kept = AnalyzePlan(*MakeSortBy(snowcap(), {0}));
  ASSERT_TRUE(kept.ok()) << kept.status().message();
  EXPECT_EQ(kept->sort_prefix, (std::vector<int>{0, 1}));
  auto replaced = AnalyzePlan(*MakeSortBy(snowcap(), {1}));
  ASSERT_TRUE(replaced.ok()) << replaced.status().message();
  EXPECT_EQ(replaced->sort_prefix, (std::vector<int>{1}));
}

TEST(AnalyzeAcceptTest, PerNodeFactsCoverEveryOperator) {
  PlanNodePtr plan = MakeSortBy(MakeProject(Leaf("a"), {0}), {0});
  const PlanNode* project = plan->inputs[0].get();
  const PlanNode* leaf = project->inputs[0].get();
  PlanFactsMap per_node;
  auto facts = AnalyzePlan(*plan, &per_node);
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  ASSERT_EQ(per_node.size(), 3u);
  EXPECT_EQ(per_node.at(plan.get()).ToString(), facts->ToString());
  EXPECT_EQ(per_node.at(project).schema.size(), 1u);
  EXPECT_EQ(per_node.at(leaf).schema, IdValSchema("a"));
}

TEST(AnalyzeRejectTest, DiagnosticNamesThePathToTheOffender) {
  // Nest the broken project under two operators: the path must spell the
  // route from the root down to it.
  PlanNodePtr plan =
      MakeDupElim(MakeSortBy(MakeProject(Leaf("a"), {5}), {0}));
  auto facts = AnalyzePlan(*plan);
  ASSERT_FALSE(facts.ok());
  EXPECT_NE(facts.status().message().find("dupelim/sort/project"),
            std::string::npos)
      << facts.status().message();
}

// ---------------------------------------------------------------------------
// Δ-rewrite checking and the install-time gate.

TEST(PlanCheckTest, CorruptedDefinitionIsRejectedWithDiagnostic) {
  auto def = ViewDefinition::Create("v", "//a{id}(//b{id,val})");
  ASSERT_TRUE(def.ok());
  // Desynchronize the pattern from the precomputed tuple schema: dropping
  // the stored val makes every plan's output schema disagree with it.
  def->mutable_pattern_for_testing().mutable_node(1).store_val = false;
  ViewPlans plans = SnowcapTable(*def);
  ASSERT_FALSE(plans.status().ok());
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plans.status().message().find("schema mismatch"),
            std::string::npos)
      << plans.status().message();
}

TEST(PlanCheckTest, UnstoredIdBreaksTheViewKeyProof) {
  auto def = ViewDefinition::Create("v", "//a{id}(//b{id,val})");
  ASSERT_TRUE(def.ok());
  // Storing b.val without b's ID leaves the stored tuple without the ID
  // column that functionally determines the payload: the stored-ID-key
  // fact PDMT relies on becomes unprovable (and the schema shifts too).
  def->mutable_pattern_for_testing().mutable_node(1).store_id = false;
  EXPECT_FALSE(SnowcapTable(*def).status().ok());
}

TEST(PlanCheckTest, ManagerRefusesViewsWhosePlansFailAnalysis) {
  Document doc;
  ASSERT_TRUE(ParseDocument("<r><a><b>x</b></a></r>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);

  auto good = ViewDefinition::Create("good", "//a{id}(//b{id,val})");
  ASSERT_TRUE(good.ok());
  auto idx = mgr.AddView(std::move(good).value(), LatticeStrategy::kSnowcaps);
  ASSERT_TRUE(idx.ok()) << idx.status().message();
  EXPECT_EQ(*idx, 0u);

  auto bad = ViewDefinition::Create("bad", "//a{id}(//b{id,val})");
  ASSERT_TRUE(bad.ok());
  bad->mutable_pattern_for_testing().mutable_node(1).store_val = false;
  auto rejected =
      mgr.AddView(std::move(bad).value(), LatticeStrategy::kSnowcaps);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // The rejected view must not have been registered.
  EXPECT_EQ(mgr.size(), 1u);
  EXPECT_EQ(mgr.FindView("bad"), nullptr);
}

TEST(PlanCheckTest, TermPlanCountsCoverTheUnionTermSpace) {
  // k pattern nodes in a chain: EnumerateDeltaSets yields the non-empty
  // descendant-closed subsets; each is checked with σ_alive off and on
  // (whether its R-part is a materialized snowcap is fixed by the lattice,
  // so only the plans that can run are analyzed).
  auto def = ViewDefinition::Create("v", "//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(def.ok());
  ViewPlans plans = SnowcapTable(*def);
  ASSERT_TRUE(plans.status().ok()) << plans.status().message();
  EXPECT_EQ(plans.view().entries.size(),
            2 * EnumerateDeltaSets(def->pattern()).size());
  EXPECT_GT(plans.term_count(), plans.view().entries.size());  // snowcaps
}

}  // namespace
}  // namespace xvm
