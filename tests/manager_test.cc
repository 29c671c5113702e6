#include "view/manager.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "pattern/compile.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

void ExpectAllConsistent(const ViewManager& mgr, const StoreIndex& store) {
  for (size_t i = 0; i < mgr.size(); ++i) {
    const MaintainedView& v = mgr.view(i);
    const TreePattern& pat = v.def().pattern();
    auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
    auto got = v.view().Snapshot();
    ASSERT_EQ(got.size(), truth.size()) << v.def().name();
    for (size_t t = 0; t < truth.size(); ++t) {
      EXPECT_EQ(got[t].tuple, truth[t].tuple) << v.def().name();
      EXPECT_EQ(got[t].count, truth[t].count) << v.def().name();
    }
  }
}

TEST(ViewManagerTest, MultipleViewsFollowOneStream) {
  Document doc;
  GenerateXMark(XMarkConfig{30 * 1024, 47}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  for (const char* name : {"Q1", "Q2", "Q17"}) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  ASSERT_EQ(mgr.size(), 3u);

  for (const char* uname : {"X1_L", "X2_L", "A7_O"}) {
    auto u = FindXMarkUpdate(uname);
    ASSERT_TRUE(u.ok());
    auto outs = mgr.ApplyAndPropagateAll(MakeInsertStmt(*u));
    ASSERT_TRUE(outs.ok()) << uname;
    ASSERT_EQ(outs->per_view.size(), 3u);
  }
  auto u = FindXMarkUpdate("A6_A");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok());

  ExpectAllConsistent(mgr, store);
}

TEST(ViewManagerTest, SharedDeltaNeedsCoverAllViews) {
  // One view stores cont of increase nodes; another filters on their value.
  // The shared Δ extraction must satisfy both.
  Document doc;
  GenerateXMark(XMarkConfig{25 * 1024, 3}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  for (const char* name : {"Q2", "Q3"}) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  auto u = FindXMarkUpdate("X2_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok());
  ExpectAllConsistent(mgr, store);
}

TEST(ViewManagerTest, PredicateGuardFallbackHandled) {
  // Deleting text under a predicate-tested node triggers the conservative
  // recompute; the manager must leave the view consistent.
  Document doc;
  ASSERT_TRUE(ParseDocument(
                  "<r><a>5<b/><t>x</t></a><a>5<b/></a></r>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  auto def = ViewDefinition::Create("v", "//a{id}[val=\"5\"](//b{id})");
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());

  // Deleting <t>x</t> changes the first a's string value from "5x" — wait,
  // it changes "5x" to "5": the predicate flips from false to true.
  auto outs = mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//a/t"));
  ASSERT_TRUE(outs.ok());
  EXPECT_TRUE(outs->per_view[0].stats.recompute_fallback);
  ExpectAllConsistent(mgr, store);
}

TEST(ViewManagerTest, SharedPhasesReportedSeparately) {
  // FindTargetNodes / ComputeDeltaTables happen once per statement; they
  // must land in shared_timing, not in (and especially not *only* in) the
  // first view's breakdown.
  Document doc;
  GenerateXMark(XMarkConfig{25 * 1024, 9}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  for (const char* name : {"Q1", "Q2"}) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  auto u = FindXMarkUpdate("X1_L");
  ASSERT_TRUE(u.ok());
  auto outs = mgr.ApplyAndPropagateAll(MakeInsertStmt(*u));
  ASSERT_TRUE(outs.ok());
  EXPECT_GT(outs->shared_timing.Get(phase::kFindTargets), 0.0);
  EXPECT_GT(outs->shared_timing.Get(phase::kComputeDeltas), 0.0);
  for (const UpdateOutcome& o : outs->per_view) {
    EXPECT_EQ(o.timing.Get(phase::kFindTargets), 0.0);
    EXPECT_EQ(o.timing.Get(phase::kComputeDeltas), 0.0);
  }
  EXPECT_GE(outs->TotalMsFor(0),
            outs->per_view[0].timing.TotalMs() +
                outs->shared_timing.TotalMs() - 1e-9);
}

TEST(ViewManagerTest, MultiViewReplaceExcludesReplacedSubtree) {
  // A replace statement's PUL both deletes (the old children) and inserts
  // (the new forest). The coordinator must propagate Δ− and must pass the
  // DeletedRegion to PropagateInsert so Δ+ terms do not join against
  // R-side bindings inside the replaced subtrees.
  Document doc;
  ASSERT_TRUE(ParseDocument("<r>"
                            "<l><a><b>1</b><b>2</b></a></l>"
                            "<l><a><b>3</b></a></l>"
                            "</r>",
                            &doc)
                  .ok());
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  for (const char* pat : {"//l{id}(//b{id})", "//a{id}(//b{id,val})"}) {
    auto def = ViewDefinition::Create(std::string("v") + pat, pat);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  // Replace each l's content: the old a/b subtrees leave the views; the new
  // ones enter; nothing may pair new Δ+ nodes with replaced R nodes.
  auto outs = mgr.ApplyAndPropagateAll(
      UpdateStmt::ReplaceContent("//l", "<a><b>9</b></a>"));
  ASSERT_TRUE(outs.ok());
  EXPECT_GT(outs->nodes_deleted, 0u);
  EXPECT_GT(outs->nodes_inserted, 0u);
  ExpectAllConsistent(mgr, store);
}

TEST(ViewManagerTest, ParallelEngineMatchesSerial) {
  auto build = [](size_t workers, Document* doc, StoreIndex* store)
      -> std::unique_ptr<ViewManager> {
    GenerateXMark(XMarkConfig{30 * 1024, 47}, doc);
    store->Build();
    auto mgr = std::make_unique<ViewManager>(doc, store);
    mgr->set_workers(workers);
    for (const char* name : {"Q1", "Q2", "Q6", "Q17"}) {
      auto def = XMarkView(name);
      EXPECT_TRUE(def.ok());
      EXPECT_TRUE(
          mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
    }
    return mgr;
  };
  Document doc_s, doc_p;
  StoreIndex store_s(&doc_s), store_p(&doc_p);
  auto serial = build(1, &doc_s, &store_s);
  auto parallel = build(4, &doc_p, &store_p);

  for (const char* uname : {"X1_L", "A7_O", "A6_A"}) {
    auto u = FindXMarkUpdate(uname);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(serial->ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
    ASSERT_TRUE(parallel->ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  }
  auto u = FindXMarkUpdate("A6_A");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(serial->ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok());
  ASSERT_TRUE(parallel->ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok());

  for (size_t i = 0; i < serial->size(); ++i) {
    auto s = serial->view(i).view().Snapshot();
    auto p = parallel->view(i).view().Snapshot();
    ASSERT_EQ(s.size(), p.size()) << serial->view(i).def().name();
    for (size_t t = 0; t < s.size(); ++t) {
      EXPECT_EQ(s[t].tuple, p[t].tuple);
      EXPECT_EQ(s[t].count, p[t].count);
    }
  }
  ExpectAllConsistent(*parallel, store_p);
}

TEST(ViewManagerTest, FindViewByName) {
  Document doc;
  GenerateXMark(XMarkConfig{20 * 1024, 3}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  auto def = XMarkView("Q1");
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kLeaves).ok());
  EXPECT_NE(mgr.FindView("Q1"), nullptr);
  EXPECT_EQ(mgr.FindView("Q9"), nullptr);
}

TEST(ViewManagerTest, MixedStrategiesStayConsistent) {
  Document doc;
  GenerateXMark(XMarkConfig{25 * 1024, 61}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  auto q1 = XMarkView("Q1");
  auto q6 = XMarkView("Q6");
  ASSERT_TRUE(q1.ok() && q6.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(q1).value(), LatticeStrategy::kSnowcaps).ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(q6).value(), LatticeStrategy::kLeaves).ok());

  for (const char* uname : {"X1_L", "E6_L"}) {
    auto u = FindXMarkUpdate(uname);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  }
  ExpectAllConsistent(mgr, store);
}

/// A two-view manager over a small document, for the op-sequence tests.
struct OpsFixture {
  OpsFixture() : store(&doc), mgr(&doc, &store) {
    XVM_CHECK(ParseDocument(
                  "<r><c><b><d><b/></d><d><b/></d></b></c><b><d/></b></r>",
                  &doc)
                  .ok());
    store.Build();
    for (const char* dsl : {"//b{id}(//d{id}(//b{id}))", "//d{id,cont}"}) {
      auto def = ViewDefinition::Create("v" + std::to_string(mgr.size()), dsl);
      XVM_CHECK(def.ok());
      XVM_CHECK(
          mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
    }
  }
  DeweyId IdAt(const std::string& path, size_t i) {
    auto nodes = EvalXPathString(doc, path);
    XVM_CHECK(nodes.ok() && nodes->size() > i);
    return doc.node((*nodes)[i]).id;
  }
  std::shared_ptr<Document> Forest(const std::string& xml) {
    auto f = std::make_shared<Document>(doc.dict_ptr());
    XVM_CHECK(ParseForest(xml, f.get()).ok());
    return f;
  }
  Document doc;
  StoreIndex store;
  ViewManager mgr;
};

TEST(ViewManagerTest, OpSequencePropagatesToEveryView) {
  OpsFixture f;
  OpSequence ops = {
      AtomicOp::InsInto(f.IdAt("//c/b/d", 0), f.Forest("<b><d><b/></d></b>")),
      AtomicOp::Del(f.IdAt("//c/b/d", 1)),
      AtomicOp::InsInto(f.IdAt("/r/b/d", 0), f.Forest("<b/>")),
  };
  const uint64_t before = f.mgr.last_sequence();
  auto out = f.mgr.ApplyOpsAndPropagateAll(ReduceOps(ops));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->per_view.size(), 2u);
  EXPECT_GT(out->nodes_inserted, 0u);
  EXPECT_GT(out->nodes_deleted, 0u);
  EXPECT_EQ(f.mgr.last_sequence(), before + 1);
  EXPECT_EQ(f.mgr.SnapshotAll()->generation, f.mgr.last_sequence());
  ExpectAllConsistent(f.mgr, f.store);
}

TEST(ViewManagerTest, OpSequenceRefusedWhileDurable) {
  OpsFixture f;
  const std::string dir = ::testing::TempDir() + "/mgr_ops_durable";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(f.mgr.EnableDurability(dir).ok());
  OpSequence ops = {AtomicOp::Del(f.IdAt("//c/b/d", 0))};
  auto out = f.mgr.ApplyOpsAndPropagateAll(ops);
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.mgr.last_sequence(), 0u);
  ExpectAllConsistent(f.mgr, f.store);
  std::filesystem::remove_all(dir);
}

TEST(MaintainOptionsTest, DisabledPruningStillCorrect) {
  Document doc;
  GenerateXMark(XMarkConfig{25 * 1024, 31}, &doc);
  StoreIndex store(&doc);
  store.Build();
  auto def = XMarkView("Q2");
  ASSERT_TRUE(def.ok());
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, LatticeStrategy::kSnowcaps).ok());
  MaintainOptions opts;
  opts.prune_empty_delta = false;
  opts.prune_anchor_paths = false;
  mgr.mutable_view(0).set_options(opts);
  const MaintainedView& mv = mgr.view(0);
  auto u = FindXMarkUpdate("X2_L");
  ASSERT_TRUE(u.ok());
  auto out = mgr.ApplyAndPropagateAll(MakeInsertStmt(*u));
  ASSERT_TRUE(out.ok());
  // Without pruning, every update-independent term gets evaluated.
  const MaintenanceStats& stats = out->per_view[0].stats;
  EXPECT_EQ(stats.terms_pruned_data, 0u);
  EXPECT_EQ(stats.terms_evaluated, stats.terms_considered);

  const TreePattern& pat = def->pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
  auto got = mv.view().Snapshot();
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got[i].tuple, truth[i].tuple);
    EXPECT_EQ(got[i].count, truth[i].count);
  }
}

}  // namespace
}  // namespace xvm
