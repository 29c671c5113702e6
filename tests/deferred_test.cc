// Deferred (lazy) maintenance, paper §5: ViewManager::Defer applies each
// statement to the document and queues its Δ plan; the views and the
// canonical relations advance only at Flush().
#include "view/manager.h"

#include <gtest/gtest.h>

#include "common/invariant.h"
#include "pattern/compile.h"
#include "store/audit.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

struct Fixture {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<ViewManager> mgr;
};

Fixture MakeXMarkFixture(const std::string& view_name, uint64_t seed = 29) {
  Fixture f;
  f.doc = std::make_unique<Document>();
  GenerateXMark(XMarkConfig{30 * 1024, seed}, f.doc.get());
  f.store = std::make_unique<StoreIndex>(f.doc.get());
  f.store->Build();
  auto def = XMarkView(view_name);
  XVM_CHECK(def.ok());
  f.mgr = std::make_unique<ViewManager>(f.doc.get(), f.store.get());
  XVM_CHECK(
      f.mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  return f;
}

/// Consults view 0 the way a lazy reader does: flush, then snapshot.
ViewSnapshotPtr Read(ViewManager* mgr) {
  mgr->Flush();
  return mgr->Snapshot(0);
}

void ExpectMatchesRecompute(const ViewSnapshot& got, const ViewManager& mgr,
                            const StoreIndex& store) {
  const TreePattern& pat = mgr.view(0).def().pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got.tuples()[i].tuple, truth[i].tuple);
    EXPECT_EQ(got.tuples()[i].count, truth[i].count);
  }
}

void ExpectUpToDate(Fixture* f) {
  ExpectMatchesRecompute(*Read(f->mgr.get()), *f->mgr, *f->store);
}

/// A view over a small parsed document, registered with a fresh manager.
struct SmallFixture {
  SmallFixture(const std::string& xml, const std::string& view_dsl)
      : store(&doc), mgr(&doc, &store) {
    XVM_CHECK(ParseDocument(xml, &doc).ok());
    store.Build();
    auto def = ViewDefinition::Create("v", view_dsl);
    XVM_CHECK(def.ok());
    XVM_CHECK(
        mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  Document doc;
  StoreIndex store;
  ViewManager mgr;
};

TEST(DeferredViewTest, PropagationWaitsUntilRead) {
  Fixture f = MakeXMarkFixture("Q1");
  ViewSnapshotPtr before = f.mgr->Snapshot(0);
  auto u = FindXMarkUpdate("X1_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*u)).ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*u)).ok());
  EXPECT_EQ(f.mgr->pending(), 2u);
  // Readers never flush: they keep seeing the pre-statement snapshot.
  EXPECT_EQ(f.mgr->Snapshot(0), before);
  ExpectUpToDate(&f);
  EXPECT_EQ(f.mgr->pending(), 0u);
  EXPECT_EQ(f.mgr->Snapshot(0)->generation(), f.mgr->last_sequence());
}

TEST(DeferredViewTest, MixedInsertDeleteSequence) {
  Fixture f = MakeXMarkFixture("Q2");
  auto ins = FindXMarkUpdate("X2_L");
  auto del = FindXMarkUpdate("X3_A");
  ASSERT_TRUE(ins.ok() && del.ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*ins)).ok());
  ASSERT_TRUE(f.mgr->Defer(MakeDeleteStmt(*del)).ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*ins)).ok());
  EXPECT_EQ(f.mgr->pending(), 3u);
  ExpectUpToDate(&f);
}

TEST(DeferredViewTest, LaterUpdateBuildsOnEarlierOne) {
  // The second statement inserts under nodes created by the first; the
  // flush must roll the store forward between propagations to see them.
  SmallFixture f("<r><a/></r>", "//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a/b", "<c/>")).ok());
  ViewSnapshotPtr content = Read(&f.mgr);
  EXPECT_EQ(content->size(), 1u);  // the (a, new b, new c) embedding
}

TEST(DeferredViewTest, InterleavedReadsStayConsistent) {
  Fixture f = MakeXMarkFixture("Q17");
  auto u1 = FindXMarkUpdate("A6_A");
  auto u2 = FindXMarkUpdate("A7_O");
  ASSERT_TRUE(u1.ok() && u2.ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*u1)).ok());
  ExpectUpToDate(&f);
  ASSERT_TRUE(f.mgr->Defer(MakeDeleteStmt(*u2)).ok());
  ASSERT_TRUE(f.mgr->Defer(MakeInsertStmt(*u1)).ok());
  ExpectUpToDate(&f);
  ExpectUpToDate(&f);  // idempotent when nothing is pending
}

/// Regression: a node inserted by statement j and deleted by a later queued
/// statement k must still be registered in the store at step j's
/// roll-forward. The old code filtered it out as dead-at-flush-time, so a
/// statement between j and k whose term joined against it as an R row
/// missed the embedding — and k's Δ−-only removal term then over-removed,
/// deleting a tuple whose remaining derivation was still alive.
TEST(DeferredViewTest, InsertThenDeleteWithinOneBatch) {
  // A1 already has a full B0/C0 chain: the view tuple for A1 starts with
  // one derivation that must survive the whole batch.
  SmallFixture f("<r><a><b><c/></b></a></r>", "//a{id}(//b(//c))");

  // j: insert B1 under A1; j+1: insert C1 under B1 (its term needs B1 as an
  // R row); k: delete B1's subtree again.
  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b id=\"n\"/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a/b[@id]", "<c/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::Delete("//a/b[@id]")).ok());
  EXPECT_EQ(f.mgr.pending(), 3u);

  ViewSnapshotPtr got = Read(&f.mgr);
  ExpectMatchesRecompute(*got, f.mgr, f.store);
  const TreePattern& pat = f.mgr.view(0).def().pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&f.store, &pat));
  // The A1 tuple specifically must still be present with its base count.
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].count, 1);
}

/// Same skew with a reinsertion after the delete: the final content must
/// match the immediate mode (one embedding through the reinserted chain
/// plus the original one).
TEST(DeferredViewTest, InsertDeleteReinsertWithinOneBatch) {
  SmallFixture f("<r><a><b><c/></b></a></r>", "//a{id}(//b(//c))");

  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b id=\"n\"/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a/b[@id]", "<c/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::Delete("//a/b[@id]")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b><c/></b>")).ok());
  EXPECT_EQ(f.mgr.pending(), 4u);

  ViewSnapshotPtr got = Read(&f.mgr);
  ExpectMatchesRecompute(*got, f.mgr, f.store);
  const TreePattern& pat = f.mgr.view(0).def().pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&f.store, &pat));
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].count, 2);  // original chain + reinserted chain
}

/// After a flush whose batch inserted-then-deleted nodes, the canonical
/// relations must hold live nodes only (the transient dead registrations
/// are taken out by the deleting statement's own roll-forward).
TEST(DeferredViewTest, RelationsAllAliveAfterMixedBatchFlush) {
  SmallFixture f("<r><a><b><c/></b></a></r>", "//a{id}(//b(//c))");
  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b id=\"n\"/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a/b[@id]", "<c/>")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::Delete("//a/b[@id]")).ok());
  f.mgr.Flush();
  for (const std::string& name : {std::string("a"), std::string("b"),
                                  std::string("c")}) {
    LabelId label = f.doc.dict().Lookup(name);
    ASSERT_NE(label, kInvalidLabel);
    for (NodeHandle h : f.store.Relation(label).nodes()) {
      EXPECT_TRUE(f.doc.IsAlive(h)) << "dead node left in R_" << name;
    }
  }
}

TEST(DeferredViewTest, FallbackRecomputesAtFlush) {
  SmallFixture f("<r><a>5<b/><t>x</t></a><a>5<b/></a></r>",
                 "//a{id}[val=\"5\"](//b{id})");
  // Deleting <t>x</t> flips the first <a>'s predicate from false to true —
  // the guard forces a recompute, deferred until the read.
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::Delete("//a/t")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b/>")).ok());
  MultiUpdateOutcome out = f.mgr.Flush();
  EXPECT_TRUE(out.per_view[0].stats.recompute_fallback);
  ExpectMatchesRecompute(*f.mgr.Snapshot(0), f.mgr, f.store);
}

/// A replace statement carries both Δ− and Δ+; deferring it queues one
/// entry with both halves, and the flush matches the immediate mode.
TEST(DeferredViewTest, ReplaceIsDeferredLikeAnyStatement) {
  SmallFixture f("<r><a><b>1</b><c/></a><a><b>2</b></a></r>",
                 "//a{id}(//b{id,val})");
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::ReplaceContent("//a/b", "9")).ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest("//a[c]", "<b>3</b>")).ok());
  EXPECT_EQ(f.mgr.pending(), 2u);
  ViewSnapshotPtr got = Read(&f.mgr);
  ExpectMatchesRecompute(*got, f.mgr, f.store);
  EXPECT_EQ(got->size(), 3u);
}

/// Audits the storage layer (document, relations, val/cont cache).
void ExpectStorageClean(const SmallFixture& f) {
  InvariantReport report;
  AuditStorageLayer(f.doc, f.store, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// The relations lag the document until each queued statement rolls
/// forward. Statements that insert under, and delete inside, a subtree an
/// earlier queued statement inserted find their targets in the document;
/// their cache invalidation follows parent links, and their payload
/// refreshes resolve the new subtree's IDs once its roll-forward is done.
TEST(DeferredViewTest, StatementsInsideSubtreeOfEarlierQueuedInsert) {
  ScopedInvariantAuditing audit(true);
  SmallFixture f("<r><a><b>1<c/></b></a></r>",
                 "//a{id,cont}(//b{id,val}(//c{id}))");
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::InsertForest(
                              "//a", "<b id=\"n\">2<d id=\"m\"><c/>3</d></b>"))
                  .ok());
  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//b[@id=\"n\"]/d", "<c>4</c>"))
          .ok());
  ASSERT_TRUE(f.mgr.Defer(UpdateStmt::Delete("//d[@id=\"m\"]/c")).ok());
  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//d[@id=\"m\"]", "<c>5</c>"))
          .ok());
  EXPECT_EQ(f.mgr.pending(), 4u);
  ViewSnapshotPtr got = Read(&f.mgr);
  ExpectMatchesRecompute(*got, f.mgr, f.store);
  // (a, b1, c1) and (a, new b, the c the last statement inserted).
  EXPECT_EQ(got->size(), 2u);
  ExpectStorageClean(f);
}

/// An op sequence addresses nodes by ID, and IDs resolve through the
/// relations: ApplyOpsAndPropagateAll must flush the statements queued
/// before it, or ops on the nodes they inserted would find nothing.
TEST(DeferredViewTest, OpSequenceFlushesQueuedStatementsFirst) {
  ScopedInvariantAuditing audit(true);
  SmallFixture f("<r><a><b>1<c/></b></a></r>",
                 "//a{id,cont}(//b{id,val}(//c{id}))");
  ASSERT_TRUE(
      f.mgr.Defer(UpdateStmt::InsertForest("//a", "<b id=\"n\">2<d/></b>"))
          .ok());
  ASSERT_EQ(f.mgr.pending(), 1u);
  auto b = EvalXPathString(f.doc, "//b[@id=\"n\"]");
  auto d = EvalXPathString(f.doc, "//b[@id=\"n\"]/d");
  ASSERT_TRUE(b.ok() && d.ok());
  ASSERT_EQ(b->size(), 1u);
  ASSERT_EQ(d->size(), 1u);
  auto forest = std::make_shared<Document>(f.doc.dict_ptr());
  ASSERT_TRUE(ParseForest("<c>3</c>", forest.get()).ok());
  const OpSequence ops = {
      AtomicOp::InsInto(f.doc.node(b->front()).id, forest),
      AtomicOp::Del(f.doc.node(d->front()).id)};

  auto out = f.mgr.ApplyOpsAndPropagateAll(ops);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(f.mgr.pending(), 0u);
  EXPECT_EQ(out->nodes_inserted, 2u);  // <c> and its text
  EXPECT_EQ(out->nodes_deleted, 1u);   // <d/>
  ViewSnapshotPtr got = f.mgr.Snapshot(0);
  ExpectMatchesRecompute(*got, f.mgr, f.store);
  EXPECT_EQ(got->size(), 2u);
  ExpectStorageClean(f);
}

}  // namespace
}  // namespace xvm
