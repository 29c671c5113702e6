// Tests for the debug-mode invariant auditor (common/invariant.h,
// store/audit.h, view/audit.h): a healthy workbench audits clean, and each
// deliberately injected corruption — out-of-order canonical tuple, dangling
// relation entry, mislabeled entry, dangling Dewey parent, stale attribute
// index, diverged view content, out-of-order snowcap — is reported with a
// precise diagnostic. Also covers the runtime gate and the abort wiring in
// the maintenance layer.

#include <gtest/gtest.h>

#include "common/invariant.h"
#include "pattern/compile.h"
#include "store/audit.h"
#include "view/audit.h"
#include "view/maintain.h"
#include "view/manager.h"

namespace xvm {
namespace {

/// r / (a(b,c), a(b), d) — enough structure for every corruption below.
struct Workbench {
  Workbench() : store(&doc) {
    NodeHandle r = doc.CreateRoot("r");
    NodeHandle a1 = doc.AppendElement(r, "a");
    doc.AppendElement(a1, "b");
    doc.AppendElement(a1, "c");
    NodeHandle a2 = doc.AppendElement(r, "a");
    b2 = doc.AppendElement(a2, "b");
    doc.AppendElement(r, "d");
    store.Build();
  }

  LabelId Label(const char* name) const { return doc.dict().Lookup(name); }

  Document doc;
  StoreIndex store;
  NodeHandle b2 = kNullNode;
};

TEST(InvariantAuditTest, CleanWorkbenchAuditsOk) {
  Workbench wb;
  InvariantReport report;
  AuditStorageLayer(wb.doc, wb.store, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantAuditTest, CleanViewAuditsOk) {
  Workbench wb;
  auto pattern = TreePattern::Parse("//a{id}(/b{id})");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  MaintainedView mv(std::move(def).value(), &wb.store,
                    LatticeStrategy::kLeaves);
  mv.Initialize();
  InvariantReport report;
  AuditViewContent(mv, wb.store, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// FindById binary-searches the relation, so an entry out of document
/// order no longer resolves back to itself.
TEST(InvariantAuditTest, UnresolvableIdReported) {
  Workbench wb;
  auto* nodes = wb.store.MutableNodesForTesting(wb.Label("a"));
  ASSERT_EQ(nodes->size(), 2u);
  std::swap((*nodes)[0], (*nodes)[1]);
  InvariantReport report;
  AuditStoreIndex(wb.doc, wb.store, &report);
  ASSERT_TRUE(report.Has("store.find_by_id")) << report.ToString();
  EXPECT_NE(report.ToString().find("in relation 'a' does not resolve"),
            std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, OutOfOrderTupleReported) {
  Workbench wb;
  auto* nodes = wb.store.MutableNodesForTesting(wb.Label("a"));
  ASSERT_EQ(nodes->size(), 2u);
  std::swap((*nodes)[0], (*nodes)[1]);
  InvariantReport report;
  AuditStoreIndex(wb.doc, wb.store, &report);
  ASSERT_TRUE(report.Has("store.document_order")) << report.ToString();
  // The diagnostic names the relation and the offending entry pair.
  EXPECT_NE(report.ToString().find("relation 'a' entries 0 and 1"),
            std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, DanglingEntryReported) {
  Workbench wb;
  // Delete a subtree behind the store's back: its relation entries dangle.
  std::vector<NodeHandle> removed = wb.doc.DeleteSubtree(wb.b2);
  ASSERT_EQ(removed.size(), 1u);
  InvariantReport report;
  AuditStoreIndex(wb.doc, wb.store, &report);
  EXPECT_TRUE(report.Has("store.alive")) << report.ToString();
  EXPECT_TRUE(report.Has("store.complete")) << report.ToString();
  EXPECT_NE(report.ToString().find("dead node#" + std::to_string(wb.b2)),
            std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, MissingEntryReported) {
  Workbench wb;
  auto* nodes = wb.store.MutableNodesForTesting(wb.Label("d"));
  ASSERT_EQ(nodes->size(), 1u);
  nodes->clear();
  InvariantReport report;
  AuditStoreIndex(wb.doc, wb.store, &report);
  ASSERT_TRUE(report.Has("store.complete")) << report.ToString();
}

TEST(InvariantAuditTest, MislabeledEntryReported) {
  Workbench wb;
  // Move a b-node into the c-relation: label mismatch, totals unchanged.
  auto* b_nodes = wb.store.MutableNodesForTesting(wb.Label("b"));
  auto* c_nodes = wb.store.MutableNodesForTesting(wb.Label("c"));
  c_nodes->push_back(b_nodes->back());
  b_nodes->pop_back();
  InvariantReport report;
  AuditStoreIndex(wb.doc, wb.store, &report);
  ASSERT_TRUE(report.Has("store.label")) << report.ToString();
}

TEST(InvariantAuditTest, DanglingDeweyParentReported) {
  Workbench wb;
  // Re-root b2's ID under the document root: its ID-parent no longer equals
  // its actual parent's ID (the §2.1 self-describing property breaks).
  Node& n = wb.doc.MutableNodeForTesting(wb.b2);
  const DeweyStep last = n.id.steps().back();
  n.id = wb.doc.node(wb.doc.root()).id.Child(last.label, last.ord);
  InvariantReport report;
  AuditDocument(wb.doc, &report);
  ASSERT_TRUE(report.Has("dewey.parent_prefix")) << report.ToString();
}

TEST(InvariantAuditTest, WrongIdLabelReported) {
  Workbench wb;
  Node& n = wb.doc.MutableNodeForTesting(wb.b2);
  n.label = wb.Label("c");  // node relabeled, ID still says "b"
  InvariantReport report;
  AuditDocument(wb.doc, &report);
  ASSERT_TRUE(report.Has("dewey.label")) << report.ToString();
}

TEST(InvariantAuditTest, StaleAttributeIndexReported) {
  Workbench wb;
  const NodeHandle id = wb.doc.AppendAttribute(wb.b2, "id", "b2");
  InvariantReport clean;
  AuditDocument(wb.doc, &clean);
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  // Edit the value behind the index's back: the index still files the node
  // under "b2", so a lookup of its new value misses it.
  wb.doc.MutableNodeForTesting(id).text = "b9";
  InvariantReport report;
  AuditDocument(wb.doc, &report);
  ASSERT_TRUE(report.Has("document.attr_index")) << report.ToString();
}

TEST(InvariantAuditTest, ViewDivergenceReported) {
  Workbench wb;
  auto pattern = TreePattern::Parse("//a{id}(/b{id})");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  MaintainedView mv(std::move(def).value(), &wb.store,
                    LatticeStrategy::kLeaves);
  mv.Initialize();
  auto snapshot = mv.view().Snapshot();
  ASSERT_FALSE(snapshot.empty());
  // A phantom extra derivation of an existing tuple.
  mv.mutable_view().AddDerivations(snapshot[0].tuple, 1);
  InvariantReport report;
  AuditViewContent(mv, wb.store, &report);
  ASSERT_TRUE(report.Has("view.matches_recompute")) << report.ToString();
  EXPECT_NE(report.ToString().find("view 'v' diverges"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, SnowcapOutOfOrderReported) {
  Workbench wb;
  auto pattern = TreePattern::Parse("//a{id}(/b{id})");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  MaintainedView mv(std::move(def).value(), &wb.store,
                    LatticeStrategy::kSnowcaps);
  mv.Initialize();
  auto& rows = mv.mutable_lattice().snowcaps().at(0).data.rows;
  ASSERT_EQ(rows.size(), 2u);
  std::swap(rows[0], rows[1]);
  InvariantReport report;
  AuditViewContent(mv, wb.store, &report);
  ASSERT_TRUE(report.Has("view.snowcap_matches_recompute"))
      << report.ToString();
  EXPECT_NE(report.ToString().find("snowcap {a} diverges"), std::string::npos)
      << report.ToString();
  EXPECT_FALSE(report.Has("view.matches_recompute")) << report.ToString();
}

TEST(InvariantAuditTest, ViewStoreOutOfOrderReported) {
  Workbench wb;
  auto pattern = TreePattern::Parse("//a{id}(/b{id})");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  MaintainedView mv(std::move(def).value(), &wb.store,
                    LatticeStrategy::kLeaves);
  mv.Initialize();
  ASSERT_GE(mv.view().size(), 2u);
  {
    InvariantReport clean;
    AuditViewContent(mv, wb.store, &clean);
    EXPECT_FALSE(clean.Has("view.store_structure")) << clean.ToString();
  }
  // Same entries, same index, same counts: only the order breaks.
  mv.mutable_view().SwapEntriesForTesting(0, 1);
  InvariantReport report;
  AuditViewContent(mv, wb.store, &report);
  ASSERT_TRUE(report.Has("view.store_structure")) << report.ToString();
  EXPECT_NE(report.ToString().find("not above its predecessor in ID order"),
            std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, RuntimeGateOverridesAndRestores) {
  const bool initial = InvariantAuditingEnabled();
  {
    ScopedInvariantAuditing on(true);
    EXPECT_TRUE(InvariantAuditingEnabled());
    {
      ScopedInvariantAuditing off(false);
      EXPECT_FALSE(InvariantAuditingEnabled());
    }
    EXPECT_TRUE(InvariantAuditingEnabled());
  }
  EXPECT_EQ(InvariantAuditingEnabled(), initial);
}

TEST(InvariantAuditDeathTest, ManagerAbortsOnCorruptStore) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Workbench wb;
  ViewManager mgr(&wb.doc, &wb.store);
  auto pattern = TreePattern::Parse("//a{id}");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kLeaves).ok());
  auto* nodes = wb.store.MutableNodesForTesting(wb.Label("a"));
  std::swap((*nodes)[0], (*nodes)[1]);
  EXPECT_DEATH(
      {
        ScopedInvariantAuditing on(true);
        auto out = mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//d[a]"));
        (void)out;  // NOLINT(xvm-status): unreachable, the audit aborts
      },
      "store.document_order|exec.leaf_contract");
}

TEST(InvariantAuditDeathTest, ManagerAbortsOnSnowcapOutOfOrder) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Workbench wb;
  ViewManager mgr(&wb.doc, &wb.store);
  auto pattern = TreePattern::Parse("//a{id}(/b{id})");
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(pattern).value());
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  // Snowcap {a} holds both a's; swapping them breaks its declared order
  // without changing its content.
  auto& snowcaps = mgr.mutable_view(0).mutable_lattice().snowcaps();
  ASSERT_EQ(snowcaps.size(), 1u);
  ASSERT_EQ(snowcaps[0].data.size(), 2u);
  std::swap(snowcaps[0].data.rows[0], snowcaps[0].data.rows[1]);
  EXPECT_DEATH(
      {
        ScopedInvariantAuditing on(true);
        // Touches no term over the snowcap: only the auditor can notice.
        auto out = mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//d"));
        (void)out;  // NOLINT(xvm-status): unreachable, the audit aborts
      },
      "view.snowcap_matches_recompute");
}

}  // namespace
}  // namespace xvm
