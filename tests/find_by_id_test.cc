// ID resolution through the canonical relations: StoreIndex::FindById is a
// binary search of R_label(id) and must agree with a brute-force scan of
// the document's alive nodes, on random documents, after random statement
// streams, and after a checkpoint reload. Between a statement's PUL
// application and its roll-forward, deleted nodes must no longer resolve.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "store/canonical.h"
#include "update/update.h"
#include "view/persist.h"
#include "xml/document.h"

namespace xvm {
namespace {

constexpr const char* kLabels[] = {"a", "b", "c", "d"};
constexpr size_t kNumLabels = 4;

/// A random document of ~`n` elements, some with an `id` attribute or a
/// text child, so every node kind has its own relation.
void RandomDocument(Rng* rng, int n, Document* doc) {
  std::vector<NodeHandle> elements = {doc->CreateRoot("r")};
  for (int i = 0; i < n; ++i) {
    NodeHandle parent = elements[rng->Uniform(elements.size())];
    NodeHandle fresh =
        doc->AppendElement(parent, kLabels[rng->Uniform(kNumLabels)]);
    elements.push_back(fresh);
    if (rng->Chance(1, 3)) {
      doc->AppendAttribute(fresh, "id", "k" + std::to_string(rng->Uniform(5)));
    }
    if (rng->Chance(1, 4)) doc->AppendText(fresh, "t");
  }
}

UpdateStmt RandomStatement(Rng* rng) {
  std::string target = std::string("//") + kLabels[rng->Uniform(kNumLabels)];
  if (rng->Chance(1, 2)) {
    target += "[@id=\"k" + std::to_string(rng->Uniform(5)) + "\"]";
  }
  switch (rng->Uniform(3)) {
    case 0:
      return UpdateStmt::Delete(target);
    case 1:
      return UpdateStmt::ReplaceContent(target, "<d/>t");
    default: {
      const std::string label = kLabels[rng->Uniform(kNumLabels)];
      return UpdateStmt::InsertForest(
          target, "<" + label + " id=\"k1\"><b>t</b><c/></" + label + ">");
    }
  }
}

/// Every alive node of `doc` by ID, collected by a scan of the whole
/// document: the brute-force resolver FindById is checked against.
std::map<DeweyId, NodeHandle> ScanAllNodes(const Document& doc) {
  std::map<DeweyId, NodeHandle> out;
  for (NodeHandle h : doc.AllNodes()) out.emplace(doc.node(h).id, h);
  return out;
}

/// IDs no alive node carries: a child below a leaf, a sibling slot between
/// two adjacent siblings, a label missing from the dictionary, and the
/// empty ID.
std::vector<DeweyId> UnusedIds(const Document& doc) {
  std::vector<DeweyId> out = {DeweyId()};
  const LabelId missing = static_cast<LabelId>(doc.dict().size() + 7);
  out.push_back(DeweyId::Root(missing));
  for (NodeHandle h : doc.AllNodes()) {
    const Node& n = doc.node(h);
    if (n.first_child == kNullNode) {
      out.push_back(n.id.Child(n.label, OrdKey::First()));
    }
    if (n.next_sibling != kNullNode && n.parent != kNullNode) {
      const OrdKey& lo = n.id.steps().back().ord;
      const OrdKey& hi = doc.node(n.next_sibling).id.steps().back().ord;
      out.push_back(doc.node(n.parent).id.Child(n.label,
                                                OrdKey::Between(lo, hi)));
    }
    out.push_back(n.id.Child(missing, OrdKey::First()));
  }
  return out;
}

/// FindById equals the brute-force scan on every alive node's ID, on every
/// ID in `extra`, and on IDs no alive node carries.
void ExpectAgreesWithScan(const Document& doc, const StoreIndex& store,
                          const std::vector<DeweyId>& extra,
                          const std::string& context) {
  const std::map<DeweyId, NodeHandle> scanned = ScanAllNodes(doc);
  ASSERT_EQ(scanned.size(), doc.num_alive()) << context;
  for (const auto& [id, h] : scanned) {
    ASSERT_EQ(store.FindById(id), h) << context << " " << id.ToString();
  }
  for (const DeweyId& id : extra) {
    auto it = scanned.find(id);
    ASSERT_EQ(store.FindById(id), it == scanned.end() ? kNullNode : it->second)
        << context << " " << id.ToString();
  }
  for (const DeweyId& id : UnusedIds(doc)) {
    ASSERT_EQ(store.FindById(id), kNullNode) << context << " " << id.ToString();
  }
}

class FindByIdTest : public ::testing::TestWithParam<int> {};

TEST_P(FindByIdTest, AgreesWithScanOnRandomDocuments) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  Document doc;
  RandomDocument(&rng, 200, &doc);
  StoreIndex store(&doc);
  store.Build();
  ExpectAgreesWithScan(doc, store, {}, "fresh");
}

TEST_P(FindByIdTest, AgreesWithScanUnderStatementStream) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  Document doc;
  RandomDocument(&rng, 120, &doc);
  StoreIndex store(&doc);
  store.Build();
  // IDs of every node the stream deletes: each must either stop resolving
  // or, when a later insert reuses the ID, resolve to the live node.
  std::vector<DeweyId> gone;
  for (int step = 0; step < 15 && doc.root() != kNullNode; ++step) {
    UpdateStmt stmt = RandomStatement(&rng);
    while (doc.num_alive() > 600 && stmt.kind != UpdateStmt::Kind::kDelete) {
      stmt = RandomStatement(&rng);
    }
    StatusOr<Pul> pul = ComputePul(doc, stmt);
    ASSERT_TRUE(pul.ok()) << pul.status().ToString();
    // The maintenance flows' order: apply, read, then roll forward. While
    // the relations lag, neither a deleted nor an inserted node resolves
    // (an inserted node may reuse a deleted node's ID), and survivors do.
    ApplyResult applied = ApplyPul(&doc, *pul, /*store=*/nullptr);
    for (const std::vector<NodeHandle>* nodes :
         {&applied.deleted_nodes, &applied.inserted_nodes}) {
      for (NodeHandle h : *nodes) {
        ASSERT_EQ(store.FindById(doc.node(h).id), kNullNode)
            << "step " << step << " " << doc.node(h).id.ToString();
      }
    }
    for (NodeHandle h : applied.deleted_nodes) {
      gone.push_back(doc.node(h).id);
    }
    store.OnNodesRemoved(applied.deleted_nodes);
    store.OnNodesAdded(applied.inserted_nodes);
    ExpectAgreesWithScan(doc, store, gone, "step " + std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindByIdTest, ::testing::Range(1, 9));

/// Between ApplyPul and the roll-forward the relations still hold the
/// deleted nodes; their IDs must not resolve to them.
TEST(FindByIdLagTest, DeletedNodeInPreRollForwardRelationIsNull) {
  Rng rng(3);
  Document doc;
  RandomDocument(&rng, 150, &doc);
  StoreIndex store(&doc);
  store.Build();
  StatusOr<Pul> pul = ComputePul(doc, UpdateStmt::Delete("//b"));
  ASSERT_TRUE(pul.ok());
  ApplyResult applied = ApplyPul(&doc, *pul, /*store=*/nullptr);
  ASSERT_FALSE(applied.deleted_nodes.empty());
  for (NodeHandle h : applied.deleted_nodes) {
    const Node& n = doc.node(h);
    const std::vector<NodeHandle>& rel = store.Relation(n.label).nodes();
    ASSERT_NE(std::find(rel.begin(), rel.end(), h), rel.end());
    EXPECT_EQ(store.FindById(n.id), kNullNode) << n.id.ToString();
  }
  // Survivors still resolve while the relations lag.
  for (NodeHandle h : doc.AllNodes()) {
    EXPECT_EQ(store.FindById(doc.node(h).id), h);
  }
  store.OnNodesRemoved(applied.deleted_nodes);
  ExpectAgreesWithScan(doc, store, {}, "rolled forward");
}

TEST(FindByIdReloadTest, IdsResolveAfterCheckpointReload) {
  Rng rng(17);
  Document src;
  RandomDocument(&rng, 300, &src);
  // A few statements first, so the reloaded IDs include dynamic ones.
  StoreIndex src_store(&src);
  src_store.Build();
  for (int i = 0; i < 6; ++i) {
    StatusOr<Pul> pul = ComputePul(src, RandomStatement(&rng));
    ASSERT_TRUE(pul.ok());
    ApplyPul(&src, *pul, &src_store);
  }
  ASSERT_NE(src.root(), kNullNode);

  Document dst;
  ASSERT_TRUE(LoadDocumentFromBytes(SaveDocumentToBytes(src), &dst).ok());
  StoreIndex dst_store(&dst);
  dst_store.Build();
  ExpectAgreesWithScan(dst, dst_store, {}, "reloaded");
  for (NodeHandle h : src.AllNodes()) {
    const NodeHandle got = dst_store.FindById(src.node(h).id);
    ASSERT_NE(got, kNullNode) << src.node(h).id.ToString();
    EXPECT_EQ(dst.node(got).text, src.node(h).text);
  }
}

}  // namespace
}  // namespace xvm
