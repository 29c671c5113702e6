// Snowcap upkeep: after every statement each materialized snowcap equals its
// re-materialization row for row, in the binding order its plan leaf
// declares, with payload columns that follow content changes.

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "pattern/compile.h"
#include "view/manager.h"
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

/// Every materialized snowcap equals its re-materialization row for row:
/// same bindings, in the binding order its plan leaf declares.
void ExpectSnowcapsRematerialize(const MaintainedView& mv,
                                 const StoreIndex& store,
                                 const std::string& context) {
  const TreePattern& pat = mv.def().pattern();
  ASSERT_FALSE(mv.lattice().snowcaps().empty()) << context;
  for (const MaterializedSnowcap& sc : mv.lattice().snowcaps()) {
    const Relation truth =
        EvalTreePattern(pat, StoreLeafSource(&store, &pat), &sc.nodes);
    EXPECT_EQ(sc.data.rows, truth.rows)
        << context << ": snowcap " << NodeSetToString(pat, sc.nodes);
  }
}

/// Bidders inserted into an earlier open_auction after a later one has
/// grown: the new snowcap rows belong in the middle, not at the end.
TEST(SnowcapMaintainTest, InsertsKeepSnowcapsInBindingOrder) {
  Document doc;
  ASSERT_TRUE(ParseDocument("<site><open_auctions>"
                            "<open_auction id=\"a1\"><bidder><increase>1"
                            "</increase></bidder></open_auction>"
                            "<open_auction id=\"a2\"><bidder><increase>2"
                            "</increase></bidder></open_auction>"
                            "</open_auctions></site>",
                            &doc)
                  .ok());
  StoreIndex store(&doc);
  store.Build();
  auto def = ViewDefinition::Create(
      "v", "//open_auction{id}(/bidder{id}(/increase{id,cont}))");
  ASSERT_TRUE(def.ok());
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, LatticeStrategy::kSnowcaps).ok());
  const char* bidder = "<bidder><increase>3</increase></bidder>";
  for (const char* target : {"//open_auction[@id=\"a2\"]",
                             "//open_auction[@id=\"a1\"]",
                             "//open_auction[@id=\"a1\"]"}) {
    auto out = mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest(target,
                                                                 bidder));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSnowcapsRematerialize(mgr.view(0), store, target);
    ExpectViewEquals(mgr.view(0).view(), GroundTruth(*def, store), target);
  }
}

/// A snowcap storing val must follow content changes below its nodes: the
/// second insert's term reads b's val from snowcap {a,b}, and b is not an
/// ancestor of that insert, so PIMT would not repair a stale copy.
TEST(SnowcapMaintainTest, SnowcapPayloadsFollowContentChanges) {
  Document doc;
  ASSERT_TRUE(ParseDocument("<r><a><b>x</b></a></r>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  auto def = ViewDefinition::Create("v", "//a{id}(/b{id,val},/c{id})");
  ASSERT_TRUE(def.ok());
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, LatticeStrategy::kSnowcaps).ok());
  const UpdateStmt stmts[] = {
      UpdateStmt::InsertForest("//b", "<d>y</d>"),  // b.val: x -> xy
      UpdateStmt::InsertForest("//a", "<c/>"),
      UpdateStmt::Delete("//b/d"),                  // b.val: xy -> x
      UpdateStmt::InsertForest("//a", "<c/>"),
  };
  for (size_t i = 0; i < std::size(stmts); ++i) {
    const std::string context = "statement " + std::to_string(i);
    auto out = mgr.ApplyAndPropagateAll(stmts[i]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSnowcapsRematerialize(mgr.view(0), store, context);
    ExpectViewEquals(mgr.view(0).view(), GroundTruth(*def, store), context);
  }
}

}  // namespace
}  // namespace xvm
