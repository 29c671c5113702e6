#include "view/costmodel.h"

#include <gtest/gtest.h>

#include "pattern/compile.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm {
namespace {

NodeSet Bits(std::initializer_list<int> ones, size_t k) {
  NodeSet s(k, false);
  for (int i : ones) s[static_cast<size_t>(i)] = true;
  return s;
}

TEST(UpdateProfileTest, FromObservedDeltas) {
  std::vector<std::unordered_map<std::string, size_t>> samples = {
      {{"name", 5}, {"person", 1}},
      {{"name", 3}},
  };
  UpdateProfile p = UpdateProfile::FromObservedDeltas(samples);
  EXPECT_DOUBLE_EQ(p.RateOf("name"), 4.0);
  EXPECT_DOUBLE_EQ(p.RateOf("person"), 0.5);
  EXPECT_DOUBLE_EQ(p.RateOf("never"), 0.0);
}

TEST(UpdateProfileTest, TotalRateSumsAllLabels) {
  UpdateProfile p;
  EXPECT_DOUBLE_EQ(p.TotalRate(), 0.0);
  p.Set("a", 1.5);
  p.Set("b", 0.5);
  EXPECT_DOUBLE_EQ(p.TotalRate(), 2.0);
}

/// A `*` node matches every label, so its Δ rate is the profile's total
/// and its leaf cardinality the store's total — not the 0 a literal "*"
/// lookup yields. Decision-level check: with updates that only ever touch
/// b nodes, the wildcard view //a{id}(//*{id}) must materialize the {a}
/// snowcap (the t_R of the firing term R_a Δ_*), exactly like the
/// label-spelled //a{id}(//b{id}) view does; the broken estimate scored
/// every wildcard term as never firing and chose nothing.
TEST(CostModelWildcardTest, WildcardViewChoosesSameSnowcapAsLabeledView) {
  std::string xml = "<r>";
  for (int i = 0; i < 20; ++i) xml += "<a><b><c/></b><b/><b/></a>";
  xml += "</r>";
  Document doc;
  ASSERT_TRUE(ParseDocument(xml, &doc).ok());
  StoreIndex store(&doc);
  store.Build();

  // The DSL lexer has no '*', so the wildcard pattern is built
  // programmatically.
  TreePattern wild;
  PatternNode root;
  root.label = "a";
  root.parent = -1;
  root.store_id = true;
  wild.AddNode(root);
  PatternNode star;
  star.label = "*";
  star.name = "star";
  star.parent = 0;
  star.store_id = true;
  wild.AddNode(star);

  auto labeled_or = TreePattern::Parse("//a{id}(//b{id})");
  ASSERT_TRUE(labeled_or.ok());
  TreePattern labeled = std::move(labeled_or).value();

  UpdateProfile profile;
  profile.Set("b", 2.0);

  auto labeled_choice = ChooseSnowcaps(labeled, store, profile, 8);
  auto wild_choice = ChooseSnowcaps(wild, store, profile, 8);
  ASSERT_EQ(labeled_choice.size(), 1u);
  EXPECT_EQ(labeled_choice[0], Bits({0}, 2));
  ASSERT_EQ(wild_choice.size(), 1u);
  EXPECT_EQ(wild_choice[0], Bits({0}, 2));
}

/// Cardinality side: a wildcard in a snowcap's R-part contributes the sum
/// of all relation sizes to the recompute cost it saves.
TEST(CostModelWildcardTest, WildcardLeafCostUsesTotalEntries) {
  std::string xml = "<r>";
  for (int i = 0; i < 10; ++i) xml += "<a><b><c/></b></a>";
  xml += "</r>";
  Document doc;
  ASSERT_TRUE(ParseDocument(xml, &doc).ok());
  StoreIndex store(&doc);
  store.Build();

  // //a{id}(//*(//c{id})): updates touch only c, so the one firing term's
  // t_R is {a, *} and its saved work includes a full wildcard scan.
  TreePattern pat;
  PatternNode root;
  root.label = "a";
  root.parent = -1;
  root.store_id = true;
  pat.AddNode(root);
  PatternNode star;
  star.label = "*";
  star.name = "star";
  star.parent = 0;
  pat.AddNode(star);
  PatternNode c;
  c.label = "c";
  c.parent = 1;
  c.store_id = true;
  pat.AddNode(c);

  UpdateProfile profile;
  profile.Set("c", 2.0);
  auto scores = ScoreSnowcaps(pat, store, profile);
  const SnowcapScore* entry = nullptr;
  for (const auto& s : scores) {
    if (s.nodes == Bits({0, 1}, 3)) entry = &s;
  }
  ASSERT_NE(entry, nullptr);
  // p = min(1, rate(c)) = 1; benefit ≥ |R_a| + Σ|R_l| > Σ|R_l| alone.
  EXPECT_GE(entry->benefit, static_cast<double>(store.TotalEntries()));
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A document where a/b relations are big and c small.
    std::string xml = "<r>";
    for (int i = 0; i < 20; ++i) xml += "<a><b><c/></b><b/><b/></a>";
    xml += "</r>";
    ASSERT_TRUE(ParseDocument(xml, &doc_).ok());
    store_ = std::make_unique<StoreIndex>(&doc_);
    store_->Build();
    auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
    ASSERT_TRUE(p.ok());
    pattern_ = std::move(p).value();
  }

  Document doc_;
  std::unique_ptr<StoreIndex> store_;
  TreePattern pattern_;
};

TEST_F(CostModelTest, LeafOnlyProfileChoosesTopSnowcap) {
  // Updates only ever add/remove c nodes: the only firing term is
  // R_a R_b Δ_c, whose t_R is the snowcap {a,b} — that's what to keep.
  UpdateProfile profile;
  profile.Set("c", 2.0);
  auto chosen = ChooseSnowcaps(pattern_, *store_, profile, 8);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], Bits({0, 1}, 3));
}

TEST_F(CostModelTest, NoUpdatesMeansNoSnowcaps) {
  UpdateProfile empty;
  EXPECT_TRUE(ChooseSnowcaps(pattern_, *store_, empty, 8).empty());
}

TEST_F(CostModelTest, BroadProfileRanksLargerSavingsFirst) {
  UpdateProfile profile;
  profile.Set("b", 1.0);
  profile.Set("c", 1.0);
  auto scores = ScoreSnowcaps(pattern_, *store_, profile);
  ASSERT_GE(scores.size(), 2u);
  // Both {a} (for Δ_bΔ_c terms) and {a,b} (for Δ_c terms) have benefits;
  // {a,b} saves more work because R_b is large.
  EXPECT_GE(scores[0].net(), scores[1].net());
  bool found_ab = false, found_a = false;
  for (const auto& s : scores) {
    if (s.nodes == Bits({0, 1}, 3)) found_ab = s.net() > 0;
    if (s.nodes == Bits({0}, 3)) found_a = s.net() > 0;
  }
  EXPECT_TRUE(found_ab);
  EXPECT_TRUE(found_a);
}

TEST_F(CostModelTest, MaxSnowcapsCapRespected) {
  UpdateProfile profile;
  profile.Set("b", 1.0);
  profile.Set("c", 1.0);
  EXPECT_LE(ChooseSnowcaps(pattern_, *store_, profile, 1).size(), 1u);
}

TEST(CostModelIntegrationTest, ChosenSnowcapsMaintainCorrectly) {
  Document doc;
  GenerateXMark(XMarkConfig{30 * 1024, 23}, &doc);
  StoreIndex store(&doc);
  store.Build();
  auto def = XMarkView("Q1");
  ASSERT_TRUE(def.ok());

  // Profile matching X1_L: inserts add name trees under persons.
  UpdateProfile profile;
  profile.Set("name", 5.0);
  auto chosen = ChooseSnowcaps(def->pattern(), store, profile, 4);
  ASSERT_FALSE(chosen.empty());

  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, chosen).ok());
  const MaintainedView& mv = mgr.view(0);
  auto u = FindXMarkUpdate("X1_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok());

  const TreePattern& pat = def->pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
  auto got = mv.view().Snapshot();
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got[i].tuple, truth[i].tuple);
    EXPECT_EQ(got[i].count, truth[i].count);
  }
}

TEST(CostModelIntegrationTest, CustomLatticeValidatesSnowcaps) {
  auto p = TreePattern::Parse("//a{id}(//b{id})");
  ASSERT_TRUE(p.ok());
  // A valid singleton {root}.
  ViewLattice ok(&*p, std::vector<NodeSet>{Bits({0}, 2)});
  EXPECT_EQ(ok.snowcaps().size(), 1u);
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
