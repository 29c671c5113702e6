#include "view/terms.h"

#include <gtest/gtest.h>

#include "view/lattice.h"
#include "xml/parser.h"

namespace xvm {
namespace {

NodeSet Bits(std::initializer_list<int> ones, size_t k) {
  NodeSet s(k, false);
  for (int i : ones) s[static_cast<size_t>(i)] = true;
  return s;
}

TEST(TermsTest, DeltaSetsOfChainAreSuffixes) {
  // //a//b//c: descendant-closed sets are {c}, {b,c}, {a,b,c}.
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(p.ok());
  auto sets = EnumerateDeltaSets(*p);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], Bits({2}, 3));
  EXPECT_EQ(sets[1], Bits({1, 2}, 3));
  EXPECT_EQ(sets[2], Bits({0, 1, 2}, 3));
}

/// Each non-full Δ-set's complement (its term's R-part) is a proper
/// snowcap (Def. 3.11): it contains the root and is upward-closed. With the
/// full set, whose R-part is empty, the Δ-sets are one per snowcap.
void ExpectComplementsAreSnowcaps(const TreePattern& p,
                                  const std::vector<NodeSet>& sets) {
  for (const auto& s : sets) {
    if (NodeSetCount(s) == p.size()) continue;
    EXPECT_FALSE(s[0]);
    for (size_t i = 1; i < p.size(); ++i) {
      const int parent = p.node(static_cast<int>(i)).parent;
      if (!s[i]) {
        EXPECT_FALSE(s[static_cast<size_t>(parent)]);
      }
    }
  }
}

TEST(TermsTest, Figure6ViewSnowcaps) {
  // v1 = //a[//b//c]//d (Figure 6): snowcaps are a, ab, ad, abc, abd, abcd
  // — 6 of them (boxed nodes in the figure plus the full pattern).
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}),//d{id})");
  ASSERT_TRUE(p.ok());
  // Delta sets are their complements minus empty, plus the full set.
  auto sets = EnumerateDeltaSets(*p);
  EXPECT_EQ(sets.size(), 6u);  // d, c, cd, bc, bcd, abcd
  for (const auto& s : sets) {
    // Descendant-closure: b in Δ implies c in Δ; a implies everything.
    if (s[1]) { EXPECT_TRUE(s[2]); }
    if (s[0]) { EXPECT_TRUE(s[1] && s[2] && s[3]); }
  }
  ExpectComplementsAreSnowcaps(*p, sets);
}

TEST(TermsTest, Figure7ViewSnowcapCount) {
  // v2 = //a[//b][//c]//d (Figure 7 shape): every subset containing the
  // root is upward-closed => 2^3 = 8 snowcaps, so 8 Δ-sets.
  auto p = TreePattern::Parse("//a{id}(//b{id},//c{id},//d{id})");
  ASSERT_TRUE(p.ok());
  auto sets = EnumerateDeltaSets(*p);
  EXPECT_EQ(sets.size(), 8u);
  ExpectComplementsAreSnowcaps(*p, sets);
}

TEST(TermsTest, DeltaSetsWithinSubLattice) {
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(p.ok());
  // Within snowcap {a,b}: delta sets are {b}, {a,b}.
  auto sets = EnumerateDeltaSetsWithin(*p, Bits({0, 1}, 3));
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], Bits({1}, 3));
  EXPECT_EQ(sets[1], Bits({0, 1}, 3));
}

class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ParseDocument("<r><a><b><c/></b></a></r>", &doc_).ok());
    auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
    ASSERT_TRUE(p.ok());
    pattern_ = std::move(p).value();
  }

  DeltaTables DeltaFor(const std::string& forest_xml,
                       const std::string& target) {
    UpdateStmt u = UpdateStmt::InsertForest(target, forest_xml);
    auto pul = ComputePul(doc_, u);
    EXPECT_TRUE(pul.ok());
    ApplyResult applied = ApplyPul(&doc_, *pul, nullptr);
    return ComputeDeltaPlus(doc_, applied);
  }

  Document doc_;
  TreePattern pattern_;
};

TEST_F(PruningTest, EmptyDeltaPrunes) {
  // Example 3.4: insert without any c.
  DeltaTables delta = DeltaFor("<a><b/><b/></a>", "//a/b");
  NodeSet c_only = Bits({2}, 3);
  EXPECT_TRUE(TermPrunedByEmptyDelta(pattern_, c_only, delta, doc_.dict()));
  NodeSet bc = Bits({1, 2}, 3);
  EXPECT_TRUE(TermPrunedByEmptyDelta(pattern_, bc, delta, doc_.dict()));
}

TEST_F(PruningTest, AnchorPathPrunes) {
  // Example 3.7: insert <b><c/></b> under a node whose path has no b above:
  // term R_a R_b Δ_c requires an existing b above the insertion point.
  DeltaTables delta = DeltaFor("<b><c/></b>", "/r/a");
  NodeSet all(3, true);
  NodeSet c_only = Bits({2}, 3);  // R_a R_b Δ_c
  EXPECT_TRUE(TermPrunedByAnchorPaths(pattern_, c_only, all, delta,
                                      doc_.dict()));
  // Term R_a Δ_b Δ_c survives: the anchor (a) has label a on its path.
  NodeSet bc = Bits({1, 2}, 3);
  EXPECT_FALSE(TermPrunedByAnchorPaths(pattern_, bc, all, delta,
                                       doc_.dict()));
}

TEST_F(PruningTest, AnchorPathAllowsWhenAncestorLabelPresent) {
  // Inserting <c/> under the existing b: R_a R_b Δ_c must NOT be pruned.
  DeltaTables delta = DeltaFor("<c/>", "//a/b");
  NodeSet all(3, true);
  NodeSet c_only = Bits({2}, 3);
  EXPECT_FALSE(TermPrunedByAnchorPaths(pattern_, c_only, all, delta,
                                       doc_.dict()));
}

TEST(LatticeTest, SnowcapChainForChain) {
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id},//d{id})))");
  ASSERT_FALSE(p.ok());  // deliberate syntax check: unbalanced parens
  auto p2 = TreePattern::Parse("//a{id}(//b{id}(//c{id},//d{id}))");
  ASSERT_TRUE(p2.ok());
  ViewLattice lattice(&*p2, LatticeStrategy::kSnowcaps);
  // Proper snowcaps of sizes 1..3, chained by inclusion.
  ASSERT_EQ(lattice.snowcaps().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(NodeSetCount(lattice.snowcaps()[i].nodes), i + 1);
    if (i > 0) {
      for (size_t b = 0; b < 4; ++b) {
        if (lattice.snowcaps()[i - 1].nodes[b]) {
          EXPECT_TRUE(lattice.snowcaps()[i].nodes[b]);
        }
      }
    }
  }
}

TEST(LatticeTest, LeavesStrategyMaterializesNothing) {
  auto p = TreePattern::Parse("//a{id}(//b{id})");
  ASSERT_TRUE(p.ok());
  ViewLattice lattice(&*p, LatticeStrategy::kLeaves);
  EXPECT_TRUE(lattice.snowcaps().empty());
  EXPECT_EQ(lattice.TotalTuples(), 0u);
}

TEST(LatticeTest, SingleNodeViewHasNoProperSnowcaps) {
  auto p = TreePattern::Parse("//a{id}");
  ASSERT_TRUE(p.ok());
  ViewLattice lattice(&*p, LatticeStrategy::kSnowcaps);
  EXPECT_TRUE(lattice.snowcaps().empty());
}

TEST(LatticeTest, ChainHoldsOnlyProperSnowcaps) {
  auto p = TreePattern::Parse("//a{id}(//b{id}(//c{id}))");
  ASSERT_TRUE(p.ok());
  ViewLattice lattice(&*p, LatticeStrategy::kSnowcaps);
  std::vector<NodeSet> nodes;
  for (const MaterializedSnowcap& sc : lattice.snowcaps()) {
    nodes.push_back(sc.nodes);
  }
  // {a} and {a,b}; neither the full set (the view itself) nor a set that is
  // not upward-closed.
  EXPECT_EQ(nodes, (std::vector<NodeSet>{Bits({0}, 3), Bits({0, 1}, 3)}));
}

}  // namespace
}  // namespace xvm
