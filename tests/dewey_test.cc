#include "ids/dewey.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace xvm {
namespace {

DeweyId Make(std::initializer_list<std::pair<LabelId, int64_t>> steps) {
  std::vector<DeweyStep> s;
  for (const auto& [label, ord] : steps) {
    s.push_back(DeweyStep{label, OrdKey({ord})});
  }
  return DeweyId(std::move(s));
}

TEST(DeweyIdTest, RootProperties) {
  DeweyId root = DeweyId::Root(5);
  EXPECT_EQ(root.depth(), 1u);
  EXPECT_EQ(root.label(), 5u);
  EXPECT_TRUE(root.Parent().empty());
}

TEST(DeweyIdTest, ChildAndParent) {
  DeweyId root = DeweyId::Root(1);
  DeweyId child = root.Child(2, OrdKey::First());
  EXPECT_EQ(child.depth(), 2u);
  EXPECT_EQ(child.label(), 2u);
  EXPECT_EQ(child.Parent(), root);
  EXPECT_TRUE(root.IsParentOf(child));
  EXPECT_TRUE(root.IsAncestorOf(child));
  EXPECT_FALSE(child.IsAncestorOf(root));
}

TEST(DeweyIdTest, GrandchildIsAncestorNotParent) {
  DeweyId a = Make({{1, 0}});
  DeweyId c = Make({{1, 0}, {2, 0}, {3, 0}});
  EXPECT_TRUE(a.IsAncestorOf(c));
  EXPECT_FALSE(a.IsParentOf(c));
  EXPECT_TRUE(a.IsAncestorOrSelf(c));
  EXPECT_TRUE(a.IsAncestorOrSelf(a));
  EXPECT_FALSE(a.IsAncestorOf(a));
}

TEST(DeweyIdTest, SiblingsAreUnrelated) {
  DeweyId b1 = Make({{1, 0}, {2, 0}});
  DeweyId b2 = Make({{1, 0}, {2, 1}});
  EXPECT_FALSE(b1.IsAncestorOf(b2));
  EXPECT_FALSE(b2.IsAncestorOf(b1));
  EXPECT_LT(b1, b2);
}

TEST(DeweyIdTest, DocumentOrderIsPreOrder) {
  // a < a.b < a.b.c < a.x(after b)
  DeweyId a = Make({{1, 0}});
  DeweyId ab = Make({{1, 0}, {2, 0}});
  DeweyId abc = Make({{1, 0}, {2, 0}, {3, 0}});
  DeweyId ax = Make({{1, 0}, {4, 1}});
  EXPECT_LT(a, ab);
  EXPECT_LT(ab, abc);
  EXPECT_LT(abc, ax);
}

TEST(DeweyIdTest, LabelPathAndAncestorQueries) {
  DeweyId id = Make({{10, 0}, {20, 1}, {30, 2}});
  // The label path is read off the ancestors' last steps.
  ASSERT_EQ(id.depth(), 3u);
  EXPECT_EQ(id.AncestorAtDepth(1).label(), 10u);
  EXPECT_EQ(id.AncestorAtDepth(2).label(), 20u);
  EXPECT_EQ(id.label(), 30u);
  // PathFilter semantics: proper ancestors only.
  EXPECT_TRUE(id.HasAncestorLabeled(10));
  EXPECT_TRUE(id.HasAncestorLabeled(20));
  EXPECT_FALSE(id.HasAncestorLabeled(30));  // self, not ancestor
  EXPECT_TRUE(id.HasAncestorOrSelfLabeled(30));
  EXPECT_FALSE(id.HasAncestorOrSelfLabeled(99));
}

TEST(DeweyIdTest, AncestorAtDepth) {
  DeweyId id = Make({{1, 0}, {2, 1}, {3, 2}});
  EXPECT_EQ(id.AncestorAtDepth(1), Make({{1, 0}}));
  EXPECT_EQ(id.AncestorAtDepth(2), Make({{1, 0}, {2, 1}}));
  EXPECT_EQ(id.AncestorAtDepth(3), id);
}

TEST(DeweyIdTest, EncodeDecodeRoundTrip) {
  DeweyId id = Make({{1, 0}, {200, -3}, {70000, 123456789}});
  std::string enc = id.Encode();
  DeweyId back;
  ASSERT_TRUE(DeweyId::Decode(enc, &back));
  EXPECT_EQ(back, id);
}

TEST(DeweyIdTest, DecodeRejectsGarbage) {
  DeweyId out;
  EXPECT_FALSE(DeweyId::Decode("\xFF\xFF\xFF", &out));
  DeweyId id = Make({{1, 0}, {2, 1}});
  std::string enc = id.Encode();
  EXPECT_FALSE(DeweyId::Decode(enc + "x", &out));  // trailing bytes
}

TEST(DeweyIdTest, EncodingIsCompact) {
  // A depth-8 ID with small labels/ordinals should encode in < 3 bytes per
  // step (the "compact" property of §2.1).
  std::vector<DeweyStep> steps;
  for (int i = 0; i < 8; ++i) steps.push_back({LabelId(i), OrdKey({i})});
  DeweyId id((std::vector<DeweyStep>(steps)));
  EXPECT_LE(id.Encode().size(), 8u * 3 + 1);
}

TEST(DeweyIdTest, PathNavigateToParents) {
  DeweyId ab = Make({{1, 0}, {2, 0}});
  DeweyId ac = Make({{1, 0}, {3, 1}});
  DeweyId a = Make({{1, 0}});
  auto parents = PathNavigateToParents({ac, ab, a});
  // Both children map to the same parent; the root is dropped.
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], a);
}

// Property: document-order comparison agrees with ancestor relations for
// randomly generated tree IDs.
TEST(DeweyIdPropertyTest, AncestorImpliesSmaller) {
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    size_t depth = 1 + rng.Uniform(6);
    std::vector<DeweyStep> steps;
    for (size_t i = 0; i < depth; ++i) {
      steps.push_back(
          {LabelId(rng.Uniform(5)), OrdKey({rng.Range(0, 4)})});
    }
    DeweyId id(std::move(steps));
    for (size_t d = 1; d < id.depth(); ++d) {
      DeweyId anc = id.AncestorAtDepth(d);
      ASSERT_TRUE(anc.IsAncestorOf(id));
      ASSERT_LT(anc, id);
    }
  }
}

}  // namespace
}  // namespace xvm
