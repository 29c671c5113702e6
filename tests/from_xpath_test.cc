#include "pattern/from_xpath.h"

#include <gtest/gtest.h>

#include "pattern/compile.h"
#include "view/manager.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

TEST(FromXPathTest, LinearPath) {
  auto p = PatternFromXPathString("/site/people/person",
                                  ResultAnnotation::kIdVal);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->ToString(),
            "/site{id}(/people{id}(/person{id,val}))");
}

TEST(FromXPathTest, DescendantAxisAndAttributes) {
  auto p = PatternFromXPathString("//person[@id]//name",
                                  ResultAnnotation::kIdCont);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), "//person{id}(/@id,//name{id,cont})");
}

TEST(FromXPathTest, ExistencePredicatesBecomeBranches) {
  auto p = PatternFromXPathString("/a[b/c and d]//e",
                                  ResultAnnotation::kId);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), "/a{id}(/b(/c),/d,//e{id})");
}

TEST(FromXPathTest, ValueComparisonBecomesValPredicate) {
  auto p = PatternFromXPathString(
      "//bidder[personref/@person=\"person12\"]/increase",
      ResultAnnotation::kIdVal);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "//bidder{id}(/personref(/@person[val=\"person12\"]),"
            "/increase{id,val})");
}

TEST(FromXPathTest, SelfComparison) {
  auto p = PatternFromXPathString("//increase[.=\"4.50\"]",
                                  ResultAnnotation::kIdVal);
  ASSERT_TRUE(p.ok());
  // The predicate lands on the main-path node itself.
  EXPECT_EQ(p->ToString(), "//increase{id,val}[val=\"4.50\"]");
}

TEST(FromXPathTest, RejectsNonConjunctiveFeatures) {
  EXPECT_FALSE(PatternFromXPathString("//a[b or c]",
                                      ResultAnnotation::kId).ok());
  EXPECT_FALSE(PatternFromXPathString("//a[b!=\"x\"]",
                                      ResultAnnotation::kId).ok());
  EXPECT_FALSE(PatternFromXPathString("//a/*/b",
                                      ResultAnnotation::kId).ok());
  EXPECT_FALSE(PatternFromXPathString("not a path",
                                      ResultAnnotation::kId).ok());
}

// Every unsupported construct must come back as InvalidArgument (never a
// crash or a wrong code) with a message that names the position of the
// offense: parser errors carry the input offset, translation errors carry
// the 1-based step index plus the rendered step.
TEST(FromXPathTest, RejectionDiagnosticsCarryPositions) {
  struct Case {
    const char* xpath;
    const char* message_fragment;  // required substring of the diagnostic
  };
  const Case kCases[] = {
      // Translation-level rejections: step index + rendered step.
      {"//a/*/b", "(step 2: '/*')"},
      {"/site/people/*", "(step 3: '/*')"},
      {"//a[b or c]", "(step 1: '//a[(b or c)]')"},
      {"//a/b[c!=\"x\"]", "(step 2: '/b[c!=\"x\"]')"},
      {"//a[. = \"1\" and . = \"2\"]", "(step 1: "},
      {"//a[. = \"1\" and . = \"2\"]", "conflicting value predicates"},
      {"//a/b[* or c]", "(step 2: "},
      // Parser-level rejections: byte offset into the input.
      {"//a[b", "at offset 5"},
      {"not a path", "at offset 0"},
      {"", "at offset 0"},
      {"//a[b=\"unterminated]", "at offset"},
  };
  for (const Case& c : kCases) {
    auto p = PatternFromXPathString(c.xpath, ResultAnnotation::kId);
    ASSERT_FALSE(p.ok()) << c.xpath;
    EXPECT_TRUE(p.status().code() == StatusCode::kInvalidArgument ||
                p.status().code() == StatusCode::kParseError)
        << c.xpath << " -> " << p.status().ToString();
    EXPECT_NE(p.status().message().find(c.message_fragment), std::string::npos)
        << c.xpath << " diagnostic was: " << p.status().message();
  }
}

TEST(FromXPathTest, TranslatedPatternMatchesXPathSemantics) {
  // The pattern's result-node bindings must be exactly the XPath's result.
  Document doc;
  ASSERT_TRUE(ParseDocument(
                  "<site><people>"
                  "<person id=\"p0\"><name>Ann</name><phone/></person>"
                  "<person id=\"p1\"><name>Bob</name></person>"
                  "<person><name>Cid</name><phone/></person>"
                  "</people></site>",
                  &doc)
                  .ok());
  StoreIndex store(&doc);
  store.Build();
  const std::string xpath = "/site/people/person[@id and phone]/name";
  auto pattern = PatternFromXPathString(xpath, ResultAnnotation::kIdVal);
  ASSERT_TRUE(pattern.ok());

  TreePattern pat = std::move(pattern).value();
  Relation bindings =
      EvalTreePattern(pat, StoreLeafSource(&store, &pat), nullptr);
  auto xnodes = EvalXPathString(doc, xpath);
  ASSERT_TRUE(xnodes.ok());
  ASSERT_EQ(bindings.size(), xnodes->size());
  // Last main-path node's ID column equals the XPath result node.
  int name_col = bindings.schema.IndexOf("name.ID");
  ASSERT_GE(name_col, 0);
  for (size_t i = 0; i < xnodes->size(); ++i) {
    EXPECT_EQ(bindings.rows[i][static_cast<size_t>(name_col)].id(),
              doc.node((*xnodes)[i]).id);
  }
}

TEST(FromXPathTest, TranslatedViewIsMaintainable) {
  Document doc;
  ASSERT_TRUE(ParseDocument(
                  "<r><a><b>x</b></a><a><c/></a></r>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  auto pattern = PatternFromXPathString("//a[b]", ResultAnnotation::kIdCont);
  ASSERT_TRUE(pattern.ok());
  auto def = ViewDefinition::FromPattern("xp", std::move(pattern).value());
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& mv = mgr.view(0);
  EXPECT_EQ(mv.view().size(), 1u);
  auto out = mgr.ApplyAndPropagateAll(
      UpdateStmt::InsertForest("//a[c]", "<b>y</b>"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(mv.view().size(), 2u);
}

}  // namespace
}  // namespace xvm
