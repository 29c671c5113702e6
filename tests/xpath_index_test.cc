// Differential tests of the XPath evaluator (xpath/xpath_eval.h) against a
// brute-force reference that lives only here: every step of the reference
// scans every node of the document, compares names as strings and decides
// the axis by walking parent links, so it shares no index, label
// resolution, context skipping or buffer with the evaluator. Covered: the
// xpath_test corpus, random documents with duplicate attribute values and
// missing labels, random paths mixing `@a="v"` with `and`, `or` and `!=`,
// `//` steps and `*`, the same checks after every statement of random
// insert/delete/replace streams and after a checkpoint reload, and a
// 2 000-deep chain that would make nested `//` steps quadratic.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "store/audit.h"
#include "update/update.h"
#include "view/persist.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

/// The brute-force reference. kNullNode stands for the document node, the
/// parent of the root.
class RefEval {
 public:
  explicit RefEval(const Document& doc) : doc_(doc), all_(doc.AllNodes()) {}

  std::vector<NodeHandle> Eval(const XPathExpr& expr) const {
    if (doc_.root() == kNullNode) return {};
    return Steps({kNullNode}, expr.steps);
  }

 private:
  bool Test(NodeHandle h, const XPathStep& s) const {
    const Node& n = doc_.node(h);
    const std::string& name = doc_.dict().Name(n.label);
    switch (s.test) {
      case XPathTest::kName:
        return n.kind == NodeKind::kElement && name == s.name;
      case XPathTest::kAnyElement:
        return n.kind == NodeKind::kElement;
      case XPathTest::kAttribute:
        return n.kind == NodeKind::kAttribute && name == "@" + s.name;
      case XPathTest::kText:
        return n.kind == NodeKind::kText;
      case XPathTest::kSelf:
        return true;
    }
    return false;
  }

  bool OnAxis(NodeHandle h, const std::unordered_set<NodeHandle>& contexts,
              XPathAxis axis) const {
    NodeHandle up = doc_.node(h).parent;
    if (axis == XPathAxis::kChild) return contexts.count(up) > 0;
    if (contexts.count(kNullNode) > 0) return true;
    for (; up != kNullNode; up = doc_.node(up).parent) {
      if (contexts.count(up) > 0) return true;
    }
    return false;
  }

  std::vector<NodeHandle> Steps(std::vector<NodeHandle> contexts,
                                const std::vector<XPathStep>& steps) const {
    for (const XPathStep& s : steps) {
      const std::unordered_set<NodeHandle> ctx(contexts.begin(),
                                               contexts.end());
      contexts.clear();
      for (NodeHandle h : all_) {
        if (!Test(h, s) || !OnAxis(h, ctx, s.axis)) continue;
        bool keep = true;
        for (const XPathPredicate& p : s.predicates) keep = keep && Pred(h, p);
        if (keep) contexts.push_back(h);
      }
    }
    return contexts;
  }

  bool Pred(NodeHandle h, const XPathPredicate& p) const {
    switch (p.kind) {
      case XPathPredicate::Kind::kAnd:
        return Pred(h, p.children[0]) && Pred(h, p.children[1]);
      case XPathPredicate::Kind::kOr:
        return Pred(h, p.children[0]) || Pred(h, p.children[1]);
      default:
        break;
    }
    const std::vector<NodeHandle> nodes =
        p.path.leading_self && p.path.steps.empty()
            ? std::vector<NodeHandle>{h}
            : Steps({h}, p.path.steps);
    if (p.kind == XPathPredicate::Kind::kExists) return !nodes.empty();
    for (NodeHandle n : nodes) {
      const bool eq = doc_.StringValue(n) == p.literal;
      if (p.kind == XPathPredicate::Kind::kEquals ? eq : !eq) return true;
    }
    return false;
  }

  const Document& doc_;
  std::vector<NodeHandle> all_;
};

/// Evaluates `path` both ways and expects the same nodes in the same order.
void ExpectSameAsReference(const Document& doc, const std::string& path) {
  StatusOr<XPathExpr> expr = ParseXPath(path);
  ASSERT_TRUE(expr.ok()) << path << ": " << expr.status().ToString();
  EXPECT_EQ(EvalXPath(doc, *expr), RefEval(doc).Eval(*expr)) << path;
}

// ---------------------------------------------------------------- corpus

TEST(XPathIndexTest, CorpusMatchesReference) {
  struct Case {
    const char* xml;
    std::vector<const char*> paths;
  };
  const std::vector<Case> corpus = {
      {"<a><b>1</b><b>2</b><c><b>3</b></c></a>", {"/a/b", "/a/c/b", "/b"}},
      {"<a><b>1</b><c><b>2</b><d><b>3</b></d></c></a>",
       {"//b", "/a//b", "//c//b"}},
      {"<a><c><c><b>x</b></c></c></a>", {"//c//b", "//c//c", "//c/c/b"}},
      {"<a><b/><c/><d>t</d></a>", {"/a/*", "//*", "//*//*"}},
      {"<a><p id=\"p0\"/><p id=\"p1\"/><p/></a>",
       {"/a/p/@id", "/a/p[@id=\"p1\"]", "//p[@id=\"p0\"]", "//*[@id=\"p1\"]",
        "/a/p[@id!=\"p0\"]", "/a/p[@id=\"nope\"]"}},
      {"<a><p><q/></p><p/><p><q/><r/></p></a>",
       {"/a/p[q]", "/a/p[q and r]", "/a/p[q or r]"}},
      {"<a><p id=\"1\"/><p/></a>", {"/a/p[@id]", "/a/p[@id=\"1\"]"}},
      {"<a><p><v>5</v></p><p><v>7</v></p></a>",
       {"/a/p[v=\"5\"]", "/a/p[v!=\"5\"]", "/a/p[v='9']"}},
      {"<a><v>5</v><v>7</v></a>", {"/a/v[.=\"5\"]"}},
      {"<a><p id=\"person12\"/><p id=\"person3\"/></a>",
       {"//p[@id=\"person12\"]", "/a/p[@id=\"person3\"]"}},
      {"<a><p><v>1</v><v>2</v></p></a>",
       {"/a/p[v=\"2\"]", "/a/p[v=\"3\"]", "/a/p[v!=\"1\"]"}},
      {"<a><person><profile income=\"x\"/></person><person><profile/>"
       "</person></a>",
       {"//person[profile/@income]", "//person[profile/@income=\"x\"]",
        "//profile[@income=\"x\"]"}},
      {"<a><p><x/><y/></p><p><x/><z/></p><p><w/></p></a>",
       {"/a/p[x and (y or z)]", "/a/p[(x and y) or w]"}},
      {"<site><people>"
       "<person id=\"p1\"><address/><phone/><creditcard/></person>"
       "<person id=\"p2\"><address/><homepage/><profile/></person>"
       "<person id=\"p3\"><address/><phone/></person>"
       "<person id=\"p1\"><phone/><creditcard/></person>"
       "</people></site>",
       {"/site/people/person[address and (phone or homepage) and "
        "(creditcard or profile)]",
        "/site/people/person[@id=\"p1\"]",
        "/site/people/person[@id=\"p1\"]/phone",
        "/site/people/person[phone and @id=\"p1\" and creditcard]",
        "/site/people/person[@id=\"p1\" or @id=\"p2\"]",
        "//person[@id=\"p3\"]/address"}},
      {"<a>t1<b>t2</b></a>", {"//text()", "/a/text()", "/a[.=\"t1t2\"]"}},
      {"<a><a/></a>", {"//a", "//a//a", "/a/a"}},
      {"<a><order/><android/></a>", {"/a[order and android]"}},
  };
  for (const Case& c : corpus) {
    Document doc;
    ASSERT_TRUE(ParseDocument(c.xml, &doc).ok()) << c.xml;
    for (const char* path : c.paths) ExpectSameAsReference(doc, path);
  }
}

// ------------------------------------------------- random documents/paths

constexpr const char* kNames[] = {"a", "b", "c", "d", "zz"};  // zz: absent
constexpr const char* kAttrs[] = {"id", "k", "zz"};           // zz: absent
constexpr const char* kValues[] = {"1", "2", "v", "t"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&from)[N], size_t limit = N) {
  return from[rng->Uniform(limit)];
}

/// A random tree under root <r>: elements a–d with attributes id and k
/// drawn from four values (so values repeat) and text children.
void BuildRandomDocument(Rng* rng, Document* doc, int nodes) {
  std::vector<NodeHandle> elements = {doc->CreateRoot("r")};
  for (int i = 0; i < nodes; ++i) {
    const NodeHandle parent = elements[rng->Uniform(elements.size())];
    const uint64_t kind = rng->Uniform(10);
    if (kind < 6) {
      const NodeHandle e = doc->AppendElement(parent, Pick(rng, kNames, 4));
      elements.push_back(e);
      if (rng->Chance(1, 2)) doc->AppendAttribute(e, "id", Pick(rng, kValues));
      if (rng->Chance(1, 3)) doc->AppendAttribute(e, "k", Pick(rng, kValues));
    } else {
      doc->AppendText(parent, Pick(rng, kValues));
    }
  }
}

std::string Literal(Rng* rng) {
  return "\"" + std::string(Pick(rng, kValues)) + "\"";
}

std::string AttrEq(Rng* rng) {
  return "@" + std::string(Pick(rng, kAttrs)) + "=" + Literal(rng);
}

std::string RandomPredicate(Rng* rng, int depth);

/// One or two steps relative to a predicate's context node.
std::string RandomRelPath(Rng* rng, int depth) {
  std::string out = rng->Chance(1, 4) ? ".//" : "";
  out += rng->Chance(1, 5) ? "*" : Pick(rng, kNames);
  if (depth > 0 && rng->Chance(1, 4)) {
    out += "[" + RandomPredicate(rng, depth - 1) + "]";
  }
  if (rng->Chance(1, 4)) out += "/@" + std::string(Pick(rng, kAttrs));
  return out;
}

std::string RandomPredicate(Rng* rng, int depth) {
  const uint64_t r = rng->Uniform(depth > 0 ? 11 : 7);
  switch (r) {
    case 0: case 1: return AttrEq(rng);
    case 2: return "@" + std::string(Pick(rng, kAttrs)) + "!=" + Literal(rng);
    case 3: return "@" + std::string(Pick(rng, kAttrs));
    case 4: return RandomRelPath(rng, depth);
    case 5: return RandomRelPath(rng, depth) + "=" + Literal(rng);
    case 6: return ".=" + Literal(rng);
    case 7: return AttrEq(rng) + " and " + RandomPredicate(rng, depth - 1);
    case 8: return RandomPredicate(rng, depth - 1) + " and " + AttrEq(rng);
    case 9: return AttrEq(rng) + " or " + RandomPredicate(rng, depth - 1);
    default:
      return "(" + RandomPredicate(rng, depth - 1) + " and " +
             RandomPredicate(rng, depth - 1) + ")";
  }
}

/// An absolute path whose first step never selects the root itself unless
/// it is `/r`, ending in an element step when `elements_only`.
std::string RandomPath(Rng* rng, bool elements_only) {
  std::string out =
      rng->Chance(1, 2) ? "/r" : "//" + std::string(Pick(rng, kNames));
  if (rng->Chance(1, 3)) out += "[" + RandomPredicate(rng, 2) + "]";
  const int more = static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < more || out == "/r"; ++i) {
    out += rng->Chance(1, 3) ? "//" : "/";
    out += rng->Chance(1, 5) ? "*" : Pick(rng, kNames);
    if (rng->Chance(1, 2)) out += "[" + RandomPredicate(rng, 2) + "]";
  }
  if (!elements_only && rng->Chance(1, 5)) {
    out += rng->Chance(1, 2) ? "/@" + std::string(Pick(rng, kAttrs))
                             : "/text()";
  }
  return out;
}

TEST(XPathIndexTest, RandomDocumentsMatchReference) {
  Rng rng(20261020);
  for (int d = 0; d < 40; ++d) {
    Document doc;
    BuildRandomDocument(&rng, &doc, 20 + static_cast<int>(rng.Uniform(100)));
    for (int p = 0; p < 60; ++p) {
      ExpectSameAsReference(doc, RandomPath(&rng, /*elements_only=*/false));
    }
  }
}

// ------------------------------------------------------ statement streams

std::string RandomForest(Rng* rng) {
  std::string out;
  const int trees = 1 + static_cast<int>(rng->Uniform(2));
  for (int t = 0; t < trees; ++t) {
    const std::string name = Pick(rng, kNames, 4);
    out += "<" + name + " id=" + Literal(rng);
    if (rng->Chance(1, 2)) out += " k=" + Literal(rng);
    out += ">" + std::string(Pick(rng, kValues));
    if (rng->Chance(1, 2)) {
      out += "<" + std::string(Pick(rng, kNames, 4)) + " k=" + Literal(rng) +
             "/>";
    }
    out += "</" + name + ">";
  }
  return out;
}

/// Applies one random statement; returns false if it had no target.
bool ApplyRandomStatement(Rng* rng, Document* doc) {
  const std::string path = RandomPath(rng, /*elements_only=*/true);
  UpdateStmt stmt;
  switch (rng->Uniform(3)) {
    case 0: stmt = UpdateStmt::InsertForest(path, RandomForest(rng)); break;
    case 1: stmt = UpdateStmt::Delete(path); break;
    default: stmt = UpdateStmt::ReplaceContent(path, RandomForest(rng)); break;
  }
  StatusOr<Pul> pul = ComputePul(*doc, stmt, nullptr);
  EXPECT_TRUE(pul.ok()) << path;
  if (!pul.ok()) return false;
  for (const PulDeleteOp& del : pul->deletes) {
    if (del.target == doc->root()) return false;  // keep a document
  }
  if (pul->deletes.empty() && pul->inserts.empty()) return false;
  ApplyPul(doc, *pul, nullptr);
  return true;
}

void ExpectAuditClean(const Document& doc) {
  InvariantReport report;
  AuditDocument(doc, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(XPathIndexTest, StatementStreamsKeepIndexAndResults) {
  Rng rng(104729);
  for (int stream = 0; stream < 8; ++stream) {
    Document doc;
    BuildRandomDocument(&rng, &doc, 80);
    int applied = 0;
    for (int s = 0; s < 60; ++s) {
      if (!ApplyRandomStatement(&rng, &doc)) continue;
      ++applied;
      ExpectAuditClean(doc);
      for (int p = 0; p < 12; ++p) {
        ExpectSameAsReference(doc, RandomPath(&rng, /*elements_only=*/false));
      }
    }
    EXPECT_GT(applied, 5);
  }
}

TEST(XPathIndexTest, CheckpointReloadKeepsIndexAndResults) {
  Rng rng(7);
  for (int round = 0; round < 6; ++round) {
    Document doc;
    BuildRandomDocument(&rng, &doc, 120);
    for (int s = 0; s < 20; ++s) ApplyRandomStatement(&rng, &doc);
    Document loaded;
    ASSERT_TRUE(LoadDocumentFromBytes(SaveDocumentToBytes(doc), &loaded).ok());
    ExpectAuditClean(loaded);
    EXPECT_EQ(loaded.attribute_index_size(), doc.attribute_index_size());
    for (int p = 0; p < 40; ++p) {
      const std::string path = RandomPath(&rng, /*elements_only=*/false);
      ExpectSameAsReference(loaded, path);
      // Same nodes, by ID, as in the document that was saved.
      const StatusOr<XPathExpr> expr = ParseXPath(path);
      ASSERT_TRUE(expr.ok()) << path;
      std::vector<DeweyId> before;
      std::vector<DeweyId> after;
      for (NodeHandle h : EvalXPath(doc, *expr)) {
        before.push_back(doc.node(h).id);
      }
      for (NodeHandle h : EvalXPath(loaded, *expr)) {
        after.push_back(loaded.node(h).id);
      }
      EXPECT_EQ(before, after) << path;
    }
  }
}

// ------------------------------------------------------------ deep chains

TEST(XPathIndexTest, NestedDescendantStepsOnDeepChain) {
  // r/a/a/.../a (2 000 deep), a <b> under every 100th a and at the bottom.
  // Built with AppendElement: the parser recurses per level. A node's Dewey
  // ID holds one step per level, so the chain's IDs hold depth²/2 steps:
  // 2 M here, where 5 000 levels would take about 850 MB.
  Document doc;
  NodeHandle cur = doc.CreateRoot("r");
  for (int depth = 0; depth < 2000; ++depth) {
    cur = doc.AppendElement(cur, "a");
    if (depth % 100 == 0) doc.AppendAttribute(cur, "id", "deep");
    if (depth % 100 == 99) doc.AppendElement(cur, "b");
  }
  doc.AppendElement(cur, "b");
  for (const char* path : {"//a//b", "//a//a//b", "/r//a//a", "//*//a/b",
                           "//a/b"}) {
    ExpectSameAsReference(doc, path);
  }
  EXPECT_EQ(EvalXPathString(doc, "//a//a//b")->size(), 21u);
  EXPECT_EQ(EvalXPathString(doc, "//a[@id=\"deep\"]")->size(), 20u);
  EXPECT_EQ(EvalXPathString(doc, "//a[@id=\"deep\"]//b")->size(), 21u);
}

}  // namespace
}  // namespace xvm
