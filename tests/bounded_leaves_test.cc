// Δ-bounded leaves (view/term_bounds.h): every store and snowcap leaf of a
// union term reads only the rows the statement's Δ can reach. Each test
// watches every term maintenance evaluates, through the test-only term
// check, and asserts two things:
//   * the term's output equals its output with every leaf read whole;
//   * every bounded leaf holds exactly the rows its bound describes, computed
//     here by brute force over the whole relation (or is the whole relation,
//     the fallback past the probe budget).
// The first catches a bound that drops a row; the second one that reads a
// row it need not, or one that is not in the relation at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "view/term_bounds.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

/// What the checks of one view saw.
struct Tally {
  size_t terms = 0;
  size_t leaves = 0;    // bounded leaves checked
  size_t narrowed = 0;  // of those, leaves that read less than the whole
  size_t dead_rows = 0; // rows read that lie in a deleted subtree
  std::vector<std::string> failures;
};

std::string Rows(const std::vector<Tuple>& rows) {
  std::string out = "{";
  for (const Tuple& t : rows) {
    out += " " + t[0].id().ToString();
  }
  return out + " }";
}

/// The rows of `whole` (a store leaf, ID in column 0) that `keep` picks.
std::vector<Tuple> Filter(const Relation& whole,
                          const std::function<bool(const DeweyId&)>& keep) {
  std::vector<Tuple> out;
  for (const Tuple& t : whole.rows) {
    if (keep(t[0].id())) out.push_back(t);
  }
  return out;
}

/// Checks the leaves of one term against their bounds, by brute force.
void CheckLeaves(const MaintainedView& mv, const StoreIndex& store,
                 const TermEntry& term, const DeltaTables& delta,
                 const std::string& context, Tally* tally) {
  const TreePattern& pat = mv.def().pattern();
  std::vector<LabelId> labels;
  for (const PatternNode& n : pat.nodes()) {
    labels.push_back(store.doc().dict().Lookup(n.label));
  }
  auto delta_rows = [&](int node) -> const std::vector<DeltaRow>& {
    return delta.ForLabel(labels[static_cast<size_t>(node)]);
  };
  auto dead = [&](const DeweyId& id) {
    if (delta.sign() != DeltaTables::Sign::kMinus) return false;
    const std::vector<DeweyId>& roots = delta.anchor_ids();
    return std::any_of(roots.begin(), roots.end(), [&](const DeweyId& r) {
      return r.IsAncestorOrSelf(id);
    });
  };
  BoundedLeaves leaves(term.bounds, pat, store, labels, delta,
                       /*bounded=*/true);
  std::vector<Relation> read(pat.size());
  auto judge = [&](const std::string& what, const std::vector<Tuple>& got,
                   const std::vector<Tuple>& want,
                   const std::vector<Tuple>& whole) {
    ++tally->leaves;
    if (got.size() < whole.size()) ++tally->narrowed;
    for (const Tuple& t : got) {
      if (dead(t[0].id())) ++tally->dead_rows;
    }
    if (got == want || got == whole) return;
    tally->failures.push_back(context + " " + what + ": read " + Rows(got) +
                              ", bound holds " + Rows(want));
  };
  for (const LeafBound& b : term.bounds.leaves) {
    const Relation whole = ScanLeaf(store, pat.node(b.node));
    read[static_cast<size_t>(b.node)] = leaves.Store(b.node);
    std::vector<Tuple> want;
    if (b.kind == LeafBound::Kind::kPrefix) {
      want = Filter(whole, [&](const DeweyId& x) {
        for (const DeltaRow& row : delta_rows(b.from)) {
          if (!x.IsAncestorOf(row.id)) continue;
          const size_t up = row.id.depth() - x.depth();
          if (b.exact ? up == b.gap : up >= b.gap) return true;
        }
        return false;
      });
    } else {
      const Relation& parent = read[static_cast<size_t>(b.from)];
      want = Filter(whole, [&](const DeweyId& x) {
        for (const Tuple& p : parent.rows) {
          const DeweyId& pid = p[0].id();
          if (pid.IsAncestorOf(x) &&
              (!b.exact || x.depth() == pid.depth() + b.gap)) {
            return true;
          }
        }
        return false;
      });
    }
    judge("node " + pat.node(b.node).name,
          read[static_cast<size_t>(b.node)].rows, want, whole.rows);
  }
  if (term.snowcap >= 0 && term.bounds.snowcap_root >= 0) {
    const size_t idx = static_cast<size_t>(term.snowcap);
    const MaterializedSnowcap& sc = mv.lattice().snowcaps()[idx];
    const Relation* got =
        leaves.Snowcap(sc.data, mv.plans().snowcaps()[idx].upkeep);
    std::vector<Tuple> want;
    for (const Tuple& row : sc.data.rows) {
      for (const DeltaRow& d : delta_rows(term.bounds.snowcap_root)) {
        const bool all = std::all_of(
            term.bounds.snowcap_prefix.begin(),
            term.bounds.snowcap_prefix.end(), [&](int n) {
              const int col = sc.layout.per_node[static_cast<size_t>(n)].id_col;
              return row[static_cast<size_t>(col)].id().IsAncestorOf(d.id);
            });
        if (all) {
          want.push_back(row);
          break;
        }
      }
    }
    judge("snowcap " + NodeSetToString(pat, sc.nodes), got->rows, want,
          sc.data.rows);
  }
}

/// Installs the term check on every view of `mgr`.
class Watch {
 public:
  Watch(ViewManager* mgr, const StoreIndex* store)
      : tallies_(std::make_unique<std::vector<Tally>>(mgr->size())) {
    for (size_t v = 0; v < mgr->size(); ++v) {
      const MaintainedView* mv = &mgr->view(v);
      Tally* tally = &(*tallies_)[v];
      mgr->mutable_view(v).SetTermCheckForTesting(
          [mv, store, tally](const TermEntry& term, const DeltaTables& delta,
                             const Relation& bounded, const Relation& whole) {
            const std::string context =
                mv->def().name() + " term " +
                NodeSetToString(mv->def().pattern(), term.delta_set) +
                (term.snowcap >= 0 ? " [snowcap R-part]" : "") +
                (delta.sign() == DeltaTables::Sign::kPlus ? " Δ+" : " Δ−");
            ++tally->terms;
            if (!(bounded.schema == whole.schema) ||
                !(bounded.rows == whole.rows)) {
              tally->failures.push_back(
                  context + ": output " + std::to_string(bounded.size()) +
                  " rows, whole reads give " + std::to_string(whole.size()) +
                  "\n" + term.bounds.Describe(mv->def().pattern()));
            }
            CheckLeaves(*mv, *store, term, delta, context, tally);
          });
    }
  }

  Tally Total() const {
    Tally out;
    for (const Tally& t : *tallies_) {
      out.terms += t.terms;
      out.leaves += t.leaves;
      out.narrowed += t.narrowed;
      out.dead_rows += t.dead_rows;
      out.failures.insert(out.failures.end(), t.failures.begin(),
                          t.failures.end());
    }
    return out;
  }

  /// Fails the test on the first recorded mismatches.
  void ExpectClean(const std::string& context) const {
    const Tally t = Total();
    for (size_t i = 0; i < std::min<size_t>(t.failures.size(), 5); ++i) {
      ADD_FAILURE() << context << ": " << t.failures[i];
    }
    EXPECT_TRUE(t.failures.empty())
        << context << ": " << t.failures.size() << " mismatches";
  }

 private:
  // Stable addresses for the callbacks.
  std::unique_ptr<std::vector<Tally>> tallies_;
};

void ExpectMatchesRecompute(const MaintainedView& mv, const StoreIndex& store,
                            const std::string& context) {
  const TreePattern& pat = mv.def().pattern();
  const std::vector<CountedTuple> truth =
      EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
  const std::vector<CountedTuple> got = mv.view().Snapshot();
  ASSERT_EQ(got.size(), truth.size()) << context;
  for (size_t i = 0; i < truth.size(); ++i) {
    ASSERT_EQ(got[i].tuple, truth[i].tuple) << context << " tuple " << i;
    ASSERT_EQ(got[i].count, truth[i].count) << context << " tuple " << i;
  }
}

/// Values of the nodes `path` selects.
std::vector<std::string> Values(const Document& doc, const std::string& path) {
  auto nodes = EvalXPathString(doc, path);
  XVM_CHECK(nodes.ok());
  std::vector<std::string> out;
  for (NodeHandle h : *nodes) out.push_back(doc.StringValue(h));
  return out;
}

/// Point statements in the shape of the point_mix workload (homepages,
/// bidders, items, names, whole persons), plus bulk ones when allowed.
class PointStream {
 public:
  PointStream(const Document& doc, uint64_t seed)
      : rng_(seed),
        persons_(Values(doc, "/site/people/person/@id")),
        auctions_(Values(doc, "/site/open_auctions/open_auction/@id")) {
    XVM_CHECK(!persons_.empty() && !auctions_.empty());
  }

  UpdateStmt Next(bool allow_bulk) {
    ++serial_;
    const std::string person = "/site/people/person[@id=\"" +
                               persons_[rng_.Uniform(persons_.size())] + "\"]";
    const std::string auction =
        "/site/open_auctions/open_auction[@id=\"" +
        auctions_[rng_.Uniform(auctions_.size())] + "\"]";
    static const char* const kRegions[] = {"africa", "asia", "australia",
                                           "europe", "namerica", "samerica"};
    const std::string n = std::to_string(serial_);
    switch (rng_.Uniform(allow_bulk ? 11 : 8)) {
      case 0:
        return UpdateStmt::InsertForest(
            person, "<homepage>http://h/" + n + "</homepage>");
      case 1:
        return UpdateStmt::InsertForest(
            auction, "<bidder><date>1/1/2001</date><personref person=\"" +
                         persons_[0] + "\"/><increase>4.50</increase>"
                         "</bidder>");
      case 2:
        return UpdateStmt::InsertForest(
            std::string("/site/regions/") + kRegions[rng_.Uniform(6)],
            "<item id=\"t" + n + "\"><name>n</name><description>d " + n +
                "</description></item>");
      case 3: return UpdateStmt::Delete(person + "/homepage");
      case 4: return UpdateStmt::Delete(auction + "/bidder/increase");
      case 5: return UpdateStmt::Delete(auction + "/bidder");
      case 6: return UpdateStmt::Delete(person + "/name");
      case 7:
        return UpdateStmt::InsertForest(
            "/site/people", "<person id=\"np" + n + "\"><name>p" + n +
                                "</name><homepage>x</homepage></person>");
      case 8: return UpdateStmt::Delete("/site/people/person/homepage");
      case 9: return UpdateStmt::Delete(person);
      default:
        return UpdateStmt::InsertForest("/site/people/person",
                                        "<homepage>bulk</homepage>");
    }
  }

 private:
  Rng rng_;
  std::vector<std::string> persons_;
  std::vector<std::string> auctions_;
  uint64_t serial_ = 0;
};

void AddXMarkViews(ViewManager* mgr, LatticeStrategy strategy) {
  for (const std::string& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr->AddView(*def, strategy).ok()) << name;
  }
}

void AddViews(ViewManager* mgr, const std::vector<std::string>& dsls,
              LatticeStrategy strategy) {
  for (size_t i = 0; i < dsls.size(); ++i) {
    auto def = ViewDefinition::Create("v" + std::to_string(i), dsls[i]);
    ASSERT_TRUE(def.ok()) << dsls[i];
    ASSERT_TRUE(mgr->AddView(*def, strategy).ok()) << dsls[i];
  }
}

/// Evaluates every term whether or not Props. 3.6/3.8/4.7 prune it, so
/// terms that can only read dead or absent nodes run too.
void DisablePruning(ViewManager* mgr) {
  MaintainOptions off;
  off.prune_empty_delta = false;
  off.prune_anchor_paths = false;
  for (size_t v = 0; v < mgr->size(); ++v) {
    mgr->mutable_view(v).set_options(off);
  }
}

void Apply(ViewManager* mgr, const StoreIndex& store, const UpdateStmt& stmt) {
  auto out = mgr->ApplyAndPropagateAll(stmt);
  ASSERT_TRUE(out.ok()) << stmt.target_path << ": " << out.status().ToString();
  for (size_t v = 0; v < mgr->size(); ++v) {
    ExpectMatchesRecompute(mgr->view(v), store, stmt.target_path);
  }
}

class BoundedLeavesXMarkTest
    : public ::testing::TestWithParam<std::tuple<LatticeStrategy, int>> {};

/// All seven XMark views over random point and bulk streams.
TEST_P(BoundedLeavesXMarkTest, TermsEqualWholeReads) {
  const auto [strategy, seed] = GetParam();
  Document doc;
  GenerateXMark(XMarkConfig{40 * 1024, static_cast<uint64_t>(seed)}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddXMarkViews(&mgr, strategy);
  Watch watch(&mgr, &store);
  PointStream stream(doc, static_cast<uint64_t>(seed));
  for (int step = 0; step < 40; ++step) {
    auto out = mgr.ApplyAndPropagateAll(stream.Next(/*allow_bulk=*/true));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  for (size_t v = 0; v < mgr.size(); ++v) {
    ExpectMatchesRecompute(mgr.view(v), store, "end");
  }
  watch.ExpectClean("seed " + std::to_string(seed));
  const Tally t = watch.Total();
  EXPECT_GT(t.terms, 40u);
  EXPECT_GT(t.narrowed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BoundedLeavesXMarkTest,
    ::testing::Combine(::testing::Values(LatticeStrategy::kSnowcaps,
                                         LatticeStrategy::kLeaves),
                       ::testing::Values(1, 2, 3)));

/// A person inserted together with its homepage: the Δ={homepage} term's
/// person leaf must come from the old R_person, which does not hold the new
/// person yet; the document already does. Prop. 3.8 prunes that term for a
/// single insertion target, so it also runs with pruning off.
TEST(BoundedLeavesTest, InsertedAncestorIsNotInTheOldRelation) {
  const std::vector<std::string> dsls = {
      "/site{id}(/people{id}(/person{id}(/homepage{id},/name{id,val})))",
      "//person{id}(/homepage{id})",
      "//people{id}(//homepage{id},/person{id})",
  };
  for (LatticeStrategy strategy :
       {LatticeStrategy::kLeaves, LatticeStrategy::kSnowcaps}) {
    for (bool prune : {true, false}) {
      Document doc;
      GenerateXMark(XMarkConfig{20 * 1024, 7}, &doc);
      StoreIndex store(&doc);
      store.Build();
      ViewManager mgr(&doc, &store);
      AddViews(&mgr, dsls, strategy);
      if (!prune) DisablePruning(&mgr);
      Watch watch(&mgr, &store);
      Apply(&mgr, store,
            UpdateStmt::InsertForest(
                "/site/people", "<person id=\"fresh\"><homepage>h</homepage>"
                                "<name>n</name></person>"));
      Apply(&mgr, store,
            UpdateStmt::InsertForest("/site/people/person[@id=\"fresh\"]",
                                     "<homepage>second</homepage>"));
      watch.ExpectClean("fresh person");
      EXPECT_GT(watch.Total().narrowed, 0u);
    }
  }
}

/// Delete propagation reads the pre-roll-forward relations, which still
/// hold the deleted nodes; σ_alive drops them after the leaves.
TEST(BoundedLeavesTest, DeletePropagationReadsDeadNodes) {
  const std::vector<std::string> dsls = {
      "/site{id}(/people{id}(/person{id}(/homepage{id},/name{id,val})))",
      "//person{id}(/homepage{id})",
      "//people{id}(//name{id},/person{id}(/homepage{id}))",
  };
  for (LatticeStrategy strategy :
       {LatticeStrategy::kLeaves, LatticeStrategy::kSnowcaps}) {
    Document doc;
    GenerateXMark(XMarkConfig{20 * 1024, 8}, &doc);
    StoreIndex store(&doc);
    store.Build();
    ViewManager mgr(&doc, &store);
    AddViews(&mgr, dsls, strategy);
    DisablePruning(&mgr);
    Watch watch(&mgr, &store);
    const std::vector<std::string> ids = Values(doc, "/site/people/person/@id");
    ASSERT_GE(ids.size(), 3u);
    Apply(&mgr, store,
          UpdateStmt::InsertForest(
              "/site/people/person[@id=\"" + ids[0] + "\"]",
              "<homepage>a</homepage>"));
    Apply(&mgr, store,
          UpdateStmt::Delete("/site/people/person[@id=\"" + ids[0] + "\"]"));
    Apply(&mgr, store,
          UpdateStmt::Delete("/site/people/person[@id=\"" + ids[1] +
                             "\"]/name"));
    Apply(&mgr, store, UpdateStmt::Delete("/site/people/person/homepage"));
    watch.ExpectClean("deletes");
    EXPECT_GT(watch.Total().dead_rows, 0u);
  }
}

/// Flush drains queued statements in order: an earlier statement's
/// roll-forward registers nodes a later queued one already deleted
/// (StoreIndex::OnNodesAdded with allow_dead), and that later statement's
/// terms read them.
TEST(BoundedLeavesTest, DeferredFlushRegistersDeadNodes) {
  const std::vector<std::string> dsls = {
      "/site{id}(/people{id}(/person{id}(/homepage{id},/name{id,val})))",
      "//person{id}(/homepage{id})",
  };
  for (LatticeStrategy strategy :
       {LatticeStrategy::kLeaves, LatticeStrategy::kSnowcaps}) {
    Document doc;
    GenerateXMark(XMarkConfig{20 * 1024, 9}, &doc);
    StoreIndex store(&doc);
    store.Build();
    ViewManager mgr(&doc, &store);
    AddViews(&mgr, dsls, strategy);
    DisablePruning(&mgr);
    Watch watch(&mgr, &store);
    ASSERT_TRUE(mgr.Defer(UpdateStmt::InsertForest(
                              "/site/people",
                              "<person id=\"q1\"><homepage>h</homepage>"
                              "<name>n</name></person>"))
                    .ok());
    ASSERT_TRUE(mgr.Defer(UpdateStmt::InsertForest(
                              "/site/people/person[@id=\"q1\"]",
                              "<homepage>h2</homepage>"))
                    .ok());
    ASSERT_TRUE(
        mgr.Defer(UpdateStmt::Delete("/site/people/person[@id=\"q1\"]")).ok());
    mgr.Flush();
    for (size_t v = 0; v < mgr.size(); ++v) {
      ExpectMatchesRecompute(mgr.view(v), store, "flush");
    }
    watch.ExpectClean("deferred");
    EXPECT_GT(watch.Total().dead_rows, 0u);
  }
}

/// Q6's `//item` and patterns with repeated labels over nested items: a Δ
/// row has several candidate ancestors at different depths, and subtree
/// ranges of nested parents overlap.
TEST(BoundedLeavesTest, NestedDescendantItems) {
  const std::vector<std::string> dsls = {
      "/site{id}(/regions{id}(//item{id,cont}))",
      "//item{id}(//item{id})",
      "//item{id}(//name{id,val},//mark{id})",
      "//regions{id}(//item{id}(/name{id,val}))",
  };
  for (LatticeStrategy strategy :
       {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
    for (bool prune : {true, false}) {
      // Enough items that a point statement stays inside the probe budget.
      std::string xml =
          "<site><regions><europe>"
          "<item id=\"i1\"><item id=\"i2\"><item id=\"i3\"/></item>"
          "<name>x</name></item><item id=\"i4\"><name>y</name></item>";
      for (int i = 0; i < 40; ++i) {
        const std::string n = std::to_string(i);
        xml += "<item id=\"f" + n + "\"><name>" + n + "</name>";
        if (i % 3 == 0) xml += "<item><item><mark/></item></item>";
        xml += "</item>";
      }
      xml += "</europe><asia><item id=\"i5\"><item id=\"i6\"/></item>"
             "</asia></regions></site>";
      Document doc;
      ASSERT_TRUE(ParseDocument(xml, &doc).ok());
      StoreIndex store(&doc);
      store.Build();
      ViewManager mgr(&doc, &store);
      AddViews(&mgr, dsls, strategy);
      if (!prune) DisablePruning(&mgr);
      Watch watch(&mgr, &store);
      for (const UpdateStmt& stmt : {
               UpdateStmt::InsertForest("//item[@id=\"i3\"]",
                                        "<item id=\"i7\"><mark/></item>"),
               UpdateStmt::InsertForest("//item[@id=\"i2\"]",
                                        "<name>deep</name>"),
               UpdateStmt::InsertForest("//item", "<mark/>"),
               UpdateStmt::Delete("//item[@id=\"i7\"]"),
               UpdateStmt::Delete("//item[@id=\"i2\"]/item"),
               UpdateStmt::Delete("//mark"),
               UpdateStmt::InsertForest("//item[@id=\"i1\"]",
                                        "<item><item><name>z</name><mark/>"
                                        "</item></item>"),
               UpdateStmt::Delete("//item[@id=\"i5\"]/item"),
               UpdateStmt::InsertForest("//item[@id=\"f9\"]/item/item",
                                        "<item><name>w</name></item>"),
               UpdateStmt::Delete("//item[@id=\"f12\"]/item/item"),
               UpdateStmt::Delete("//item[@id=\"i1\"]"),
           }) {
        Apply(&mgr, store, stmt);
      }
      watch.ExpectClean("nested items");
      EXPECT_GT(watch.Total().narrowed, 0u);
    }
  }
}

/// Random documents over five labels and random 2-5 node patterns: '/' and
/// '//' edges, repeated labels, value predicates, nodes that store no ID.
TEST(BoundedLeavesTest, RandomPatternsOnRandomDocuments) {
  constexpr const char* kLabels[] = {"a", "b", "c", "d", "e"};
  size_t patterns = 0;
  size_t narrowed = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    auto label = [&] { return std::string(kLabels[rng.Uniform(5)]); };
    Document doc;
    std::vector<NodeHandle> nodes = {doc.CreateRoot("r")};
    for (int i = 0; i < 70; ++i) {
      NodeHandle fresh =
          doc.AppendElement(nodes[rng.Uniform(nodes.size())], label());
      nodes.push_back(fresh);
      if (rng.Chance(1, 3)) doc.AppendText(fresh, std::to_string(i % 3));
    }
    StoreIndex store(&doc);
    store.Build();
    std::vector<std::vector<size_t>> kids(2 + rng.Uniform(4));
    for (size_t i = 1; i < kids.size(); ++i) kids[rng.Uniform(i)].push_back(i);
    std::function<std::string(size_t)> render = [&](size_t i) {
      std::string out = (i == 0 || rng.Chance(1, 2)) ? "//" : "/";
      out += label();
      const size_t pick = rng.Uniform(6);
      out += pick == 0   ? "{id,val}"
             : pick == 1 ? "{id,cont}"
             : pick == 2 && i > 0 ? ""
                                   : "{id}";
      if (i > 0 && rng.Chance(1, 5)) out += "[val=\"1\"]";
      if (!kids[i].empty()) {
        out += "(";
        for (size_t k = 0; k < kids[i].size(); ++k) {
          if (k > 0) out += ",";
          out += render(kids[i][k]);
        }
        out += ")";
      }
      return out;
    };
    const std::string dsl = render(0);
    auto def = ViewDefinition::Create("rand", dsl);
    if (!def.ok()) continue;  // e.g. no stored attribute left
    const LatticeStrategy strategy =
        seed % 2 == 0 ? LatticeStrategy::kSnowcaps : LatticeStrategy::kLeaves;
    ViewManager mgr(&doc, &store);
    if (!mgr.AddView(*def, strategy).ok()) continue;
    ++patterns;
    if (seed % 3 == 0) DisablePruning(&mgr);
    Watch watch(&mgr, &store);
    for (int step = 0; step < 8 && doc.root() != kNullNode; ++step) {
      const std::string target = "//" + label();
      const std::string outer = label();
      const std::string inner = label();
      const UpdateStmt stmt =
          rng.Chance(2, 5)
              ? UpdateStmt::Delete(target)
              : UpdateStmt::InsertForest(target, "<" + outer + "><" + inner +
                                                     ">1</" + inner + "></" +
                                                     outer + ">");
      auto out = mgr.ApplyAndPropagateAll(stmt);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ExpectMatchesRecompute(mgr.view(0), store,
                             "seed " + std::to_string(seed) + " " + dsl);
    }
    watch.ExpectClean("seed " + std::to_string(seed) + " " + dsl);
    narrowed += watch.Total().narrowed;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(patterns, 20u);
  EXPECT_GT(narrowed, 0u);
}

/// Past |R| / kRowsPerProbe candidates a leaf is read whole, through the
/// same scan: a homepage under every person reads all of R_person, a point
/// insert only its person.
TEST(BoundedLeavesTest, FallbackAtTheProbeBudget) {
  Document doc;
  GenerateXMark(XMarkConfig{40 * 1024, 5}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddViews(&mgr,
           {"/site{id}(/people{id}(/person{id}(/homepage{id},"
            "/name{id,val})))"},
           LatticeStrategy::kLeaves);
  Watch watch(&mgr, &store);
  const size_t persons = store.Relation(doc.dict().Lookup("person")).size();
  ASSERT_GT(persons, 2 * kRowsPerProbe);

  const std::vector<std::string> ids = Values(doc, "/site/people/person/@id");
  auto point = mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest(
      "/site/people/person[@id=\"" + ids[1] + "\"]", "<homepage>p</homepage>"));
  ASSERT_TRUE(point.ok());
  const MaintenanceStats& ps = point->per_view[0].stats;
  // site and people (one row each, budget 0) are read whole; person and
  // name are one row each.
  EXPECT_EQ(ps.leaves_unbounded, 2u);
  EXPECT_EQ(ps.leaf_rows_read, 4u);

  auto bulk = mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest(
      "/site/people/person", "<homepage>all</homepage>"));
  ASSERT_TRUE(bulk.ok());
  const MaintenanceStats& bs = bulk->per_view[0].stats;
  EXPECT_EQ(bs.leaves_unbounded, 4u);  // person past budget, name too
  EXPECT_GE(bs.leaf_rows_read, 2 * persons);
  ExpectMatchesRecompute(mgr.view(0), store, "bulk");
  watch.ExpectClean("budget");
}

/// On point statements the leaves of every evaluated term deliver at most
/// 50 rows per Δ row over all seven views.
TEST(BoundedLeavesTest, PointStatementsReadFewLeafRowsPerDeltaRow) {
  Document doc;
  GenerateXMark(XMarkConfig{200 * 1024, 11}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddXMarkViews(&mgr, LatticeStrategy::kSnowcaps);
  PointStream stream(doc, 11);
  size_t rows = 0;
  size_t delta_rows = 0;
  for (int step = 0; step < 120; ++step) {
    auto out = mgr.ApplyAndPropagateAll(stream.Next(/*allow_bulk=*/false));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    delta_rows += out->nodes_inserted + out->nodes_deleted;
    for (const UpdateOutcome& o : out->per_view) rows += o.stats.leaf_rows_read;
  }
  ASSERT_GT(delta_rows, 0u);
  EXPECT_LE(rows, 50 * delta_rows);
}

/// The shapes fixed at install for Q17's Δ={homepage} term (recomputed
/// R-part under both lattices) and Q6's Δ={item} term under kLeaves.
TEST(BoundedLeavesTest, BoundShapesRecordedAtInstall) {
  auto q17 = XMarkView("Q17");
  ASSERT_TRUE(q17.ok());
  ViewPlans plans(*q17,
                  ViewLattice(&q17->pattern(), LatticeStrategy::kSnowcaps));
  ASSERT_TRUE(plans.status().ok());
  const TermEntry* homepage = nullptr;
  for (const TermEntry& e : plans.view().entries) {
    if (NodeSetCount(e.delta_set) == 1 && e.delta_set[3]) homepage = &e;
  }
  ASSERT_NE(homepage, nullptr);
  EXPECT_EQ(homepage->snowcap, -1);
  EXPECT_EQ(homepage->bounds.Describe(q17->pattern()),
            "bound node 0 (site): prefix of Δ node 3\n"
            "bound node 1 (people): prefix of Δ node 3\n"
            "bound node 2 (person): prefix of Δ node 3\n"
            "bound node 4 (name): child of node 2\n");
  ASSERT_EQ(homepage->bounds.leaves.size(), 4u);
  EXPECT_TRUE(homepage->bounds.leaves[2].exact);
  EXPECT_EQ(homepage->bounds.leaves[2].gap, 1u);
  EXPECT_EQ(homepage->bounds.leaves[0].gap, 3u);

  auto q6 = XMarkView("Q6");
  ASSERT_TRUE(q6.ok());
  ViewPlans q6_plans(*q6,
                     ViewLattice(&q6->pattern(), LatticeStrategy::kLeaves));
  const TermEntry* item = nullptr;
  for (const TermEntry& e : q6_plans.view().entries) {
    if (NodeSetCount(e.delta_set) == 1 && e.delta_set[2]) item = &e;
  }
  ASSERT_NE(item, nullptr);
  ASSERT_EQ(item->bounds.leaves.size(), 2u);
  for (const LeafBound& b : item->bounds.leaves) {
    EXPECT_EQ(b.kind, LeafBound::Kind::kPrefix);
    EXPECT_EQ(b.from, 2);
    EXPECT_FALSE(b.exact);  // regions//item
  }
}

}  // namespace
}  // namespace xvm
