// Δ-local upkeep: PIMT, PDMT and snowcap upkeep visit only the rows a Δ can
// reach (view/upkeep.h). Each test compares the range search against a full
// walk that lives only here — every row of the view or snowcap tested with
// the same predicate upkeep applies to the rows it finds — and checks the
// maintained views and snowcaps against recomputation, statement by
// statement, with `tuples_modified` against the full walk's count.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "baseline/recompute.h"
#include "common/rng.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "view/upkeep.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

std::vector<LabelId> PatternLabels(const TreePattern& pat,
                                   const LabelDict& dict) {
  std::vector<LabelId> out;
  for (const PatternNode& n : pat.nodes()) out.push_back(dict.Lookup(n.label));
  return out;
}

bool AnyAtOrBelow(const std::vector<DeweyId>& anchors, const DeweyId& id) {
  return std::any_of(anchors.begin(), anchors.end(),
                     [&](const DeweyId& a) { return id.IsAncestorOrSelf(a); });
}

bool AnyStrictlyBelow(const std::vector<DeweyId>& roots, const DeweyId& id) {
  return std::any_of(roots.begin(), roots.end(),
                     [&](const DeweyId& r) { return id.IsAncestorOf(r); });
}

bool AnyCovers(const std::vector<DeweyId>& roots, const DeweyId& id) {
  return std::any_of(roots.begin(), roots.end(),
                     [&](const DeweyId& r) { return r.IsAncestorOrSelf(id); });
}

/// Full walk: rows with a payload node that is an ancestor-or-self of an
/// anchor (PIMT, snowcap payload refresh).
std::vector<size_t> WalkPayloadRows(const UpkeepOrder& order,
                                    const std::vector<DeweyId>& anchors,
                                    const SortedRows& rows) {
  std::vector<size_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const UpkeepOrder::Payload& p : order.payloads) {
      if (AnyAtOrBelow(anchors,
                       rows[i][static_cast<size_t>(p.cols.id_col)].id())) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

/// Full walk: rows with an ID column inside a deleted subtree.
std::vector<size_t> WalkCoveredRows(const UpkeepOrder& order,
                                    const std::vector<DeweyId>& roots,
                                    const SortedRows& rows) {
  std::vector<size_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const UpkeepOrder::Key& k : order.keys) {
      if (AnyCovers(roots, rows[i][static_cast<size_t>(k.col)].id())) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

/// The reach is sorted, disjoint, in bounds, and holds every row the full
/// walk picks — so upkeep, which applies the full walk's predicate to the
/// rows it reaches, changes exactly the rows the full walk changes.
void ExpectReachHolds(const Reach& reach, const std::vector<size_t>& picked,
                      size_t n, const std::string& context) {
  size_t prev_end = 0;
  for (size_t k = 0; k < reach.ranges.size(); ++k) {
    const RowRange& r = reach.ranges[k];
    ASSERT_LT(r.begin, r.end) << context;
    ASSERT_LE(r.end, n) << context;
    if (k > 0) {
      ASSERT_LT(prev_end, r.begin) << context << ": ranges touch";
    }
    prev_end = r.end;
  }
  for (size_t i : picked) {
    const bool inside =
        std::any_of(reach.ranges.begin(), reach.ranges.end(),
                    [i](const RowRange& r) { return r.begin <= i && i < r.end; });
    ASSERT_TRUE(inside) << context << ": row " << i << " of " << n
                        << " is picked by the full walk but not reached";
  }
}

/// Sorted, non-nested sample of `ids` (every kept ID drops its
/// descendants), as DeletedRegion roots must be.
std::vector<DeweyId> Outermost(std::vector<DeweyId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<DeweyId> out;
  for (DeweyId& id : ids) {
    if (!out.empty() && out.back().IsAncestorOrSelf(id)) continue;
    out.push_back(std::move(id));
  }
  return out;
}

/// Checks both searches of every structure of `mv` (view and snowcaps)
/// against the full walk, for `rounds` random anchor samples of the live
/// document plus one sample of every live node (the bulk case).
void CheckReachAgainstWalk(const MaintainedView& mv, const Document& doc,
                           Rng* rng, int rounds, const std::string& context) {
  const std::vector<LabelId> labels =
      PatternLabels(mv.def().pattern(), doc.dict());
  std::vector<DeweyId> live;
  for (NodeHandle h : doc.AllNodes()) live.push_back(doc.node(h).id);
  std::vector<std::vector<DeweyId>> samples;
  for (int r = 0; r < rounds; ++r) {
    std::vector<DeweyId> s;
    const size_t k = 1 + rng->Uniform(4);
    for (size_t j = 0; j < k && !live.empty(); ++j) {
      s.push_back(live[rng->Uniform(live.size())]);
    }
    samples.push_back(std::move(s));
  }
  samples.push_back(live);

  auto check = [&](const UpkeepOrder& order, const SortedRows& rows,
                   const std::string& what) {
    for (const std::vector<DeweyId>& sample : samples) {
      std::vector<DeweyId> anchors = sample;
      std::sort(anchors.begin(), anchors.end());
      anchors.erase(std::unique(anchors.begin(), anchors.end()),
                    anchors.end());
      ExpectReachHolds(ReachPayloadAncestors(order, labels, anchors, rows),
                       WalkPayloadRows(order, anchors, rows), rows.size(),
                       context + " " + what + " payloads");
      const std::vector<DeweyId> roots = Outermost(sample);
      ExpectReachHolds(ReachCoveredRows(order, labels, roots, rows),
                       WalkCoveredRows(order, roots, rows), rows.size(),
                       context + " " + what + " covered");
    }
  };
  check(mv.plans().view().upkeep, SortedRows(mv.view().content()), "view");
  const auto& snowcaps = mv.lattice().snowcaps();
  for (size_t i = 0; i < snowcaps.size(); ++i) {
    check(mv.plans().snowcaps()[i].upkeep, SortedRows(snowcaps[i].data.rows),
          "snowcap " + std::to_string(i));
  }
}

/// Full walk over the view after a pure insert (`delete_roots` empty) or a
/// pure delete: the tuples PIMT/PDMT rewrite.
size_t WalkTuplesModified(const MaintainedView& mv,
                          const std::vector<DeweyId>& insert_anchors,
                          const std::vector<DeweyId>& delete_roots) {
  const UpkeepOrder& order = mv.plans().view().upkeep;
  size_t modified = 0;
  for (const CountedTuple& ct : mv.view().content()) {
    const bool hit = std::any_of(
        order.payloads.begin(), order.payloads.end(),
        [&](const UpkeepOrder::Payload& p) {
          const DeweyId& id = ct.tuple[static_cast<size_t>(p.cols.id_col)].id();
          return AnyAtOrBelow(insert_anchors, id) ||
                 (!AnyCovers(delete_roots, id) &&
                  AnyStrictlyBelow(delete_roots, id));
        });
    if (hit) ++modified;
  }
  return modified;
}

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
  for (const MaterializedSnowcap& sc : mv.lattice().snowcaps()) {
    const Relation rows =
        EvalTreePattern(pat, StoreLeafSource(&store, &pat), &sc.nodes);
    ASSERT_EQ(sc.data.rows, rows.rows)
        << context << " snowcap " << NodeSetToString(pat, sc.nodes);
  }
}

/// The IDs of the nodes `path` selects, in document order.
std::vector<DeweyId> TargetIds(const Document& doc, const std::string& path) {
  auto targets = EvalXPathString(doc, path);
  XVM_CHECK(targets.ok());
  std::vector<DeweyId> out;
  for (NodeHandle h : *targets) out.push_back(doc.node(h).id);
  std::sort(out.begin(), out.end());
  return out;
}

/// Values of attribute `attr` on the nodes `path` selects.
std::vector<std::string> AttributeValues(const Document& doc,
                                         const std::string& path) {
  auto nodes = EvalXPathString(doc, path);
  XVM_CHECK(nodes.ok());
  std::vector<std::string> out;
  for (NodeHandle h : *nodes) out.push_back(doc.StringValue(h));
  return out;
}

/// Single-target statements in the shape of the point_mix workload, plus
/// occasional multi-target ones: inserts of homepages, bidders and items,
/// deletes of homepages, increases, bidders, names and whole persons.
class PointStream {
 public:
  PointStream(const Document& doc, uint64_t seed)
      : rng_(seed),
        persons_(AttributeValues(doc, "/site/people/person/@id")),
        auctions_(
            AttributeValues(doc, "/site/open_auctions/open_auction/@id")) {
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
    switch (rng_.Uniform(allow_bulk ? 9 : 7)) {
      case 0:
        return UpdateStmt::InsertForest(
            person, "<homepage>http://h/" + std::to_string(serial_) +
                        "</homepage>");
      case 1:
        return UpdateStmt::InsertForest(
            auction, "<bidder><date>1/1/2001</date><personref person=\"" +
                         persons_[0] + "\"/><increase>4.50</increase>"
                         "</bidder>");
      case 2:
        return UpdateStmt::InsertForest(
            std::string("/site/regions/") + kRegions[rng_.Uniform(6)],
            "<item id=\"t" + std::to_string(serial_) +
                "\"><name>n</name><description>d " + std::to_string(serial_) +
                "</description></item>");
      case 3: return UpdateStmt::Delete(person + "/homepage");
      case 4: return UpdateStmt::Delete(auction + "/bidder/increase");
      case 5: return UpdateStmt::Delete(auction + "/bidder");
      case 6: return UpdateStmt::Delete(person + "/name");
      case 7: return UpdateStmt::Delete("/site/people/person/homepage");
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

/// Runs `steps` statements of `stream` through `mgr`: after each, every
/// view and snowcap equals recomputation, `tuples_modified` equals the full
/// walk's count, and both searches hold every row the full walk picks.
void RunStream(ViewManager* mgr, Document* doc, StoreIndex* store,
               PointStream* stream, int steps, bool allow_bulk, Rng* rng) {
  for (int step = 0; step < steps; ++step) {
    const UpdateStmt stmt = stream->Next(allow_bulk);
    const std::string context = "step " + std::to_string(step) + " " +
                                stmt.target_path;
    const std::vector<DeweyId> targets = TargetIds(*doc, stmt.target_path);
    auto out = mgr->ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const bool is_delete = stmt.kind == UpdateStmt::Kind::kDelete;
    const std::vector<DeweyId> anchors =
        is_delete ? std::vector<DeweyId>{} : targets;
    const std::vector<DeweyId> roots =
        is_delete ? Outermost(targets) : std::vector<DeweyId>{};
    for (size_t v = 0; v < mgr->size(); ++v) {
      const MaintainedView& mv = mgr->view(v);
      const std::string at = context + " view " + mv.def().name();
      ExpectMatchesRecompute(mv, *store, at);
      const MaintenanceStats& stats = out->per_view[v].stats;
      if (!stats.recompute_fallback) {
        EXPECT_EQ(stats.tuples_modified, WalkTuplesModified(mv, anchors, roots))
            << at;
      }
      if (step % 4 == 0) CheckReachAgainstWalk(mv, *doc, rng, 4, at);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void AddXMarkViews(ViewManager* mgr, LatticeStrategy strategy) {
  for (const std::string& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr->AddView(*def, strategy).ok()) << name;
  }
}

class DeltaUpkeepXMarkTest
    : public ::testing::TestWithParam<std::tuple<LatticeStrategy, int>> {};

TEST_P(DeltaUpkeepXMarkTest, RangeUpkeepEqualsFullWalk) {
  const auto [strategy, seed] = GetParam();
  Document doc;
  GenerateXMark(XMarkConfig{40 * 1024, static_cast<uint64_t>(seed)}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddXMarkViews(&mgr, strategy);
  PointStream stream(doc, static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  RunStream(&mgr, &doc, &store, &stream, 40, /*allow_bulk=*/true, &rng);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeltaUpkeepXMarkTest,
    ::testing::Combine(::testing::Values(LatticeStrategy::kSnowcaps,
                                         LatticeStrategy::kLeaves),
                       ::testing::Values(1, 2, 3)));

/// Random documents over five labels, random 2-5 node patterns with '/'
/// and '//' edges, nested same-label nodes, payloads anywhere and nodes
/// that store no ID, and random statements: after each statement both
/// searches of the view and of every snowcap hold every row the full walk
/// picks, for many anchor samples, and the view equals recomputation.
TEST(DeltaUpkeepTest, RandomPatternsOnRandomDocuments) {
  constexpr const char* kLabels[] = {"a", "b", "c", "d", "e"};
  size_t patterns = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    auto label = [&] { return std::string(kLabels[rng.Uniform(5)]); };
    Document doc;
    std::vector<NodeHandle> nodes = {doc.CreateRoot("r")};
    for (int i = 0; i < 70; ++i) {
      NodeHandle fresh =
          doc.AppendElement(nodes[rng.Uniform(nodes.size())], label());
      nodes.push_back(fresh);
      if (rng.Chance(1, 3)) doc.AppendText(fresh, std::to_string(i % 4));
    }
    StoreIndex store(&doc);
    store.Build();
    // Pattern: a root and one to four more nodes, each under a random
    // earlier one; a non-root node stores nothing one time in six.
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
    ++patterns;
    for (LatticeStrategy strategy :
         {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
      ViewManager probe_mgr(&doc, &store);
      if (!probe_mgr.AddView(*def, strategy).ok()) continue;
      const std::string context = "seed " + std::to_string(seed) + " " + dsl;
      CheckReachAgainstWalk(probe_mgr.view(0), doc, &rng, 16, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // A short statement stream against one manager (snowcaps on).
    ViewManager mgr(&doc, &store);
    if (!mgr.AddView(*def, LatticeStrategy::kSnowcaps).ok()) continue;
    for (int step = 0; step < 6 && doc.root() != kNullNode; ++step) {
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
      const std::string context = "seed " + std::to_string(seed) + " " + dsl +
                                  " step " + std::to_string(step);
      ExpectMatchesRecompute(mgr.view(0), store, context);
      CheckReachAgainstWalk(mgr.view(0), doc, &rng, 8, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(patterns, 16u);
}

/// On point statements upkeep costs O(depth · log n) rows per anchor, not
/// O(|view|): at most 50 rows compared per Δ row over all seven views.
TEST(DeltaUpkeepTest, PointStatementsVisitFewRowsPerDeltaRow) {
  Document doc;
  GenerateXMark(XMarkConfig{200 * 1024, 11}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddXMarkViews(&mgr, LatticeStrategy::kSnowcaps);
  size_t view_rows = 0;
  for (size_t v = 0; v < mgr.size(); ++v) {
    view_rows += mgr.view(v).view().size() +
                 mgr.view(v).lattice().TotalTuples();
  }
  PointStream stream(doc, 11);
  size_t visited = 0;
  size_t delta_rows = 0;
  for (int step = 0; step < 120; ++step) {
    auto out = mgr.ApplyAndPropagateAll(stream.Next(/*allow_bulk=*/false));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    delta_rows += out->nodes_inserted + out->nodes_deleted;
    for (const UpdateOutcome& o : out->per_view) {
      visited += o.stats.upkeep_rows_visited;
    }
  }
  ASSERT_GT(delta_rows, 0u);
  EXPECT_LE(visited, 50 * delta_rows)
      << "over " << view_rows << " view and snowcap rows";
}

/// Q6's `//item` with items nested in items: a node has several candidate
/// items among its ancestors, each a separate group.
TEST(DeltaUpkeepTest, DescendantEdgeWithNestedItems) {
  for (LatticeStrategy strategy :
       {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
    Document doc;
    ASSERT_TRUE(ParseDocument("<site><regions><europe>"
                              "<item id=\"i1\"><item id=\"i2\"><item "
                              "id=\"i3\"/></item><name>x</name></item>"
                              "<item id=\"i4\"><name>y</name></item>"
                              "</europe><asia><item id=\"i5\"><item "
                              "id=\"i6\"/></item></asia></regions></site>",
                              &doc)
                    .ok());
    StoreIndex store(&doc);
    store.Build();
    ViewManager mgr(&doc, &store);
    auto def = XMarkView("Q6");
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(mgr.AddView(*def, strategy).ok());
    Rng rng(5);
    const std::vector<UpdateStmt> stmts = {
        UpdateStmt::InsertForest("//item[@id=\"i3\"]", "<item id=\"i7\"/>"),
        UpdateStmt::InsertForest("//item[@id=\"i2\"]", "<name>deep</name>"),
        UpdateStmt::Delete("//item[@id=\"i7\"]"),
        UpdateStmt::InsertForest("//item", "<mark/>"),
        UpdateStmt::Delete("//item[@id=\"i2\"]/item"),
        UpdateStmt::Delete("//mark"),
        UpdateStmt::Delete("//item[@id=\"i5\"]/item"),
    };
    for (const UpdateStmt& stmt : stmts) {
      const std::vector<DeweyId> targets = TargetIds(doc, stmt.target_path);
      auto out = mgr.ApplyAndPropagateAll(stmt);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const bool is_delete = stmt.kind == UpdateStmt::Kind::kDelete;
      const MaintainedView& mv = mgr.view(0);
      ExpectMatchesRecompute(mv, store, stmt.target_path);
      EXPECT_EQ(out->per_view[0].stats.tuples_modified,
                WalkTuplesModified(
                    mv, is_delete ? std::vector<DeweyId>{} : targets,
                    is_delete ? Outermost(targets) : std::vector<DeweyId>{}))
          << stmt.target_path;
      CheckReachAgainstWalk(mv, doc, &rng, 16, stmt.target_path);
    }
  }
}

/// Views whose stored IDs leave out pattern ancestors: PIMT still finds
/// every tuple, through a shorter leading prefix (or none, when the first
/// stored ID is not an ancestor of the payload node: the whole view).
TEST(DeltaUpkeepTest, AncestorIdsNotStored) {
  const char* const kPatterns[] = {
      "/site(/people{id}(/person(/name{id,val})))",
      "/site(/people(/person{id}(/@id{id},/name{id,val})))",
      "/site(/open_auctions{id},/people(/person(/name{id,cont})))",
      "//person(/name{id,val},//homepage{id,cont})",
  };
  for (const char* dsl : kPatterns) {
    for (LatticeStrategy strategy :
         {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
      Document doc;
      GenerateXMark(XMarkConfig{30 * 1024, 3}, &doc);
      StoreIndex store(&doc);
      store.Build();
      ViewManager mgr(&doc, &store);
      auto def = ViewDefinition::Create("custom", dsl);
      ASSERT_TRUE(def.ok()) << dsl;
      ASSERT_TRUE(mgr.AddView(*def, strategy).ok()) << dsl;
      PointStream stream(doc, 21);
      Rng rng(9);
      RunStream(&mgr, &doc, &store, &stream, 24, /*allow_bulk=*/true, &rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // No leading stored ancestor: the search is the whole view.
  auto def = ViewDefinition::Create(
      "wide", "/site(/open_auctions{id},/people(/person(/name{id,cont})))");
  ASSERT_TRUE(def.ok());
  ViewLattice lattice(&def->pattern(), LatticeStrategy::kLeaves);
  ViewPlans plans(*def, lattice);
  ASSERT_EQ(plans.view().upkeep.payloads.size(), 1u);
  EXPECT_EQ(plans.view().upkeep.payloads[0].chain, 0u);
}

/// The order recorded at install: Q6's `//item` is the only inexact key;
/// Q1's name follows the non-ancestor @id, so its leading chain stops at
/// person and the spine at @id.
TEST(DeltaUpkeepTest, UpkeepOrderRecordedAtInstall) {
  auto q6 = XMarkView("Q6");
  ASSERT_TRUE(q6.ok());
  ViewLattice q6_lattice(&q6->pattern(), LatticeStrategy::kSnowcaps);
  ViewPlans q6_plans(*q6, q6_lattice);
  const UpkeepOrder& q6_order = q6_plans.view().upkeep;
  ASSERT_EQ(q6_order.keys.size(), 3u);
  EXPECT_EQ(q6_order.spine, 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(q6_order.keys[i].gap, 1u);
  EXPECT_TRUE(q6_order.keys[0].exact);
  EXPECT_TRUE(q6_order.keys[1].exact);
  EXPECT_FALSE(q6_order.keys[2].exact);
  ASSERT_EQ(q6_order.payloads.size(), 1u);
  EXPECT_EQ(q6_order.payloads[0].chain, 3u);
  // Snowcaps {site} and {site, regions}: no payload to refresh.
  ASSERT_EQ(q6_plans.snowcaps().size(), 2u);
  for (const TermSpace& sc : q6_plans.snowcaps()) {
    EXPECT_TRUE(sc.upkeep.payloads.empty());
  }

  auto q1 = XMarkView("Q1");
  ASSERT_TRUE(q1.ok());
  ViewLattice q1_lattice(&q1->pattern(), LatticeStrategy::kLeaves);
  ViewPlans q1_plans(*q1, q1_lattice);
  const UpkeepOrder& q1_order = q1_plans.view().upkeep;
  ASSERT_EQ(q1_order.keys.size(), 5u);
  EXPECT_EQ(q1_order.spine, 4u);
  EXPECT_EQ(q1_order.keys[4].chain, 3u);
  ASSERT_EQ(q1_order.payloads.size(), 1u);
  EXPECT_EQ(q1_order.payloads[0].chain, 3u);
}

/// Every payload node of the seven XMark views has all its pattern
/// ancestors stored and leading the sort order: no view searches a wider
/// range than its pattern's fan-out.
TEST(DeltaUpkeepTest, XMarkPayloadsHaveFullLeadingChains) {
  for (const std::string& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok());
    ViewLattice lattice(&def->pattern(), LatticeStrategy::kSnowcaps);
    ViewPlans plans(*def, lattice);
    ASSERT_TRUE(plans.status().ok());
    const TreePattern& pat = def->pattern();
    const UpkeepOrder& order = plans.view().upkeep;
    ASSERT_FALSE(order.payloads.empty()) << name;
    for (const UpkeepOrder::Payload& p : order.payloads) {
      int node = -1;
      for (const UpkeepOrder::Key& k : order.keys) {
        if (k.col == p.cols.id_col) node = k.node;
      }
      ASSERT_GE(node, 0);
      size_t ancestors = 0;
      for (int n = pat.node(node).parent; n != -1; n = pat.node(n).parent) {
        ++ancestors;
      }
      EXPECT_GE(p.chain, ancestors) << name << " " << pat.node(node).name;
    }
  }
}

/// Bulk Δs: with one anchor per ten rows the forward-only galloping cursor
/// keeps the search linear; with about as many anchors as rows, and with
/// every node of the document, the search gives up and is one pass over
/// every row.
TEST(DeltaUpkeepTest, BulkAnchorsStayLinear) {
  Document doc;
  GenerateXMark(XMarkConfig{60 * 1024, 4}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  AddXMarkViews(&mgr, LatticeStrategy::kSnowcaps);
  std::vector<DeweyId> live;
  for (NodeHandle h : doc.AllNodes()) live.push_back(doc.node(h).id);
  std::sort(live.begin(), live.end());
  for (size_t v = 0; v < mgr.size(); ++v) {
    const MaintainedView& mv = mgr.view(v);
    const std::string name = mv.def().name();
    const std::vector<LabelId> labels =
        PatternLabels(mv.def().pattern(), doc.dict());
    const UpkeepOrder& order = mv.plans().view().upkeep;
    const SortedRows rows(mv.view().content());
    for (size_t stride : {10, 1}) {
      // The payload IDs of every stride-th tuple.
      std::vector<DeweyId> anchors;
      size_t pos = 0;
      for (const CountedTuple& ct : mv.view().content()) {
        if (pos++ % stride != 0) continue;
        for (const UpkeepOrder::Payload& p : order.payloads) {
          anchors.push_back(ct.tuple[static_cast<size_t>(p.cols.id_col)].id());
        }
      }
      std::sort(anchors.begin(), anchors.end());
      anchors.erase(std::unique(anchors.begin(), anchors.end()),
                    anchors.end());
      const Reach reach = ReachPayloadAncestors(order, labels, anchors, rows);
      const std::string at = name + " stride " + std::to_string(stride);
      ExpectReachHolds(reach, WalkPayloadRows(order, anchors, rows),
                       rows.size(), at);
      EXPECT_LE(reach.rows_compared, 4 * rows.size() + 64) << at;
      if (stride == 10 && rows.size() >= 100) {
        EXPECT_GT(reach.rows_compared, 0u) << at << ": the search ran";
      }
      if (stride == 1 && rows.size() > 0) {
        ASSERT_EQ(reach.ranges.size(), 1u) << at;
        EXPECT_EQ(reach.ranges[0].end - reach.ranges[0].begin, rows.size());
        EXPECT_EQ(reach.rows_compared, 0u) << at;
      }
    }
    const Reach all = ReachPayloadAncestors(order, labels, live, rows);
    ExpectReachHolds(all, WalkPayloadRows(order, live, rows), rows.size(),
                     name + " every node");
  }
  // And end to end: bulk inserts and deletes over every person.
  for (const UpdateStmt& stmt :
       {UpdateStmt::InsertForest("/site/people/person",
                                 "<homepage>bulk</homepage>"),
        UpdateStmt::Delete("/site/people/person/homepage"),
        UpdateStmt::Delete("/site/open_auctions/open_auction/bidder")}) {
    auto out = mgr.ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (size_t v = 0; v < mgr.size(); ++v) {
      ExpectMatchesRecompute(mgr.view(v), store, stmt.target_path);
    }
  }
}

}  // namespace
}  // namespace xvm
