// Randomized differential testing: random documents, random view patterns,
// random statement streams — after every statement the maintained view must
// equal both the store-backed and the navigational from-scratch
// evaluations, and the document/store invariants must hold.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "common/invariant.h"
#include "common/rng.h"
#include "pattern/compile.h"
#include "store/audit.h"
#include "view/maintain.h"
#include "view/manager.h"
#include "xml/serializer.h"
#include "xml/parser.h"

namespace xvm {
namespace {

constexpr const char* kLabels[] = {"a", "b", "c", "d", "e"};
constexpr size_t kNumLabels = 5;

/// Values of the `id` attributes that `attrs` documents and forests carry,
/// and that @id-addressed statements select.
constexpr size_t kNumIdValues = 6;

std::string RandomIdValue(Rng* rng) {
  return "k" + std::to_string(rng->Uniform(kNumIdValues));
}

/// Builds a random document of ~`n` elements with occasional text children;
/// with `attrs`, a third of the elements also carry an `id` attribute.
void RandomDocument(Rng* rng, int n, Document* doc, bool attrs = false) {
  NodeHandle root = doc->CreateRoot("r");
  std::vector<NodeHandle> nodes = {root};
  for (int i = 0; i < n; ++i) {
    NodeHandle parent = nodes[rng->Uniform(nodes.size())];
    NodeHandle fresh =
        doc->AppendElement(parent, kLabels[rng->Uniform(kNumLabels)]);
    nodes.push_back(fresh);
    if (attrs && rng->Chance(1, 3)) {
      doc->AppendAttribute(fresh, "id", RandomIdValue(rng));
    }
    if (rng->Chance(1, 4)) {
      doc->AppendText(fresh, std::to_string(rng->Uniform(3)));
    }
  }
}

/// A random conjunctive pattern of 2-4 nodes over the label alphabet,
/// as its DSL text (so identical patterns can be instantiated in several
/// engines). Patterns avoid value predicates so updates never trip the
/// conservative recompute fallback (the fallback path has its own tests).
/// With `payloads`, nodes may also store val or cont, so updates beneath a
/// stored node exercise PIMT/PDMT.
std::string RandomPatternDsl(Rng* rng, bool payloads = false) {
  auto annotation = [&] {
    if (!payloads) return "{id}";
    const size_t pick = rng->Uniform(3);
    return pick == 0 ? "{id}" : pick == 1 ? "{id,val}" : "{id,cont}";
  };
  // Separate statements: operands of one + expression are unsequenced.
  std::string dsl = std::string("//") + kLabels[rng->Uniform(kNumLabels)];
  dsl += annotation();
  size_t extra = 1 + rng->Uniform(3);
  std::vector<std::string> branches;
  for (size_t i = 0; i < extra; ++i) {
    std::string edge = rng->Chance(1, 3) ? "/" : "//";
    edge += kLabels[rng->Uniform(kNumLabels)];
    branches.push_back(edge + annotation());
  }
  // Half the time nest the branches, otherwise fan out.
  std::string child_text;
  if (rng->Chance(1, 2) && branches.size() > 1) {
    std::string nested = branches.back();
    for (size_t i = branches.size() - 1; i-- > 0;) {
      nested = branches[i] + "(" + nested + ")";
    }
    child_text = nested;
  } else {
    for (size_t i = 0; i < branches.size(); ++i) {
      if (i > 0) child_text += ",";
      child_text += branches[i];
    }
  }
  dsl += "(" + child_text + ")";
  return dsl;
}

TreePattern RandomPattern(Rng* rng) {
  auto p = TreePattern::Parse(RandomPatternDsl(rng));
  XVM_CHECK(p.ok());
  return std::move(p).value();
}

/// A random forest of depth <= 2 over the alphabet; with `attrs`, tree
/// roots may carry an `id` attribute, so later @id-addressed statements can
/// select inserted nodes.
std::string RandomForest(Rng* rng, bool attrs = false) {
  std::string forest;
  size_t trees = 1 + rng->Uniform(2);
  for (size_t t = 0; t < trees; ++t) {
    const char* l1 = kLabels[rng->Uniform(kNumLabels)];
    forest += std::string("<") + l1;
    if (attrs && rng->Chance(1, 2)) {
      forest += " id=\"" + RandomIdValue(rng) + "\"";
    }
    forest += ">";
    size_t kids = rng->Uniform(3);
    for (size_t c = 0; c < kids; ++c) {
      const char* l2 = kLabels[rng->Uniform(kNumLabels)];
      forest += std::string("<") + l2 + "/>";
    }
    forest += std::string("</") + l1 + ">";
  }
  return forest;
}

/// A random statement over the alphabet; with `replace`, a quarter of the
/// non-delete statements replace their targets' content instead. With
/// `attrs`, a third of the statements select their targets by `@id` value
/// (the attribute-value index path of target location), and inserted
/// forests carry `id` attributes too.
UpdateStmt RandomStatement(Rng* rng, bool replace = false,
                           bool attrs = false) {
  const char* target_label = kLabels[rng->Uniform(kNumLabels)];
  std::string target = std::string("//") + target_label;
  if (attrs && rng->Chance(1, 3)) {
    target += "[@id=\"" + RandomIdValue(rng) + "\"]";
  } else if (rng->Chance(1, 3)) {
    // Narrow the target with an existence predicate.
    target += std::string("[") + kLabels[rng->Uniform(kNumLabels)] + "]";
  }
  if (rng->Chance(2, 5)) return UpdateStmt::Delete(target);
  if (replace && rng->Chance(1, 4)) {
    return UpdateStmt::ReplaceContent(target, RandomForest(rng, attrs));
  }
  return UpdateStmt::InsertForest(target, RandomForest(rng, attrs));
}

void ExpectStoreConsistent(const Document& doc, const StoreIndex& store) {
  // Every alive node is in its relation exactly once, in document order.
  size_t total = 0;
  for (size_t l = 0; l < doc.dict().size(); ++l) {
    const auto& rel = store.Relation(static_cast<LabelId>(l));
    for (size_t i = 0; i < rel.size(); ++i) {
      ASSERT_TRUE(doc.IsAlive(rel.nodes()[i]));
      ASSERT_EQ(doc.node(rel.nodes()[i]).label, static_cast<LabelId>(l));
      if (i > 0) {
        ASSERT_LT(doc.node(rel.nodes()[i - 1]).id,
                  doc.node(rel.nodes()[i]).id);
      }
    }
    total += rel.size();
  }
  ASSERT_EQ(total, doc.num_alive());
}

class FuzzStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzStreamTest, MaintainedEqualsRecomputedUnderRandomStream) {
  // The differential run doubles as the invariant auditor's proving ground:
  // after every statement the maintenance layer re-audits store + view.
  ScopedInvariantAuditing audit(true);
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299709 + 17);
  Document doc;
  RandomDocument(&rng, 150, &doc, /*attrs=*/true);
  StoreIndex store(&doc);
  store.Build();

  auto def = ViewDefinition::FromPattern("fuzz", RandomPattern(&rng));
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  LatticeStrategy strategy = rng.Chance(1, 2) ? LatticeStrategy::kSnowcaps
                                              : LatticeStrategy::kLeaves;
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, strategy).ok());
  const MaintainedView& mv = mgr.view(0);

  for (int step = 0; step < 12; ++step) {
    if (doc.root() == kNullNode) break;  // stream deleted the whole tree
    UpdateStmt stmt = RandomStatement(&rng, /*replace=*/false,
                                      /*attrs=*/true);
    // Inserting under //label multiplies matching targets, so an insert-
    // heavy stream can grow the document geometrically, and nested
    // same-label patterns grow the view polynomially in it; past either
    // bound, only deletions keep the differential check fast.
    while ((doc.num_alive() > 1000 || mv.view().size() > 5000) &&
           stmt.kind != UpdateStmt::Kind::kDelete) {
      stmt = RandomStatement(&rng, /*replace=*/false, /*attrs=*/true);
    }
    auto out = mgr.ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(out.ok()) << out.status().ToString() << " step " << step;

    ExpectStoreConsistent(doc, store);

    // Store-backed ground truth.
    const TreePattern& pat = mv.def().pattern();
    auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
    auto got = mv.view().Snapshot();
    ASSERT_EQ(got.size(), truth.size())
        << "step " << step << " pattern " << pat.ToString()
        << " stmt " << stmt.target_path;
    for (size_t i = 0; i < truth.size(); ++i) {
      ASSERT_EQ(got[i].tuple, truth[i].tuple) << "step " << step;
      ASSERT_EQ(got[i].count, truth[i].count) << "step " << step;
    }

    // Navigational ground truth (independent evaluator).
    auto nav = NavigationalViewEval(mv.def(), doc);
    ASSERT_EQ(nav.size(), truth.size()) << "step " << step;
    for (size_t i = 0; i < truth.size(); ++i) {
      ASSERT_EQ(nav[i].tuple, truth[i].tuple) << "step " << step;
      ASSERT_EQ(nav[i].count, truth[i].count) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStreamTest, ::testing::Range(1, 25));

/// One ViewManager over a random document (seeded by `doc_seed`, with `id`
/// attributes if `attrs`) with one view per pattern DSL; engines built from
/// the same arguments are identical.
struct Engine {
  Engine(uint64_t doc_seed, size_t workers,
         const std::vector<std::string>& dsls,
         const std::vector<LatticeStrategy>& strategies, bool attrs = false)
      : store(&doc) {
    Rng doc_rng(doc_seed);
    RandomDocument(&doc_rng, 120, &doc, attrs);
    store.Build();
    mgr = std::make_unique<ViewManager>(&doc, &store);
    mgr->set_workers(workers);
    for (size_t v = 0; v < dsls.size(); ++v) {
      auto p = TreePattern::Parse(dsls[v]);
      XVM_CHECK(p.ok());
      auto def = ViewDefinition::FromPattern("v" + std::to_string(v),
                                             std::move(p).value());
      XVM_CHECK(def.ok());
      // Meta-check: the static analyzer must accept every plan the
      // compiler emits, for every fuzzed pattern/strategy combination.
      auto idx = mgr->AddView(std::move(def).value(), strategies[v]);
      XVM_CHECK(idx.ok());
    }
  }
  Document doc;
  StoreIndex store;
  std::unique_ptr<ViewManager> mgr;
};

/// The same differential property, but through the multi-worker ViewManager:
/// a parallel engine and a serial engine follow one random statement stream
/// over identically-seeded documents and views; after every statement the
/// engines must agree with each other and with a store-backed recomputation.
/// Runs with invariant auditing on, so the coordinator's own post-statement
/// audits (document order, Dewey prefixes, view-vs-recompute) execute under
/// whatever sanitizer the build was configured with.
class FuzzParallelManagerTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzParallelManagerTest, ParallelEqualsSerialUnderRandomStream) {
  ScopedInvariantAuditing audit(true);
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 512927377 + 29;

  // Shared configuration drawn once, so both engines see identical views.
  Rng cfg_rng(seed);
  std::vector<std::string> pattern_dsls;
  std::vector<LatticeStrategy> strategies;
  for (int v = 0; v < 3; ++v) {
    pattern_dsls.push_back(RandomPatternDsl(&cfg_rng));
    strategies.push_back(cfg_rng.Chance(1, 2) ? LatticeStrategy::kSnowcaps
                                              : LatticeStrategy::kLeaves);
  }

  Engine serial(seed, 1, pattern_dsls, strategies);
  Engine parallel(seed, 4, pattern_dsls, strategies);

  Rng stream_rng(seed ^ 0x9E3779B97F4A7C15ULL);
  for (int step = 0; step < 10; ++step) {
    if (serial.doc.root() == kNullNode) break;
    UpdateStmt stmt = RandomStatement(&stream_rng);
    while (serial.doc.num_alive() > 800 &&
           stmt.kind != UpdateStmt::Kind::kDelete) {
      stmt = RandomStatement(&stream_rng);
    }
    auto so = serial.mgr->ApplyAndPropagateAll(stmt);
    auto po = parallel.mgr->ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(so.ok()) << so.status().ToString() << " step " << step;
    ASSERT_TRUE(po.ok()) << po.status().ToString() << " step " << step;
    ASSERT_EQ(so->nodes_inserted, po->nodes_inserted) << "step " << step;
    ASSERT_EQ(so->nodes_deleted, po->nodes_deleted) << "step " << step;

    for (size_t v = 0; v < serial.mgr->size(); ++v) {
      auto ss = serial.mgr->view(v).view().Snapshot();
      auto ps = parallel.mgr->view(v).view().Snapshot();
      ASSERT_EQ(ss.size(), ps.size()) << "view " << v << " step " << step;
      for (size_t t = 0; t < ss.size(); ++t) {
        ASSERT_EQ(ss[t].tuple, ps[t].tuple) << "view " << v << " step " << step;
        ASSERT_EQ(ss[t].count, ps[t].count) << "view " << v << " step " << step;
      }
      // Both engines == store-backed ground truth.
      const TreePattern& pat = parallel.mgr->view(v).def().pattern();
      auto truth =
          EvalViewWithCounts(pat, StoreLeafSource(&parallel.store, &pat));
      ASSERT_EQ(ps.size(), truth.size()) << "view " << v << " step " << step;
      for (size_t t = 0; t < truth.size(); ++t) {
        ASSERT_EQ(ps[t].tuple, truth[t].tuple)
            << "view " << v << " step " << step;
        ASSERT_EQ(ps[t].count, truth[t].count)
            << "view " << v << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParallelManagerTest,
                         ::testing::Range(1, 13));

void ExpectSameSnapshots(const SnapshotSet& got, const SnapshotSet& want,
                         const std::string& context) {
  ASSERT_EQ(got.views.size(), want.views.size()) << context;
  for (size_t v = 0; v < want.views.size(); ++v) {
    const auto& g = got.views[v]->tuples();
    const auto& w = want.views[v]->tuples();
    ASSERT_EQ(g.size(), w.size()) << "view " << v << " " << context;
    for (size_t t = 0; t < w.size(); ++t) {
      ASSERT_EQ(g[t].tuple, w[t].tuple) << "view " << v << " " << context;
      ASSERT_EQ(g[t].count, w[t].count) << "view " << v << " " << context;
    }
  }
}

/// Deferred (§5 lazy) vs immediate maintenance: two identical managers with
/// three views (some storing val/cont) follow one random stream that
/// includes replace statements. The immediate engine applies each statement
/// at once; the deferred engine Defers it and Flushes at random points.
/// After every flush the deferred snapshots must be bit-identical to the
/// immediate ones and to a store-backed recompute; between flushes readers
/// see the last flushed generation.
class FuzzDeferredManagerTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDeferredManagerTest, DeferredEqualsImmediateUnderRandomStream) {
  ScopedInvariantAuditing audit(true);
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 2147483647 + 7;

  Rng cfg_rng(seed);
  std::vector<std::string> pattern_dsls;
  std::vector<LatticeStrategy> strategies;
  for (int v = 0; v < 3; ++v) {
    pattern_dsls.push_back(RandomPatternDsl(&cfg_rng, /*payloads=*/true));
    strategies.push_back(cfg_rng.Chance(1, 2) ? LatticeStrategy::kSnowcaps
                                              : LatticeStrategy::kLeaves);
  }
  Engine immediate(seed, 1, pattern_dsls, strategies, /*attrs=*/true);
  Engine deferred(seed, 1 + cfg_rng.Uniform(3), pattern_dsls, strategies,
                  /*attrs=*/true);

  Rng stream_rng(seed ^ 0x2545F4914F6CDD1DULL);
  uint64_t flushed_seq = 0;
  for (int step = 0; step < 14; ++step) {
    if (immediate.doc.root() == kNullNode) break;
    // Nested same-label patterns grow views polynomially in the document;
    // past either bound only deletions keep the audited run fast.
    size_t largest_view = 0;
    for (size_t v = 0; v < immediate.mgr->size(); ++v) {
      largest_view =
          std::max(largest_view, immediate.mgr->view(v).view().size());
    }
    const bool shrink_only =
        immediate.doc.num_alive() > 400 || largest_view > 1000;
    UpdateStmt stmt =
        RandomStatement(&stream_rng, /*replace=*/true, /*attrs=*/true);
    while (shrink_only && stmt.kind != UpdateStmt::Kind::kDelete) {
      stmt = RandomStatement(&stream_rng, /*replace=*/true, /*attrs=*/true);
    }
    const std::string context = "step " + std::to_string(step);
    auto io = immediate.mgr->ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(io.ok()) << io.status().ToString() << " " << context;
    ASSERT_TRUE(deferred.mgr->Defer(stmt).ok()) << context;
    ASSERT_EQ(SerializeDocument(deferred.doc), SerializeDocument(immediate.doc))
        << context;
    // Readers never flush: they still see the last flushed generation.
    ASSERT_EQ(deferred.mgr->SnapshotAll()->generation, flushed_seq) << context;

    const bool last = step == 13 || immediate.doc.root() == kNullNode;
    if (!last && !stream_rng.Chance(1, 3)) continue;
    deferred.mgr->Flush();
    flushed_seq = deferred.mgr->last_sequence();
    ASSERT_EQ(deferred.mgr->pending(), 0u) << context;
    ExpectStoreConsistent(deferred.doc, deferred.store);
    SnapshotSetPtr got = deferred.mgr->SnapshotAll();
    ASSERT_EQ(got->generation, flushed_seq) << context;
    ExpectSameSnapshots(*got, *immediate.mgr->SnapshotAll(), context);
    for (size_t v = 0; v < deferred.mgr->size(); ++v) {
      const TreePattern& pat = deferred.mgr->view(v).def().pattern();
      auto truth =
          EvalViewWithCounts(pat, StoreLeafSource(&deferred.store, &pat));
      const auto& tuples = got->views[v]->tuples();
      ASSERT_EQ(tuples.size(), truth.size()) << "view " << v << " " << context;
      for (size_t t = 0; t < truth.size(); ++t) {
        ASSERT_EQ(tuples[t].tuple, truth[t].tuple) << "view " << v;
        ASSERT_EQ(tuples[t].count, truth[t].count) << "view " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDeferredManagerTest,
                         ::testing::Range(1, 17));

/// Serialization survives random mutation streams (parse(serialize(d)) is
/// structurally identical).
class FuzzSerializeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSerializeTest, SerializeParseStableUnderMutation) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  Document doc;
  RandomDocument(&rng, 100, &doc);
  StoreIndex store(&doc);
  store.Build();
  for (int step = 0; step < 6; ++step) {
    if (doc.root() == kNullNode) break;
    UpdateStmt stmt = RandomStatement(&rng);
    auto pul = ComputePul(doc, stmt);
    ASSERT_TRUE(pul.ok());
    ApplyPul(&doc, *pul, &store);
    InvariantReport report;
    AuditStorageLayer(doc, store, &report);
    ASSERT_TRUE(report.ok()) << "step " << step << "\n" << report.ToString();
    std::string s1 = SerializeDocument(doc);
    Document reparsed;
    ASSERT_TRUE(ParseDocument(s1, &reparsed).ok());
    EXPECT_EQ(SerializeDocument(reparsed), s1);
    EXPECT_EQ(reparsed.num_alive(), doc.num_alive());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSerializeTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace xvm
