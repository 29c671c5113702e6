// Tests for the snapshot-isolated serving layer (view/snapshot.h): the
// read API on published ViewSnapshots, RCU publication semantics
// (immutability, payload reuse, cut consistency, staleness accounting),
// and a multi-reader/one-writer stress run whose every observed snapshot
// is checked bit-identical against a recompute at its generation.

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/invariant.h"
#include "common/metrics.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm {
namespace {

struct SmallBench {
  SmallBench() : store(&doc) {
    XVM_CHECK(ParseDocument("<r><a><b v=\"1\"/><b v=\"2\"/></a></r>", &doc)
                  .ok());
    store.Build();
    mgr = std::make_unique<ViewManager>(&doc, &store);
    auto def = ViewDefinition::Create("v", "//a{id}(//b{id})");
    XVM_CHECK(def.ok());
    auto idx = mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps);
    XVM_CHECK(idx.ok());
  }

  Document doc;
  StoreIndex store;
  std::unique_ptr<ViewManager> mgr;
};

std::vector<CountedTuple> Recompute(const ViewManager& mgr, size_t i,
                                    const StoreIndex& store) {
  const TreePattern& pat = mgr.view(i).def().pattern();
  return EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
}

/// `got` and `want` are vectors of CountedTuple or snapshot contents.
template <typename Got, typename Want>
void ExpectTuplesEqual(const Got& got, const Want& want,
                       const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].tuple, want[t].tuple) << at << " tuple#" << t;
    ASSERT_EQ(got[t].count, want[t].count) << at << " tuple#" << t;
  }
}

TEST(ViewSnapshotTest, ReadApiScanLookupAndXml) {
  SmallBench b;
  ViewSnapshotPtr snap = b.mgr->Snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->view_name(), "v");
  EXPECT_EQ(snap->generation(), 0u);  // published at registration
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_FALSE(snap->empty());
  EXPECT_EQ(snap->total_derivations(), 2);
  ExpectTuplesEqual(snap->tuples(), Recompute(*b.mgr, 0, b.store), "initial");

  // Point lookup round-trips through the stored-ID key of every tuple.
  for (const CountedTuple& ct : snap->tuples()) {
    const CountedTuple* hit = snap->FindByIdKey(snap->IdKeyOf(ct.tuple));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tuple, ct.tuple);
    EXPECT_EQ(hit->count, ct.count);
  }
  EXPECT_EQ(snap->FindByIdKey("no such key"), nullptr);

  // XML read path: one <t> per tuple, columns carried by name.
  std::string xml = snap->ToXml();
  EXPECT_NE(xml.find("<view name=\"v\" generation=\"0\">"), std::string::npos)
      << xml;
  size_t tuples_seen = 0;
  for (size_t pos = xml.find("<t>"); pos != std::string::npos;
       pos = xml.find("<t>", pos + 1)) {
    ++tuples_seen;
  }
  EXPECT_EQ(tuples_seen, 2u) << xml;
}

TEST(ViewSnapshotTest, SnapshotsAreImmutableAcrossStatements) {
  SmallBench b;
  ViewSnapshotPtr before = b.mgr->Snapshot(0);
  std::vector<CountedTuple> before_copy(before->tuples().begin(),
                                        before->tuples().end());

  ASSERT_TRUE(
      b.mgr->ApplyAndPropagateAll(UpdateStmt::InsertForest("//a", "<b/>"))
          .ok());
  ASSERT_TRUE(b.mgr->ApplyAndPropagateAll(UpdateStmt::Delete("//a/b[@v=\"1\"]"))
                  .ok());

  // The old acquisition still reads exactly what it read before.
  EXPECT_EQ(before->generation(), 0u);
  ExpectTuplesEqual(before->tuples(), before_copy, "held snapshot");

  // A fresh acquisition reflects both statements and the newest generation.
  ViewSnapshotPtr after = b.mgr->Snapshot(0);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->generation(), b.mgr->last_sequence());
  EXPECT_EQ(after->generation(), 2u);
  ExpectTuplesEqual(after->tuples(), Recompute(*b.mgr, 0, b.store), "fresh");
}

TEST(ViewSnapshotTest, UnchangedViewSharesPayloadAcrossGenerations) {
  // Two independent views; a statement that only touches one must re-stamp
  // (not copy) the other's snapshot.
  Document doc;
  ASSERT_TRUE(ParseDocument("<r><a/><c/></r>", &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  auto va = ViewDefinition::Create("va", "//a{id}");
  auto vc = ViewDefinition::Create("vc", "//c{id}");
  ASSERT_TRUE(va.ok() && vc.ok());
  ASSERT_TRUE(mgr.AddView(std::move(va).value(), LatticeStrategy::kSnowcaps)
                  .ok());
  ASSERT_TRUE(mgr.AddView(std::move(vc).value(), LatticeStrategy::kSnowcaps)
                  .ok());

  ViewSnapshotPtr a0 = mgr.Snapshot(0);
  ViewSnapshotPtr c0 = mgr.Snapshot(1);
  ASSERT_TRUE(
      mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest("//r", "<a/>")).ok());
  ViewSnapshotPtr a1 = mgr.Snapshot(0);
  ViewSnapshotPtr c1 = mgr.Snapshot(1);

  // Both carry the new cut's generation...
  EXPECT_EQ(a1->generation(), 1u);
  EXPECT_EQ(c1->generation(), 1u);
  // ...but only the touched view rebuilt its payload: the untouched view's
  // tuple vector is literally the same object, re-stamped O(1).
  EXPECT_NE(&a1->tuples(), &a0->tuples());
  EXPECT_EQ(&c1->tuples(), &c0->tuples());
  EXPECT_EQ(c1->source_version(), c0->source_version());
  EXPECT_EQ(a1->size(), 2u);
}

TEST(ViewSnapshotTest, SnapshotAllIsCutConsistent) {
  SmallBench b;
  auto vdef = ViewDefinition::Create("w", "//a{id}(//b{id}(/@v{id,val}))");
  ASSERT_TRUE(vdef.ok());
  ASSERT_TRUE(
      b.mgr->AddView(std::move(vdef).value(), LatticeStrategy::kLeaves).ok());

  ASSERT_TRUE(b.mgr
                  ->ApplyAndPropagateAll(
                      UpdateStmt::InsertForest("//a", "<b v=\"3\"/>"))
                  .ok());
  SnapshotSetPtr cut = b.mgr->SnapshotAll();
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->generation, b.mgr->last_sequence());
  ASSERT_EQ(cut->views.size(), 2u);
  EXPECT_EQ(cut->Find("v"), cut->views[0].get());
  EXPECT_EQ(cut->Find("w"), cut->views[1].get());
  EXPECT_EQ(cut->Find("absent"), nullptr);
  for (size_t i = 0; i < cut->views.size(); ++i) {
    // Every member reflects exactly the cut's statement prefix.
    ExpectTuplesEqual(cut->views[i]->tuples(), Recompute(*b.mgr, i, b.store),
                      "cut view " + cut->views[i]->view_name());
    EXPECT_LE(cut->views[i]->generation(), cut->generation);
  }
}

TEST(ViewSnapshotTest, ServingStatsAndMetricsAccounting) {
  SmallBench b;
  MetricsRegistry metrics;
  b.mgr->set_metrics(&metrics);

  ServingStats s0 = b.mgr->serving_stats();
  (void)b.mgr->Snapshot(0);
  (void)b.mgr->SnapshotAll();
  ServingStats s1 = b.mgr->serving_stats();
  EXPECT_EQ(s1.reads, s0.reads + 2);
  // Reads between statements are not stale.
  EXPECT_EQ(s1.staleness_sum, s0.staleness_sum);

  ASSERT_TRUE(
      b.mgr->ApplyAndPropagateAll(UpdateStmt::InsertForest("//a", "<b/>"))
          .ok());
  (void)b.mgr->Snapshot(0);
  ServingStats s2 = b.mgr->serving_stats();
  EXPECT_EQ(s2.publications, s1.publications + 1);
  EXPECT_EQ(s2.reads, s1.reads + 1);

  // The registry's serving pseudo-view carries the counter deltas and the
  // generation gauge. The registration-time publication predates the
  // registry attachment, so the first recorded delta folds it in: 2.
  auto snap = metrics.Snapshot();
  ASSERT_EQ(snap.count(kServingMetricsView), 1u);
  const ViewMetrics& m = snap[kServingMetricsView];
  EXPECT_EQ(m.counters().at("publications"), 2);
  EXPECT_EQ(m.counters().at("reads_served"), 2);
  EXPECT_EQ(m.gauges().at("snapshot_generation"), 1);
  EXPECT_GE(m.phases().at("publish_snapshot").total_ms(), 0.0);
}

TEST(ViewSnapshotTest, RecoveryPublishesRecoveredState) {
  const std::string dir = ::testing::TempDir() + "/serving_recover";
  std::filesystem::remove_all(dir);  // leftovers from an earlier run
  uint64_t final_seq = 0;
  std::vector<CountedTuple> want;
  {
    SmallBench b;
    ASSERT_TRUE(b.mgr->EnableDurability(dir).ok());
    ASSERT_TRUE(
        b.mgr->ApplyAndPropagateAll(UpdateStmt::InsertForest("//a", "<b/>"))
            .ok());
    ASSERT_TRUE(b.mgr->Checkpoint(dir).ok());
    ASSERT_TRUE(
        b.mgr->ApplyAndPropagateAll(UpdateStmt::InsertForest("//a", "<b/>"))
            .ok());
    final_seq = b.mgr->last_sequence();
    ViewSnapshotPtr live = b.mgr->Snapshot(0);
    want.assign(live->tuples().begin(), live->tuples().end());
  }
  // Recovery posture: empty document, view registered, Recover() fills in
  // everything from the checkpoint + WAL tail.
  Document doc;
  StoreIndex store(&doc);
  ViewManager mgr(&doc, &store);
  auto def = ViewDefinition::Create("v", "//a{id}(//b{id})");
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  ASSERT_TRUE(mgr.Recover(dir).ok());
  ViewSnapshotPtr snap = mgr.Snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation(), final_seq);
  ExpectTuplesEqual(snap->tuples(), want, "recovered snapshot");
}

// ---------------------------------------------------------------------------
// Multi-reader / one-writer stress: N reader threads continuously acquire
// snapshots while the coordinator applies a mixed XMark workload. Run under
// TSan (scripts/check.sh runs it in the targeted TSan leg) this proves the
// publication path race-free; the post-hoc replay proves every observed
// snapshot bit-identical to a recompute at its generation.

struct XMarkBench {
  explicit XMarkBench(uint64_t seed) : store(&doc) {
    GenerateXMark(XMarkConfig{30 * 1024, seed}, &doc);
    store.Build();
    mgr = std::make_unique<ViewManager>(&doc, &store);
    for (const char* name : {"Q1", "Q2", "Q17"}) {
      auto def = XMarkView(name);
      XVM_CHECK(def.ok());
      auto idx =
          mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps);
      XVM_CHECK(idx.ok());
    }
  }

  Document doc;
  StoreIndex store;
  std::unique_ptr<ViewManager> mgr;
};

std::vector<UpdateStmt> StressWorkload(size_t rounds) {
  std::vector<UpdateStmt> stmts;
  for (size_t r = 0; r < rounds; ++r) {
    for (const char* name : {"X1_L", "X2_L", "A6_A"}) {
      auto u = FindXMarkUpdate(name);
      XVM_CHECK(u.ok());
      stmts.push_back(MakeInsertStmt(*u));
    }
    for (const char* name : {"A6_A", "X2_L", "X1_L"}) {
      auto u = FindXMarkUpdate(name);
      XVM_CHECK(u.ok());
      stmts.push_back(MakeDeleteStmt(*u));
    }
  }
  return stmts;
}

// What one reader saw: the first full-content observation per generation.
struct Observation {
  std::vector<std::vector<CountedTuple>> views;  // registration order
};

TEST(ServingStressTest, ConcurrentReadersSeeOnlyExactGenerations) {
  ScopedInvariantAuditing audit(true);
  constexpr uint64_t kSeed = 4242;
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 3;
  XMarkBench bench(kSeed);
  const std::vector<UpdateStmt> workload = StressWorkload(kRounds);

  std::atomic<bool> done{false};
  std::vector<std::map<uint64_t, Observation>> seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last_gen = 0;
      bool final_pass = false;
      while (true) {
        if (done.load(std::memory_order_acquire)) final_pass = true;
        SnapshotSetPtr cut = bench.mgr->SnapshotAll();
        ASSERT_NE(cut, nullptr);
        // Generations only move forward for any single reader.
        ASSERT_GE(cut->generation, last_gen);
        last_gen = cut->generation;
        ASSERT_EQ(cut->views.size(), 3u);
        Observation obs;
        for (const ViewSnapshotPtr& vs : cut->views) {
          ASSERT_NE(vs, nullptr);
          // A member may carry an older stamp only when unchanged since.
          ASSERT_LE(vs->generation(), cut->generation);
          // Cheap in-loop structural checks on the immutable payload.
          const auto& tuples = vs->tuples();
          int64_t derivations = 0;
          for (size_t t = 0; t < tuples.size(); ++t) {
            ASSERT_GT(tuples[t].count, 0);
            derivations += tuples[t].count;
            if (t > 0) {
              ASSERT_TRUE(tuples[t - 1].tuple < tuples[t].tuple);
            }
          }
          ASSERT_EQ(derivations, vs->total_derivations());
          if (!tuples.empty()) {
            const CountedTuple& probe = tuples[tuples.size() / 2];
            const CountedTuple* hit =
                vs->FindByIdKey(vs->IdKeyOf(probe.tuple));
            ASSERT_NE(hit, nullptr);
            ASSERT_EQ(hit->tuple, probe.tuple);
          }
          obs.views.emplace_back(tuples.begin(), tuples.end());
        }
        seen[r].emplace(cut->generation, std::move(obs));  // first one wins
        if (final_pass) break;
      }
      // The final read (after the writer finished) saw the last statement.
      ASSERT_EQ(last_gen, workload.size());
    });
  }

  for (const UpdateStmt& stmt : workload) {
    auto out = bench.mgr->ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Post-hoc: replay the same seed+workload on a fresh engine; at each
  // generation every reader's observation must be bit-identical to a fresh
  // evaluation over the replayed store at exactly that prefix.
  size_t checked = 0;
  XMarkBench replay(kSeed);
  auto check_generation = [&](uint64_t gen) {
    std::vector<std::vector<CountedTuple>> truth;
    for (size_t i = 0; i < replay.mgr->size(); ++i) {
      truth.push_back(Recompute(*replay.mgr, i, replay.store));
    }
    for (size_t r = 0; r < kReaders; ++r) {
      auto it = seen[r].find(gen);
      if (it == seen[r].end()) continue;
      ASSERT_EQ(it->second.views.size(), truth.size());
      for (size_t i = 0; i < truth.size(); ++i) {
        ExpectTuplesEqual(it->second.views[i], truth[i],
                          "reader " + std::to_string(r) + " gen " +
                              std::to_string(gen) + " view " +
                              std::to_string(i));
        ++checked;
      }
    }
  };
  check_generation(0);
  for (size_t s = 0; s < workload.size(); ++s) {
    ASSERT_TRUE(replay.mgr->ApplyAndPropagateAll(workload[s]).ok());
    check_generation(s + 1);
  }

  // Every reader contributed at least its final-generation observation.
  EXPECT_GE(checked, kReaders * bench.mgr->size());
  ServingStats stats = bench.mgr->serving_stats();
  uint64_t observations = 0;
  for (const auto& m : seen) observations += m.size();
  EXPECT_GE(stats.reads, observations);
  // One publication per registration and per applied statement.
  EXPECT_EQ(stats.publications, 3 + workload.size());
}

}  // namespace
}  // namespace xvm
