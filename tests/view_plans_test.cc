#include "view/view_plans.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pattern/compile.h"
#include "update/delta.h"
#include "update/update.h"
#include "view/maintain.h"
#include "view/manager.h"
#include "view/persist.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"

namespace xvm {
namespace {

constexpr LatticeStrategy kStrategies[] = {LatticeStrategy::kSnowcaps,
                                           LatticeStrategy::kLeaves};

ViewDefinition XMarkDef(const std::string& name) {
  auto def = XMarkView(name);
  XVM_CHECK(def.ok());
  return std::move(def).value();
}

TEST(ViewPlansTest, EntryCountIsTwoPerDeltaSet) {
  for (const std::string& name : XMarkViewNames()) {
    const ViewDefinition def = XMarkDef(name);
    const TreePattern& pat = def.pattern();
    for (LatticeStrategy strategy : kStrategies) {
      ViewLattice lattice(&pat, strategy);
      ViewPlans plans(def, lattice);
      ASSERT_TRUE(plans.status().ok()) << name << ": "
                                       << plans.status().message();
      size_t expected = 2 * EnumerateDeltaSets(pat).size();
      for (const MaterializedSnowcap& sc : lattice.snowcaps()) {
        expected += 2 * EnumerateDeltaSetsWithin(pat, sc.nodes).size();
      }
      EXPECT_EQ(plans.term_count(), expected) << name;
      ASSERT_EQ(plans.snowcaps().size(), lattice.snowcaps().size()) << name;
    }
  }
}

TEST(ViewPlansTest, EntryReadsASnowcapExactlyWhenItsRPartIsOne) {
  for (const std::string& name : XMarkViewNames()) {
    const ViewDefinition def = XMarkDef(name);
    const TreePattern& pat = def.pattern();
    for (LatticeStrategy strategy : kStrategies) {
      ViewLattice lattice(&pat, strategy);
      ViewPlans plans(def, lattice);
      ASSERT_TRUE(plans.status().ok()) << name;
      std::vector<const TermSpace*> spaces = {&plans.view()};
      for (const TermSpace& sc : plans.snowcaps()) spaces.push_back(&sc);
      for (const TermSpace* space : spaces) {
        for (size_t i = 0; i < space->size(); ++i) {
          for (bool with_region : {false, true}) {
            const TermEntry& term = space->Term(i, with_region);
            EXPECT_EQ(term.with_region, with_region);
            NodeSet r_part(pat.size(), false);
            for (size_t n = 0; n < pat.size(); ++n) {
              r_part[n] = space->within[n] && !term.delta_set[n];
            }
            int expected = -1;
            for (size_t s = 0; s < lattice.snowcaps().size(); ++s) {
              if (lattice.snowcaps()[s].nodes == r_part) {
                expected = static_cast<int>(s);
              }
            }
            EXPECT_EQ(term.snowcap, expected)
                << name << " Δ-set " << NodeSetToString(pat, term.delta_set);
            if (strategy == LatticeStrategy::kLeaves) {
              EXPECT_EQ(term.snowcap, -1) << name;
            }
          }
        }
      }
    }
  }
}

/// Addresses of every plan in a view's table: the logical roots and the
/// lowered kernel arrays.
std::vector<const void*> PlanAddresses(const ViewPlans& plans) {
  std::vector<const void*> out;
  auto add = [&out](const TermSpace& space) {
    out.push_back(space.base.nodes.data());
    for (const TermEntry& term : space.entries) {
      out.push_back(term.logical.get());
      out.push_back(term.physical.nodes.data());
    }
  };
  add(plans.view());
  for (const TermSpace& sc : plans.snowcaps()) add(sc);
  return out;
}

TEST(ViewPlansTest, PlanAddressesAreStableAcrossAStatementStream) {
  Document doc;
  GenerateXMark(XMarkConfig{30 * 1024, 7}, &doc);
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  for (const std::string& name : XMarkViewNames()) {
    ASSERT_TRUE(mgr.AddView(XMarkDef(name), LatticeStrategy::kSnowcaps).ok());
  }
  std::vector<std::vector<const void*>> before;
  for (size_t v = 0; v < mgr.size(); ++v) {
    before.push_back(PlanAddresses(mgr.view(v).plans()));
  }
  for (const char* update : {"X2_L", "X16_A", "X8_AO"}) {
    auto u = FindXMarkUpdate(update);
    ASSERT_TRUE(u.ok()) << update;
    ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok()) << update;
    ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeDeleteStmt(*u)).ok()) << update;
  }
  for (size_t v = 0; v < mgr.size(); ++v) {
    EXPECT_EQ(PlanAddresses(mgr.view(v).plans()), before[v])
        << mgr.view(v).def().name();
  }
}

/// Runs one statement through a single view's propagation halves, the way
/// ViewManager's pipeline does: Δ− before the update, the PUL applied with
/// the store's relations still old, Δ+, propagation, then roll-forward.
void PropagateStatement(const UpdateStmt& stmt, Document* doc,
                        StoreIndex* store, MaintainedView* view) {
  StatusOr<Pul> pul = ComputePul(*doc, stmt);
  ASSERT_TRUE(pul.ok()) << pul.status().message();
  const std::set<LabelId> val_labels = view->DeltaMinusValLabelIds();
  DeltaTables dm;
  if (!pul->deletes.empty()) {
    dm = ComputeDeltaMinus(*doc, *pul, nullptr, &val_labels);
  }
  ApplyResult applied = ApplyPul(doc, *pul, nullptr);
  InvalidateStoreValCont(store, applied);
  const DeltaNeeds needs = view->DeltaPlusNeeds();
  DeltaTables dp = ComputeDeltaPlus(*doc, applied, nullptr, &needs);
  DeletedRegion region(dm.anchor_ids());
  PhaseTimer timer;
  MaintenanceStats stats;
  view->PropagateDelete(dm, &timer, &stats);
  view->PropagateInsert(dp, &region, &timer, &stats);
  store->OnNodesRemoved(applied.deleted_nodes);
  store->OnNodesAdded(applied.inserted_nodes);
  ASSERT_FALSE(stats.recompute_fallback);
}

void ExpectMatchesRecompute(const MaintainedView& view,
                            const StoreIndex& store) {
  const TreePattern& pat = view.def().pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
  auto got = view.view().Snapshot();
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got[i].tuple, truth[i].tuple);
    EXPECT_EQ(got[i].count, truth[i].count);
  }
}

TEST(ViewPlansTest, RestoredViewPropagatesWithoutInitialize) {
  for (LatticeStrategy strategy : kStrategies) {
    auto doc = std::make_unique<Document>();
    GenerateXMark(XMarkConfig{30 * 1024, 19}, doc.get());
    StoreIndex store(doc.get());
    store.Build();
    MaintainedView src(XMarkDef("Q1"), &store, strategy);
    ASSERT_TRUE(src.CheckPlans().ok());
    src.Initialize();
    const std::string bytes = SaveViewToBytes(src);

    // The persistence path: a fresh view whose content comes from the
    // checkpoint, never from Initialize(). Its table was built when it was
    // constructed, so it maintains like the original.
    MaintainedView restored(XMarkDef("Q1"), &store, strategy);
    ASSERT_TRUE(LoadViewFromBytes(bytes, &restored).ok());
    const size_t loaded = restored.view().Snapshot().size();
    auto u = FindXMarkUpdate("X1_L");  // a name under every person
    ASSERT_TRUE(u.ok());
    PropagateStatement(MakeInsertStmt(*u), doc.get(), &store, &restored);
    EXPECT_GT(restored.view().Snapshot().size(), loaded);
    ExpectMatchesRecompute(restored, store);
    PropagateStatement(MakeDeleteStmt(*u), doc.get(), &store, &restored);
    ExpectMatchesRecompute(restored, store);
  }
}

}  // namespace
}  // namespace xvm
