// Ablation studies for the design choices behind the maintenance engine
// (not paper figures; they quantify the ingredients the paper credits):
//
//  A. Term pruning (Props. 3.6 / 3.8 / 4.7): propagation time with both
//     data-driven pruning rules on, each alone, and both off.
//  B. Pattern evaluation strategy: per-edge structural-join pipeline vs
//     holistic twig (PathStack + merge) on the XMark views.
//  C. Snowcap choice: cost-based (§3.5 future work, view/costmodel.h) vs
//     the paper's one-per-level chain vs leaves-only, under an update
//     profile the chooser was given.

#include "bench_util.h"

#include "pattern/twig.h"
#include "view/costmodel.h"

namespace xvm::bench {
namespace {

void AblatePruning() {
  PrintBanner("Ablation A", "Term pruning on/off (insert + delete, 1 MB)");
  const size_t bytes = ScaledBytes(1024);
  struct Arm {
    const char* name;
    MaintainOptions opts;
  };
  const Arm arms[] = {
      {"both_rules", {true, true}},
      {"only_empty_delta", {true, false}},
      {"only_anchor_paths", {false, true}},
      {"no_pruning", {false, false}},
  };
  std::printf("%-20s %12s %12s %14s %14s\n", "arm", "ins_ms", "del_ms",
              "ins_terms_eval", "del_terms_eval");
  for (const Arm& arm : arms) {
    double ins_ms = 0, del_ms = 0;
    size_t ins_terms = 0, del_terms = 0;
    for (int rep = 0; rep < Reps(); ++rep) {
      for (const char* uname : {"X2_L", "B3_LB"}) {
        auto u = FindXMarkUpdate(uname);
        XVM_CHECK(u.ok());
        for (bool insert : {true, false}) {
          Workbench wb = MakeXMark(bytes, 7);
          auto def = XMarkView("Q2");
          XVM_CHECK(def.ok());
          ViewManager mgr(wb.doc.get(), wb.store.get());
          XVM_CHECK(
              mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps)
                  .ok());
          mgr.mutable_view(0).set_options(arm.opts);
          auto out = mgr.ApplyAndPropagateAll(insert ? MakeInsertStmt(*u)
                                                     : MakeDeleteStmt(*u));
          XVM_CHECK(out.ok());
          const UpdateOutcome& o = out->per_view[0];
          double prop_ms = o.timing.Get(phase::kGetExpression) +
                           o.timing.Get(phase::kExecuteUpdate) +
                           o.timing.Get(phase::kUpdateLattice);
          (insert ? ins_ms : del_ms) += prop_ms;
          (insert ? ins_terms : del_terms) += o.stats.terms_evaluated;
        }
      }
    }
    std::printf("%-20s %12.3f %12.3f %14zu %14zu\n", arm.name,
                ins_ms / Reps(), del_ms / Reps(), ins_terms / Reps(),
                del_terms / Reps());
  }
}

void AblateEvalStrategy() {
  PrintBanner("Ablation B",
              "Pattern evaluation: structural-join pipeline vs holistic "
              "twig (full view evaluation, 1 MB)");
  const size_t bytes = ScaledBytes(1024);
  Workbench wb = MakeXMark(bytes, 7);
  std::printf("%-6s %14s %14s %10s\n", "view", "joins_ms", "twig_ms",
              "tuples");
  for (const auto& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    XVM_CHECK(def.ok());
    const TreePattern& pat = def->pattern();
    LeafSource src = StoreLeafSource(wb.store.get(), &pat);
    double joins_ms = 0, twig_ms = 0;
    size_t tuples = 0;
    for (int rep = 0; rep < Reps(); ++rep) {
      WallTimer t1;
      Relation a = EvalTreePattern(pat, src, nullptr);
      joins_ms += t1.ElapsedMs();
      WallTimer t2;
      Relation b = EvalTreePatternTwig(pat, src, nullptr);
      twig_ms += t2.ElapsedMs();
      XVM_CHECK(a.size() == b.size());
      tuples = a.size();
    }
    std::printf("%-6s %14.3f %14.3f %10zu\n", name.c_str(), joins_ms / Reps(),
                twig_ms / Reps(), tuples);
  }
}

void AblateSnowcapChoice() {
  PrintBanner("Ablation C",
              "Snowcap choice: cost-based vs per-level chain vs leaves "
              "(view Q1, X1_L-shaped update stream, 1 MB)");
  const size_t bytes = ScaledBytes(1024);
  auto u = FindXMarkUpdate("X1_L");
  XVM_CHECK(u.ok());

  // The update profile the statement stream follows: name-heavy inserts.
  UpdateProfile profile;
  profile.Set("name", 5.0);

  struct Arm {
    const char* name;
    int mode;  // 0 = cost-based, 1 = chain, 2 = leaves
  };
  std::printf("%-12s %14s %14s %12s\n", "arm", "propagate_ms",
              "lattice_tuples", "snowcaps");
  for (const Arm& arm : {Arm{"cost_based", 0}, Arm{"chain", 1},
                         Arm{"leaves", 2}}) {
    double ms = 0;
    size_t lattice_tuples = 0, snowcap_count = 0;
    for (int rep = 0; rep < Reps(); ++rep) {
      Workbench wb = MakeXMark(bytes, 7);
      auto def = XMarkView("Q1");
      XVM_CHECK(def.ok());
      ViewManager mgr(wb.doc.get(), wb.store.get());
      if (arm.mode == 0) {
        auto chosen =
            ChooseSnowcaps(def->pattern(), *wb.store, profile, 4);
        XVM_CHECK(mgr.AddView(std::move(def).value(), std::move(chosen)).ok());
      } else {
        XVM_CHECK(mgr.AddView(std::move(def).value(),
                              arm.mode == 1 ? LatticeStrategy::kSnowcaps
                                            : LatticeStrategy::kLeaves)
                      .ok());
      }
      for (int i = 0; i < 3; ++i) {
        auto out = mgr.ApplyAndPropagateAll(MakeInsertStmt(*u));
        XVM_CHECK(out.ok());
        const PhaseTimer& t = out->per_view[0].timing;
        ms += t.Get(phase::kGetExpression) + t.Get(phase::kExecuteUpdate) +
              t.Get(phase::kUpdateLattice);
      }
      lattice_tuples = mgr.view(0).lattice().TotalTuples();
      snowcap_count = mgr.view(0).lattice().snowcaps().size();
    }
    std::printf("%-12s %14.3f %14zu %12zu\n", arm.name, ms / Reps(),
                lattice_tuples, snowcap_count);
  }
}

}  // namespace
}  // namespace xvm::bench

int main() {
  xvm::bench::AblatePruning();
  xvm::bench::AblateEvalStrategy();
  xvm::bench::AblateSnowcapChoice();
  return 0;
}
