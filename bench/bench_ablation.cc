// Ablation study for a design choice behind the maintenance engine (not a
// paper figure; it quantifies an ingredient the paper credits):
//
//  A. Term pruning (Props. 3.6 / 3.8 / 4.7): propagation time with both
//     data-driven pruning rules on, each alone, and both off.
//
// The snowcap chain vs leaves-only comparison is bench_fig29_32_snowcaps.

#include "bench_util.h"

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

}  // namespace
}  // namespace xvm::bench

int main() {
  xvm::bench::AblatePruning();
  return 0;
}
