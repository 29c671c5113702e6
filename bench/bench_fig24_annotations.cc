// Figure 24: the fixed update X1_L — delete
// /site/people/person[@id="person0"] — against Q1 variants differing only
// in where val+cont annotations sit. The paper's shape: the closer val/cont
// are to the root, the more expensive PDDT/PDMT (larger values to rebuild);
// pushing them to the leaves is cheapest.

#include "bench_util.h"

namespace xvm::bench {
namespace {

void Run() {
  PrintBanner("Figure 24",
              "Fixed delete X1_L vs Q1 with varying annotations (100 KB)");
  const size_t bytes = ScaledBytes(100);
  UpdateStmt del =
      UpdateStmt::Delete("/site/people/person[@id=\"person0\"]", "X1_L");
  std::printf("%-18s %12s %12s\n", "variant", "total_ms", "tuples_mod");
  for (const auto& variant : XMarkQ1VariantNames()) {
    size_t modified = 0;
    UpdateOutcome out = Averaged(Reps(), [&] {
      Workbench wb = MakeXMark(bytes, 7);
      auto def = XMarkQ1Variant(variant);
      XVM_CHECK(def.ok());
      UpdateOutcome o = ApplyToOneView(&wb, std::move(def).value(),
                                       LatticeStrategy::kSnowcaps, del);
      modified = o.stats.tuples_modified;
      return o;
    });
    std::printf("%-18s %12.3f %12zu\n", variant.c_str(),
                out.timing.TotalMs(), modified);
  }
}

}  // namespace
}  // namespace xvm::bench

int main() {
  xvm::bench::Run();
  return 0;
}
