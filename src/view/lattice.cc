#include "view/lattice.h"

#include "common/status.h"
#include "view/view_plans.h"

namespace xvm {

ViewLattice::ViewLattice(const TreePattern* pattern, LatticeStrategy strategy)
    : pattern_(pattern), strategy_(strategy) {
  if (strategy_ != LatticeStrategy::kSnowcaps) return;
  const size_t k = pattern_->size();
  NodeSet current(k, false);
  current[0] = true;  // {root}
  // Chain of proper snowcaps, sizes 1 .. k-1.
  for (size_t size = 1; size + 1 <= k; ++size) {
    MaterializedSnowcap sc;
    sc.nodes = current;
    sc.layout = ComputeBindingLayout(*pattern_, &sc.nodes);
    snowcaps_.push_back(std::move(sc));
    if (size + 1 >= k) break;
    // Grow: first pre-order node not yet included whose parent is included.
    bool grown = false;
    for (size_t i = 1; i < k && !grown; ++i) {
      if (current[i]) continue;
      int p = pattern_->node(static_cast<int>(i)).parent;
      if (current[static_cast<size_t>(p)]) {
        current[i] = true;
        grown = true;
      }
    }
    XVM_CHECK(grown);
  }
}

void ViewLattice::Materialize(const StoreIndex& store,
                              const ViewPlans& plans) {
  XVM_CHECK(plans.snowcaps().size() == snowcaps_.size());
  const LeafSource leaves = StoreLeafSource(&store, pattern_);
  for (size_t i = 0; i < snowcaps_.size(); ++i) {
    snowcaps_[i].data = RunPatternPlan(plans.snowcaps()[i].base, leaves);
  }
}

size_t ViewLattice::TotalTuples() const {
  size_t total = 0;
  for (const auto& sc : snowcaps_) total += sc.data.size();
  return total;
}

}  // namespace xvm
