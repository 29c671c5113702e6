#include "view/lattice.h"

#include "common/status.h"

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

void ViewLattice::Materialize(const StoreIndex& store) {
  for (auto& sc : snowcaps_) {
    sc.data = EvalTreePattern(*pattern_, StoreLeafSource(&store, pattern_),
                              &sc.nodes);
  }
}

const MaterializedSnowcap* ViewLattice::Find(const NodeSet& r_part) const {
  for (const auto& sc : snowcaps_) {
    if (sc.nodes == r_part) return &sc;
  }
  return nullptr;
}

size_t ViewLattice::TotalTuples() const {
  size_t total = 0;
  for (const auto& sc : snowcaps_) total += sc.data.size();
  return total;
}

}  // namespace xvm
