#ifndef XVM_VIEW_LATTICE_H_
#define XVM_VIEW_LATTICE_H_

#include <vector>

#include "pattern/compile.h"
#include "view/terms.h"

namespace xvm {

class ViewPlans;  // view/view_plans.h

/// Which lattice nodes are materialized as auxiliary structures (§6.7).
enum class LatticeStrategy : uint8_t {
  /// "Snowcaps": materialize a small sufficient set of snowcaps — one per
  /// lattice level, forming a chain from {root} up to all-but-one node —
  /// plus the leaves (which the store maintains anyway).
  kSnowcaps,
  /// "Leaves": only the canonical relations; internal joins are recomputed
  /// on the fly at each maintenance step.
  kLeaves,
};

/// One materialized snowcap: the sub-pattern's node set, its binding layout
/// and the full-binding relation kept up to date across updates — in
/// binding order (BindingOrder(layout)), which term plans rely on.
struct MaterializedSnowcap {
  NodeSet nodes;
  BindingLayout layout;
  Relation data;
};

/// The view's auxiliary-structure manager. With kSnowcaps it materializes
/// the chain s_1 ⊂ s_2 ⊂ ... ⊂ s_{k-1} (s_i has i nodes; each s_{i+1} adds
/// the first pre-order node whose parent is already in s_i) — the paper's
/// "one snowcap at each level, pick the first" choice (§6.7). With kLeaves
/// nothing is materialized. These two are the only lattices a view can
/// have, and the delta prover (ProveDeltaEquivalence) checks both; the
/// paper leaves a cost-based snowcap choice to future work (§3.5).
class ViewLattice {
 public:
  ViewLattice() = default;
  ViewLattice(const TreePattern* pattern, LatticeStrategy strategy);

  LatticeStrategy strategy() const { return strategy_; }

  /// Populates every materialized snowcap from the store (view creation)
  /// by running its base plan from `plans`, the view's term-plan table
  /// built over this lattice.
  void Materialize(const StoreIndex& store, const ViewPlans& plans);

  std::vector<MaterializedSnowcap>& snowcaps() { return snowcaps_; }
  const std::vector<MaterializedSnowcap>& snowcaps() const {
    return snowcaps_;
  }

  /// Total materialized tuples across snowcaps (diagnostics / §6.7 plots).
  size_t TotalTuples() const;

 private:
  const TreePattern* pattern_ = nullptr;
  LatticeStrategy strategy_ = LatticeStrategy::kSnowcaps;
  std::vector<MaterializedSnowcap> snowcaps_;
};

}  // namespace xvm

#endif  // XVM_VIEW_LATTICE_H_
