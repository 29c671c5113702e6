#ifndef XVM_VIEW_OUTCOME_H_
#define XVM_VIEW_OUTCOME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/timing.h"

namespace xvm {

/// Counters reported by one maintenance step.
struct MaintenanceStats {
  size_t terms_considered = 0;   // after update-independent pruning
  size_t terms_pruned_data = 0;  // Props. 3.6 / 3.8 / 4.7
  size_t terms_evaluated = 0;
  int64_t derivations_added = 0;
  int64_t derivations_removed = 0;
  size_t tuples_modified = 0;       // PIMT / PDMT rewrites
  /// View tuples and snowcap rows that PIMT, PDMT and snowcap upkeep
  /// compared: their binary-search probes plus the rows of the groups
  /// those found (view/upkeep.h).
  size_t upkeep_rows_visited = 0;
  /// Rows the store and snowcap leaves of evaluated terms delivered
  /// (view/term_bounds.h).
  size_t leaf_rows_read = 0;
  /// Of those leaves, the ones read whole: no bound, or past the probe
  /// budget.
  size_t leaves_unbounded = 0;
  bool recompute_fallback = false;  // predicate-guard / baseline recompute
};

/// Result of one statement-level propagation (any maintenance strategy).
struct UpdateOutcome {
  PhaseTimer timing;  // the five §6.1 phases
  MaintenanceStats stats;
  size_t nodes_inserted = 0;
  size_t nodes_deleted = 0;
};

/// Result of one statement propagated to *all* views of a ViewManager.
/// Document-side work done once for every view (FindTargetNodes,
/// ComputeDeltaTables) is reported in `shared_timing`, not smeared into any
/// view's own breakdown — per_view[i].timing holds only that view's
/// propagation phases. Consumers wanting one view's end-to-end cost add the
/// shared phases explicitly (TotalMsFor), amortizing them as they see fit.
struct MultiUpdateOutcome {
  std::vector<UpdateOutcome> per_view;  // registration order
  PhaseTimer shared_timing;             // charged once per statement
  size_t nodes_inserted = 0;
  size_t nodes_deleted = 0;
  double propagate_wall_ms = 0.0;  // wall time of the per-view fan-out
  size_t workers = 1;              // worker count the engine ran with

  /// View i's phases plus the statement's shared phases, in milliseconds.
  double TotalMsFor(size_t i) const {
    return per_view[i].timing.TotalMs() + shared_timing.TotalMs();
  }
};

}  // namespace xvm

#endif  // XVM_VIEW_OUTCOME_H_
