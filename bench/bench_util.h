#ifndef XVM_BENCH_BENCH_UTIL_H_
#define XVM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/recompute.h"
#include "common/metrics.h"
#include "store/canonical.h"
#include "update/update.h"
#include "view/maintain.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/document.h"

namespace xvm::bench {

/// Global size multiplier for document sizes, from the XVM_SCALE environment
/// variable (default 0.25). The paper's figures use 100 KB – 50 MB XMark
/// documents; the default scale keeps the whole harness to a few minutes.
/// Run with XVM_SCALE=1 to reproduce the paper's nominal sizes.
double Scale();

/// Repetitions per measurement (XVM_REPS, default 3; the paper averaged 5).
int Reps();

/// Propagation worker count for multi-view runs (XVM_WORKERS, default: the
/// hardware concurrency).
size_t Workers();

/// paper_kb scaled by Scale(), in bytes, with a small floor.
size_t ScaledBytes(size_t paper_kb);

/// A generated document with its store.
struct Workbench {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
};

Workbench MakeXMark(size_t bytes, uint64_t seed = 7);

/// Registers `def` on a one-view ViewManager over `wb` and applies `stmt`.
/// Returns the view's outcome with the statement's shared phases (target
/// location, Δ extraction) merged in, so its timing has all five §6.1
/// phases.
UpdateOutcome ApplyToOneView(Workbench* wb, ViewDefinition def,
                             LatticeStrategy strategy, const UpdateStmt& stmt);

/// One measured maintenance run: fresh document, initialized view, one
/// statement propagated. Returns the outcome (with the five-phase timing).
UpdateOutcome RunMaintained(const std::string& view_name, size_t bytes,
                            const UpdateStmt& stmt, LatticeStrategy strategy,
                            uint64_t seed = 7);

/// Same but measures the full-recomputation baseline.
UpdateOutcome RunRecompute(const std::string& view_name, size_t bytes,
                           const UpdateStmt& stmt, uint64_t seed = 7);

/// One multi-view coordinator run: fresh document, *all* XMark views
/// registered on one ViewManager, one statement applied and propagated to
/// every view with `workers` propagation lanes. Per-view order in the result
/// is XMarkViewNames() order. Optionally records into `metrics`.
MultiUpdateOutcome RunManagerAll(size_t bytes, const UpdateStmt& stmt,
                                 size_t workers, uint64_t seed = 7,
                                 MetricsRegistry* metrics = nullptr);

/// Writes metrics.ToJson() to $XVM_METRICS_JSON if set, else to stdout.
void DumpMetricsJson(const MetricsRegistry& metrics);

/// Averages outcomes of `reps` runs of `fn`.
template <typename Fn>
UpdateOutcome Averaged(int reps, Fn&& fn) {
  UpdateOutcome total;
  for (int i = 0; i < reps; ++i) {
    UpdateOutcome one = fn();
    total.timing.Merge(one.timing);
    total.stats = one.stats;
    total.nodes_inserted = one.nodes_inserted;
    total.nodes_deleted = one.nodes_deleted;
  }
  PhaseTimer averaged;
  for (const auto& [name, ms] : total.timing.phases()) {
    averaged.Add(name, ms / reps);
  }
  total.timing = averaged;
  return total;
}

/// Averages a MultiUpdateOutcome over `reps` runs of `fn`: shared and
/// per-view phase timings and the propagation wall time are all averaged.
template <typename Fn>
MultiUpdateOutcome AveragedMulti(int reps, Fn&& fn) {
  MultiUpdateOutcome total;
  for (int i = 0; i < reps; ++i) {
    MultiUpdateOutcome one = fn();
    if (i == 0) {
      total = std::move(one);
    } else {
      total.shared_timing.Merge(one.shared_timing);
      for (size_t v = 0; v < total.per_view.size(); ++v) {
        total.per_view[v].timing.Merge(one.per_view[v].timing);
      }
      total.propagate_wall_ms += one.propagate_wall_ms;
    }
  }
  auto avg = [reps](PhaseTimer* t) {
    PhaseTimer a;
    for (const auto& [name, ms] : t->phases()) a.Add(name, ms / reps);
    *t = a;
  };
  avg(&total.shared_timing);
  for (UpdateOutcome& o : total.per_view) avg(&o.timing);
  total.propagate_wall_ms /= reps;
  return total;
}

/// Figure-style output: a header banner and aligned rows.
void PrintBanner(const std::string& figure, const std::string& description);
void PrintPhaseHeader();
void PrintPhaseRow(const std::string& label, const PhaseTimer& timing);
void PrintKv(const std::string& key, double value_ms);

}  // namespace xvm::bench

#endif  // XVM_BENCH_BENCH_UTIL_H_
