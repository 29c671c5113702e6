#ifndef XVM_VIEW_MANAGER_H_
#define XVM_VIEW_MANAGER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "pul/pul.h"
#include "view/maintain.h"
#include "view/snapshot.h"
#include "view/wal.h"

namespace xvm {

/// The Δ state of one statement, extracted once with the *union* of every
/// registered view's payload needs and then shared read-only by all
/// propagation workers. Freezing it (together with the document and the
/// still-pre-update canonical store) is what makes the per-view propagation
/// passes share-nothing.
struct BatchedDeltaPlan {
  DeltaTables delta_minus;  // Δ− with the union of val-capture labels
  DeltaTables delta_plus;   // Δ+ with the union of val/cont payload labels
  DeletedRegion region;     // deleted subtree roots (empty when no deletes)
  bool has_deletes = false;
  bool has_inserts = false;
};

/// Pseudo-view name under which the coordinator reports shared (non-per-view)
/// work to a MetricsRegistry.
inline constexpr char kSharedMetricsView[] = "__shared__";

/// Pseudo-view name under which the coordinator reports store-level val/cont
/// cache counters (cache_hits / cache_misses / cache_invalidations /
/// cache_evictions), published as per-statement deltas of the cache's
/// monotonic totals.
inline constexpr char kStoreMetricsView[] = "__store__";

/// Pseudo-view name under which the coordinator reports the serving layer:
/// counters reads_served / staleness_sum / publications (per-statement
/// deltas of the publisher's monotonic totals), chunks_copied /
/// index_shards_copied (view-store chunks and index shards copied on write
/// since the previous publication), the publish_snapshot phase latency, and
/// gauges snapshot_generation / staleness_max.
inline constexpr char kServingMetricsView[] = "__serving__";

// The physical executor's statistics (per-kernel invocation and row
// counters, static/dynamic sort elisions, scan fusions, the execute_plan
// phase) are reported under kExecMetricsView ("__exec__"), declared in
// algebra/exec/exec.h next to the executor that produces them.

/// Coordinates several materialized views over one document/store: the
/// paper's "context where several views are materialized" (§3.5), and the
/// engine's only write API.
///
/// Every write runs one pipeline, split into two halves:
///  - *stage*: WAL append, target location, Δ− (read off the document
///    before it changes), the document update, val/cont cache
///    invalidation, and Δ+ — each extracted once with the union of all
///    views' payload needs (BatchedDeltaPlan). The result is queued.
///  - *flush*: for each queued statement, every view's propagation pass —
///    concurrently when set_workers(n > 1) — then the canonical relations
///    roll forward. Once the queue is empty: fallback recomputes, the
///    invariant audit, one snapshot publication, metrics.
/// ApplyAndPropagateAll is stage + flush (immediate mode). Defer is stage
/// only, and Flush drains the queue: the paper's §5 lazy mode, where
/// propagation waits until the views are consulted.
///
/// Parallel engine: each MaintainedView owns its content and lattice, and
/// during the fan-out the document, store and Δ plan are frozen, so views
/// are share-nothing and the parallel result is bit-identical to the serial
/// one. Tasks are dispatched in registration order by a work-stealing-free
/// ThreadPool; workers == 1 runs inline with no pool at all.
///
/// Lock discipline (common/thread_annotations.h): the manager's *write*
/// path is externally synchronized — exactly one coordinator thread calls
/// its mutating methods, so those members carry no capability annotations.
/// The state that IS shared during a fan-out lives behind annotated
/// internally-synchronized components: the ThreadPool's batch state (Mutex +
/// CondVar), the MetricsRegistry (SharedMutex, writers exclusive / snapshot
/// readers shared) and the store's ValContCache (16 per-stripe Mutex
/// capabilities). Workers additionally write MultiUpdateOutcome::per_view,
/// which is safe lock-free because each worker owns exactly its own index's
/// slot and the coordinator reads only after ParallelFor's completion
/// barrier.
///
/// The *read* path is different: Snapshot()/SnapshotAll()/serving_stats()
/// are safe from any number of concurrent reader threads while the
/// coordinator runs, because they only touch the internally-synchronized
/// SnapshotPublisher (view/snapshot.h) — an RCU-style slot the coordinator
/// swaps after every flush. A reader holds an immutable generation-stamped
/// ViewSnapshot for as long as it likes; it never observes a
/// partially-applied statement and never blocks maintenance. Reads never
/// flush: deferred statements show up as snapshot staleness.
class ViewManager {
 public:
  ViewManager(Document* doc, StoreIndex* store) : doc_(doc), store_(store) {}

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Registers and initializes a view. Returns its index. Before any data
  /// is touched, every plan the view's maintenance will run is statically
  /// analyzed (MaintainedView::CheckPlans); a view whose plans fail schema
  /// inference or order-property verification is rejected with
  /// InvalidArgument and not registered.
  StatusOr<size_t> AddView(ViewDefinition def, LatticeStrategy strategy);

  size_t size() const { return views_.size(); }
  const MaintainedView& view(size_t i) const { return *views_[i]; }
  MaintainedView& mutable_view(size_t i) { return *views_[i]; }

  /// Finds a registered view by name; nullptr if absent.
  const MaintainedView* FindView(const std::string& name) const;

  /// Sets the propagation worker count (>= 1). The pool is (re)created
  /// lazily on the next flush; 1 tears it down and runs the
  /// serial inline path.
  void set_workers(size_t n);
  size_t workers() const { return workers_; }

  /// Optional observability sink: per-view phase latencies and maintenance
  /// counters are recorded after every statement (shared work under
  /// kSharedMetricsView). The registry must outlive the manager. nullptr
  /// disables recording.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Applies the statement to the document and propagates it to every
  /// registered view (Defer + Flush: statements queued earlier are flushed
  /// first, in order; if this statement fails, they stay queued). Handles insert, delete and replace statements — a
  /// replace PUL both deletes and inserts, so the Δ− pass runs first and
  /// the Δ+ pass excludes R-side bindings under the replaced subtrees.
  ///
  /// With durability enabled the statement is appended to the WAL and
  /// fsynced *before* the document is touched, so a crash anywhere inside
  /// this call is recovered by replaying the statement.
  StatusOr<MultiUpdateOutcome> ApplyAndPropagateAll(const UpdateStmt& stmt);

  /// Like ApplyAndPropagateAll for an already-expanded atomic-op sequence
  /// (the §5 pipeline: compute-pul → optimization rules → propagate). Its Δ−
  /// covers the sequence's plain delete targets. Statements queued by Defer
  /// are flushed first, since the ops' ID targets resolve through the
  /// canonical relations; the returned outcome covers the sequence only.
  /// WAL records are UpdateStmts, so this returns FailedPrecondition while
  /// durability is on.
  StatusOr<MultiUpdateOutcome> ApplyOpsAndPropagateAll(const OpSequence& ops);

  /// The stage half on its own: logs and applies the statement to the
  /// document and queues its Δ plan; the views and the canonical relations
  /// stay behind until Flush(). Snapshots are not republished, so readers
  /// see the deferred statements as staleness.
  Status Defer(const UpdateStmt& stmt);

  /// Flush half: propagates every queued statement in order, then
  /// publishes. Returns the accumulated outcome (shared_timing covers the
  /// staging of every flushed statement). A no-op on an empty queue.
  MultiUpdateOutcome Flush();

  /// Statements staged by Defer and not yet flushed.
  size_t pending() const { return queue_.size(); }

  /// -- Durability (view/persist.h + view/wal.h + common/file_io.h) --
  ///
  /// Enables write-ahead logging into `dir` (created if absent): every
  /// subsequent statement is durable before it executes. Refuses with
  /// FailedPrecondition when `dir` already holds a checkpoint manifest and
  /// this manager has not recovered from it — silently logging on top of a
  /// state that was never loaded would corrupt recovery.
  Status EnableDurability(const std::string& dir);

  /// Writes a full checkpoint into `dir`: a document snapshot, one snapshot
  /// per registered view, and a manifest committed *last* — each via
  /// AtomicWriteFile, so a crash at any point leaves the previous checkpoint
  /// (or its absence) fully intact. After the manifest commits, the WAL (if
  /// enabled on the same directory) is truncated; a crash in between is
  /// handled by LSN-gated replay. Finishes by sweeping stale generations'
  /// files. Callable with or without EnableDurability. Flushes first, so
  /// the saved document and views reflect the same statements.
  Status Checkpoint(const std::string& dir);

  /// Restores state from `dir` and enables durability on it. Requires a
  /// freshly-constructed document/store/manager with the final set of views
  /// already registered (AddView over the empty document). Loads the newest
  /// valid checkpoint (a view file that fails validation falls back to
  /// recompute from the restored store), then replays every WAL record whose
  /// LSN exceeds the checkpoint's. Missing manifest means WAL-only recovery:
  /// replay onto the caller's initial state. Statement-level failures during
  /// replay are skipped — they failed identically before the crash.
  Status Recover(const std::string& dir);

  /// LSN of the most recently applied (or replayed) statement; 0 initially.
  uint64_t last_sequence() const { return seq_; }

  /// -- Snapshot-isolated serving (view/snapshot.h) --
  ///
  /// Current published snapshot of view `i` (registration index); nullptr
  /// before the view was registered+published. Thread-safe: callable from
  /// any reader thread concurrently with the write path.
  ViewSnapshotPtr Snapshot(size_t i) const { return publisher_.AcquireView(i); }

  /// Cut-consistent snapshot across all views: every entry reflects the
  /// same statement generation. Thread-safe like Snapshot().
  SnapshotSetPtr SnapshotAll() const { return publisher_.Acquire(); }

  /// Monotonic serving totals (reads, staleness, publications). Thread-safe.
  ServingStats serving_stats() const { return publisher_.stats(); }

 private:
  /// One staged statement: its frozen Δ plan and the nodes it added to and
  /// removed from the document, for the store roll-forward.
  struct Staged {
    BatchedDeltaPlan plan;
    std::vector<NodeHandle> inserted_nodes;
    std::vector<NodeHandle> deleted_nodes;
  };

  /// Shared tail of the stage half (Defer, ApplyOpsAndPropagateAll): Δ−
  /// from `pul`'s deletes, the document update (`pul`, or `ops` when
  /// non-null), cache invalidation, Δ+; queues the entry.
  void StagePul(const Pul& pul, const OpSequence* ops);
  bool durable() const { return wal_ != nullptr && wal_->is_open(); }
  /// Runs fn(0..n-1) over the views, on the pool when workers_ > 1.
  void RunPerView(const std::function<void(size_t)>& fn);
  void RecordMetrics(const MultiUpdateOutcome& out);
  /// Builds the next snapshot generation (reusing the previous generation's
  /// payloads for views whose content version is unchanged) and swaps it
  /// into the publisher; records serving metrics when a registry is set.
  void PublishSnapshots();
  /// Debug-mode invariant audit (common/invariant.h): when enabled, checks
  /// the storage layer and sampled view contents after each flush and
  /// aborts with diagnostics on any violation.
  void MaybeAuditAfterFlush();

  Document* doc_;
  StoreIndex* store_;
  std::vector<std::unique_ptr<MaintainedView>> views_;
  size_t workers_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // lazily created when workers_ > 1
  MetricsRegistry* metrics_ = nullptr;
  uint64_t audit_seq_ = 0;  // flushes audited (rotates view sampling)

  /// Staged statements awaiting the flush half, oldest first, and the
  /// document-side outcome (shared timing, node counts) of their staging.
  std::deque<Staged> queue_;
  MultiUpdateOutcome staged_;

  /// Durability state (externally synchronized like the rest).
  std::string dur_dir_;                 // empty = durability disabled
  std::unique_ptr<WriteAheadLog> wal_;  // open iff durability enabled
  uint64_t seq_ = 0;       // LSN of the last applied statement
  uint64_t ckpt_gen_ = 0;  // generation of the last written/loaded checkpoint
  bool recovered_ = false;  // Recover() ran (possibly finding nothing)
  bool replaying_ = false;  // inside Recover's replay loop: skip WAL appends
  /// Cache totals at the previous RecordMetrics, so each statement reports
  /// only its own delta.
  ValContCache::Stats last_cache_stats_;

  /// The serving layer's RCU slot (internally synchronized — the one part
  /// of the manager reader threads touch directly).
  SnapshotPublisher publisher_;
  /// Publisher and view-store copy totals at the previous PublishSnapshots,
  /// so each statement reports only its own delta.
  ServingStats last_serving_stats_;
  uint64_t last_chunks_copied_ = 0;
  uint64_t last_shards_copied_ = 0;
};

}  // namespace xvm

#endif  // XVM_VIEW_MANAGER_H_
