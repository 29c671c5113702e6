#ifndef XVM_VIEW_SNAPSHOT_H_
#define XVM_VIEW_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "algebra/value.h"
#include "common/thread_annotations.h"
#include "view/view_store.h"

namespace xvm {

/// Snapshot-isolated view serving (the §3.5 multi-view context as a read
/// path): maintenance owns the mutable MaterializedView, while readers are
/// handed immutable, refcounted ViewSnapshot objects published RCU-style.
/// Each applied statement builds the next generation and atomically swaps
/// it into a SnapshotPublisher; a reader that acquired a snapshot keeps a
/// shared_ptr reference, so it never observes a partial statement, never
/// blocks maintenance, and maintenance never blocks it — the snapshot stays
/// valid (and bit-identical to the view content at its generation) for as
/// long as the reader holds it, even across later statements, checkpoints
/// or recoveries.

/// One view's content frozen at a statement generation: the (tuple, count)
/// content in canonical order with its ID-key index (view/view_store.h) and
/// the stored-tuple schema. Immutable after construction; share it freely
/// across threads. The content is the writer's MaterializedView::Freeze():
/// it shares every chunk and index shard the statement did not touch with
/// the previous generation, and an unchanged view is re-stamped at a newer
/// generation without any copy (ViewSnapshot::Restamped).
class ViewSnapshot {
 public:
  /// `source_version` is the producing MaterializedView's mutation version,
  /// used by publishers to reuse the content when the view did not change.
  ViewSnapshot(std::string view_name, Schema schema, std::vector<int> id_cols,
               std::shared_ptr<const ViewContent> content, uint64_t generation,
               uint64_t source_version);

  ViewSnapshot(const ViewSnapshot&) = delete;
  ViewSnapshot& operator=(const ViewSnapshot&) = delete;

  /// A snapshot of the same (shared) content stamped at a newer generation:
  /// the view did not change between the two statements, so the content is
  /// bit-identical and only the stamp moves. O(1).
  std::shared_ptr<const ViewSnapshot> Restamped(uint64_t generation) const;

  const std::string& view_name() const { return view_name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<int>& id_cols() const { return id_cols_; }
  /// Statement generation (ViewManager LSN) up to which this snapshot
  /// reflects the applied statements.
  uint64_t generation() const { return generation_; }
  /// Mutation version of the MaterializedView this was built from.
  uint64_t source_version() const { return source_version_; }

  /// Distinct tuples.
  size_t size() const { return content_->size(); }
  bool empty() const { return content_->empty(); }
  /// Sum of derivation counts.
  int64_t total_derivations() const { return content_->total_derivations(); }

  /// Full scan: tuples in canonical (tuple <) order with their derivation
  /// counts, the order a recompute produces, so equality checks against it
  /// are byte-exact. Lives as long as the snapshot.
  const ViewContent& tuples() const { return *content_; }

  /// Encodes a tuple's ID-column projection (the stored-ID key).
  std::string IdKeyOf(const Tuple& tuple) const;

  /// Point lookup by stored-ID key (see MaterializedView::IdKeyOf); nullptr
  /// if absent. A hit is the very object tuples() holds.
  const CountedTuple* FindByIdKey(const std::string& id_key) const {
    return content_->FindByIdKey(id_key);
  }

  /// XML serialization of the snapshot content — the "answer queries from
  /// the view" read path. Each tuple becomes a <t> element (with its
  /// derivation count when > 1); each column becomes a <c n="name"> child.
  /// Stored `cont` payloads are emitted verbatim (they are serialized XML
  /// subtrees already); IDs and `val` payloads are XML-escaped.
  std::string ToXml() const;

 private:
  ViewSnapshot(const ViewSnapshot& other, uint64_t generation);

  std::string view_name_;
  Schema schema_;
  std::vector<int> id_cols_;
  uint64_t generation_ = 0;
  uint64_t source_version_ = 0;
  std::shared_ptr<const ViewContent> content_;
};

using ViewSnapshotPtr = std::shared_ptr<const ViewSnapshot>;

/// A cut-consistent snapshot across every view of a manager: all entries
/// reflect the same statement generation (a view snapshot may carry an
/// older generation stamp only when the view provably did not change in
/// between — its content is still exactly the content at `generation`).
struct SnapshotSet {
  uint64_t generation = 0;
  std::vector<ViewSnapshotPtr> views;  // registration order

  /// Lookup by view name; nullptr if absent.
  const ViewSnapshot* Find(const std::string& name) const;
};

using SnapshotSetPtr = std::shared_ptr<const SnapshotSet>;

/// Point-in-time copy of a publisher's monotonic serving counters.
struct ServingStats {
  uint64_t reads = 0;           // Acquire/AcquireView calls served
  uint64_t staleness_sum = 0;   // Σ over reads of (latest stmt − snapshot gen)
  uint64_t staleness_max = 0;   // worst staleness observed by any read
  uint64_t publications = 0;    // snapshot sets published
};

/// The RCU-style publication slot. The coordinator (exactly one thread)
/// calls BeginStatement/Publish; any number of reader threads call
/// Acquire/AcquireView concurrently — the critical section is a shared_ptr
/// copy under a reader/writer lock, so readers never wait on maintenance
/// work, only on the pointer swap itself.
///
/// Staleness accounting: BeginStatement(seq) marks that statement `seq` is
/// being applied, so a read served between the mark and the matching
/// Publish reports a staleness of (seq − published generation) statements;
/// between statements the staleness is 0.
class SnapshotPublisher {
 public:
  SnapshotPublisher();

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Current snapshot set. Never null (an empty generation-0 set before the
  /// first Publish). Thread-safe.
  SnapshotSetPtr Acquire() const XVM_EXCLUDES(mu_);

  /// Current snapshot of view `i`; nullptr when no set with more than `i`
  /// views has been published. Thread-safe.
  ViewSnapshotPtr AcquireView(size_t i) const XVM_EXCLUDES(mu_);

  /// Like Acquire, but does not count as a served read (for internal reuse
  /// of the previous generation's payloads during publication).
  SnapshotSetPtr Peek() const XVM_EXCLUDES(mu_);

  /// Marks statement `seq` as in flight (coordinator only).
  void BeginStatement(uint64_t seq);

  /// Atomically replaces the current set (coordinator only).
  void Publish(SnapshotSetPtr next) XVM_EXCLUDES(mu_);

  ServingStats stats() const;

 private:
  /// Accounts one served read: `latest` is the in-flight LSN sampled
  /// *before* the snapshot was acquired, so staleness never charges reader
  /// descheduling after the acquisition.
  void CountRead(uint64_t latest, uint64_t snapshot_generation) const;

  mutable SharedMutex mu_;
  SnapshotSetPtr current_ XVM_GUARDED_BY(mu_);

  // atomic: written by the single coordinator (BeginStatement), read
  // lock-free on the reader hot path for staleness accounting; seq_cst is
  // plenty cheap next to the shared_ptr copy it accompanies.
  std::atomic<uint64_t> latest_seq_{0};
  // atomic: monotonic serving counters bumped on the reader hot path; any
  // interleaving is acceptable (they only feed metrics), so lock-free
  // increments keep readers from serializing on a stats mutex.
  mutable std::atomic<uint64_t> reads_{0};
  // atomic: same rationale as reads_.
  mutable std::atomic<uint64_t> staleness_sum_{0};
  // atomic: monotonic max maintained via compare-exchange; same rationale
  // as reads_.
  mutable std::atomic<uint64_t> staleness_max_{0};
  // atomic: bumped only by the coordinator but read by stats() from any
  // thread.
  std::atomic<uint64_t> publications_{0};
};

}  // namespace xvm

#endif  // XVM_VIEW_SNAPSHOT_H_
