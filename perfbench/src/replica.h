#ifndef XVM_PERFBENCH_REPLICA_H_
#define XVM_PERFBENCH_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/exec/exec.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "stats.h"
#include "store/canonical.h"
#include "update/update.h"
#include "view/maintain.h"
#include "view/snapshot.h"
#include "view/wal.h"
#include "xml/document.h"

namespace xvm::perfbench {

/// One timed call: which layer function, when, and under which span.
struct Span {
  uint32_t stmt = 0;    // statement id within the traced stream
  int32_t parent = -1;  // index into Tracer::spans(); -1 for a statement root
  uint16_t name = 0;    // index into Tracer::names()
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Spans are kept until the run ends; the
/// coordinator thread owns it, and spans timed on pool threads are handed
/// to it after the fan-out barrier (Add).
class Tracer {
 public:
  Tracer();

  uint16_t Intern(const std::string& name);
  int64_t NowNs() const;

  void BeginStatement(uint32_t stmt) { stmt_ = stmt; }
  /// Opens a span under `parent` (-1: statement root); returns its index.
  int Open(uint16_t name, int parent);
  void Close(int span) { spans_[span].end_ns = NowNs(); }
  /// Records an already-timed span of the current statement.
  void Add(uint16_t name, int parent, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Σ duration per span name, and Σ self time (duration minus the union of
  /// its children's intervals) per span name, in ms.
  std::vector<double> TotalMsByName() const;
  std::vector<double> SelfMsByName() const;

  /// Writes every span (with its self time) as TSV.
  Status WriteTsv(const std::string& path) const;

 private:
  /// Self time of every span, in ns.
  std::vector<int64_t> SelfNs() const;

  Clock::time_point origin_;
  uint32_t stmt_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Per-statement counts the traced run reads from the public result types
/// of the calls it makes (sums over the traced statements).
struct LayerCounts {
  uint64_t stmts = 0;
  uint64_t targets = 0;
  uint64_t delta_rows = 0;
  uint64_t nodes_inserted = 0;
  uint64_t nodes_deleted = 0;
  uint64_t fallbacks = 0;
  uint64_t terms_considered = 0;
  uint64_t terms_evaluated = 0;
  uint64_t derivations_changed = 0;
  uint64_t tuples_modified = 0;
  uint64_t views_rebuilt = 0;
  uint64_t tuples_copied = 0;
  uint64_t wal_bytes = 0;
  double get_expr_ms = 0;
  double execute_update_ms = 0;
  double update_lattice_ms = 0;
  ExecStats exec;
};

/// A second copy of the engine driven call-by-call: the statement pipeline
/// of ViewManager::ApplyAndPropagateAll re-done from the benchmark's side
/// with the same public calls in the same order (WAL append, ComputePul,
/// ComputeDeltaMinus, ApplyPul, InvalidateStoreValCont, ComputeDeltaPlus,
/// per-view PropagateDelete/PropagateInsert on a ThreadPool, store
/// roll-forward, fallback recompute, BuildSnapshot + Publish), with one span
/// around each call. Its snapshots must be bit-identical to a ViewManager
/// run of the same stream. The invariant-audit hook the manager runs when
/// auditing is enabled is not replicated (auditing is off in the benchmark).
class TracedReplica {
 public:
  explicit TracedReplica(size_t lanes);

  TracedReplica(const TracedReplica&) = delete;
  TracedReplica& operator=(const TracedReplica&) = delete;

  /// Parses `xml`, builds the store, registers every XMark view with
  /// snowcaps and opens the WAL at `wal_path`. Returns the parse time.
  StatusOr<double> SetUp(const std::string& xml, const std::string& wal_path);

  /// Applies one statement. With a null tracer no spans or counts are
  /// recorded, but the calls are the same.
  Status Apply(const UpdateStmt& stmt, Tracer* tracer, LayerCounts* counts);

  SnapshotSetPtr SnapshotAll() const { return publisher_.Acquire(); }
  ServingStats serving_stats() const { return publisher_.stats(); }
  const Document& doc() const { return *doc_; }
  const StoreIndex& store() const { return *store_; }
  size_t lanes() const { return lanes_; }
  size_t num_views() const { return views_.size(); }
  const MaintainedView& view(size_t i) const { return *views_[i]; }

 private:
  void PublishSnapshots(LayerCounts* counts);

  size_t lanes_;
  std::unique_ptr<Document> doc_;
  std::unique_ptr<StoreIndex> store_;
  std::vector<std::unique_ptr<MaintainedView>> views_;
  std::unique_ptr<ThreadPool> pool_;  // lanes_ - 1 threads when lanes_ > 1
  WriteAheadLog wal_;
  SnapshotPublisher publisher_;
  uint64_t seq_ = 0;
  // Span name ids, interned in the first tracer Apply() is given.
  struct Names {
    uint16_t stmt = 0, wal = 0, locate = 0, delta_minus = 0, apply = 0,
             invalidate = 0, delta_plus = 0, fanout = 0, store_remove = 0,
             store_add = 0, fallback = 0, publish = 0;
    std::vector<uint16_t> views;  // "view.<name>", registration order
  };
  std::unique_ptr<Names> names_;
};

}  // namespace xvm::perfbench

#endif  // XVM_PERFBENCH_REPLICA_H_
