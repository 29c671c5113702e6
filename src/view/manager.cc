#include "view/manager.h"

#include <algorithm>
#include <utility>

#include "common/file_io.h"
#include "common/invariant.h"
#include "common/varint.h"
#include "store/audit.h"
#include "view/audit.h"
#include "view/persist.h"

namespace xvm {

namespace {

constexpr char kManifestFile[] = "MANIFEST";
constexpr char kWalFile[] = "wal.log";
constexpr char kManifestMagic[] = "XVMM";
constexpr uint64_t kManifestVersion = 1;
constexpr size_t kChecksumBytes = 8;

/// The committed state of one checkpoint generation: which snapshot files
/// are current and up to which LSN their content reaches. Committed last
/// (atomically), so the files it names are always complete.
struct Manifest {
  uint64_t gen = 0;
  uint64_t last_lsn = 0;
  std::string doc_file;
  std::vector<std::pair<std::string, std::string>> views;  // name -> file
};

std::string EncodeManifest(const Manifest& m) {
  std::string out;
  out.append(kManifestMagic, 4);
  PutVarint64(&out, kManifestVersion);
  PutVarint64(&out, m.gen);
  PutVarint64(&out, m.last_lsn);
  PutLengthPrefixed(&out, m.doc_file);
  PutVarint64(&out, m.views.size());
  for (const auto& [name, file] : m.views) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, file);
  }
  AppendChecksum64(&out);
  return out;
}

Status DecodeManifest(const std::string& bytes, Manifest* m) {
  if (bytes.substr(0, 4) != kManifestMagic) {
    return Status::InvalidArgument("bad magic: not an xvm checkpoint manifest");
  }
  size_t pos = 4;
  if (bytes.size() < pos + kChecksumBytes || !VerifyChecksum64(bytes)) {
    return Status::InvalidArgument(
        "manifest checksum mismatch: truncated or corrupted");
  }
  const size_t payload_end = bytes.size() - kChecksumBytes;
  uint64_t version = 0;
  if (!GetVarint64(bytes, &pos, &version)) {
    return Status::InvalidArgument("truncated manifest");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version));
  }
  Manifest out;
  uint64_t view_count = 0;
  if (!GetVarint64(bytes, &pos, &out.gen) ||
      !GetVarint64(bytes, &pos, &out.last_lsn) ||
      !GetLengthPrefixed(bytes, &pos, &out.doc_file) ||
      !GetVarint64(bytes, &pos, &view_count)) {
    return Status::InvalidArgument("truncated manifest");
  }
  if (view_count > bytes.size() - pos) {  // each entry is ≥ 2 bytes
    return Status::InvalidArgument("implausible manifest view count");
  }
  out.views.reserve(view_count);
  for (uint64_t i = 0; i < view_count; ++i) {
    std::string name, file;
    if (!GetLengthPrefixed(bytes, &pos, &name) ||
        !GetLengthPrefixed(bytes, &pos, &file)) {
      return Status::InvalidArgument("truncated manifest view entry");
    }
    out.views.emplace_back(std::move(name), std::move(file));
  }
  if (pos != payload_end) {
    return Status::InvalidArgument("trailing bytes after manifest");
  }
  *m = std::move(out);
  return Status::Ok();
}

}  // namespace

StatusOr<size_t> ViewManager::AddView(ViewDefinition def,
                                      LatticeStrategy strategy) {
  auto view =
      std::make_unique<MaintainedView>(std::move(def), store_, strategy);
  XVM_RETURN_IF_ERROR(view->CheckPlans());
  // A new view is evaluated over the store, which must first catch up with
  // the document.
  Flush();
  views_.push_back(std::move(view));
  views_.back()->Initialize();
  PublishSnapshots();
  return views_.size() - 1;
}

const MaintainedView* ViewManager::FindView(const std::string& name) const {
  for (const auto& v : views_) {
    if (v->def().name() == name) return v.get();
  }
  return nullptr;
}

void ViewManager::set_workers(size_t n) {
  workers_ = std::max<size_t>(n, 1);
  pool_.reset();  // recreated lazily with the new count
}

void ViewManager::RunPerView(const std::function<void(size_t)>& fn) {
  if (workers_ <= 1 || views_.size() <= 1) {
    for (size_t i = 0; i < views_.size(); ++i) fn(i);
    return;
  }
  if (pool_ == nullptr) {
    // The caller participates in every batch, so workers_ - 1 threads give
    // exactly workers_ lanes.
    pool_ = std::make_unique<ThreadPool>(workers_ - 1);
  }
  pool_->ParallelFor(views_.size(), fn);
}

StatusOr<MultiUpdateOutcome> ViewManager::ApplyAndPropagateAll(
    const UpdateStmt& stmt) {
  XVM_RETURN_IF_ERROR(Defer(stmt));
  return Flush();
}

StatusOr<MultiUpdateOutcome> ViewManager::ApplyOpsAndPropagateAll(
    const OpSequence& ops) {
  if (durable()) {
    return Status::FailedPrecondition(
        "atomic-op sequences cannot be logged: the WAL records statements");
  }
  // Targets resolve through the canonical relations, which must first
  // catch up with statements still queued by Defer.
  if (!queue_.empty()) Flush();
  publisher_.BeginStatement(++seq_);
  // Δ− must be read off the document before the ops touch it; payload-ref
  // deletes remove copies the sequence itself inserted.
  Pul deletes;
  for (const AtomicOp& op : ops) {
    if (op.kind != AtomicOp::Kind::kDelete || op.payload_ref.has_value()) {
      continue;
    }
    NodeHandle h = store_->FindById(op.target);
    if (h != kNullNode) deletes.deletes.push_back(PulDeleteOp{h});
  }
  StagePul(deletes, &ops);
  return Flush();
}

Status ViewManager::Defer(const UpdateStmt& stmt) {
  // Log-before-touch: the statement must be durable before any effect lands
  // on the document, so a crash anywhere below is replayed from the WAL.
  // During recovery replay the record is already in the log.
  if (!replaying_) {
    const uint64_t lsn = seq_ + 1;
    if (durable()) XVM_RETURN_IF_ERROR(wal_->Append(lsn, stmt));
    seq_ = lsn;
  }
  // Readers acquiring a snapshot from here until the next publish observe
  // (and report) the statements still in flight as staleness.
  publisher_.BeginStatement(seq_);

  StatusOr<Pul> pul = ComputePul(*doc_, stmt, &staged_.shared_timing);
  if (!pul.ok()) {
    // The statement consumed an LSN but had no effect. With nothing else in
    // flight, re-stamp the current snapshots at it so reader-visible
    // staleness returns to zero.
    if (queue_.empty()) PublishSnapshots();
    return pul.status();
  }
  StagePul(*pul, nullptr);
  return Status::Ok();
}

void ViewManager::StagePul(const Pul& pul, const OpSequence* ops) {
  PhaseTimer* timing = &staged_.shared_timing;
  // Batched Δ extraction: once per statement, with the union of every
  // view's payload needs. Δ− must be read off the document *before* the
  // update is applied (the doomed nodes are still resolvable), Δ+ after.
  Staged entry;
  BatchedDeltaPlan& plan = entry.plan;
  if (!pul.deletes.empty()) {
    std::set<LabelId> val_needs;
    for (const auto& v : views_) {
      std::set<LabelId> n = v->DeltaMinusValLabelIds();
      val_needs.insert(n.begin(), n.end());
    }
    plan.delta_minus = ComputeDeltaMinus(*doc_, pul, timing, &val_needs);
    plan.has_deletes = !plan.delta_minus.anchor_ids().empty();
    plan.region = DeletedRegion(plan.delta_minus.anchor_ids());
  }
  ApplyResult applied = ops == nullptr ? ApplyPul(doc_, pul, nullptr)
                                       : ApplyAtomicOps(doc_, *ops, *store_);
  // The store rolls forward in the flush half, but the val/cont cache is
  // defined against the current document — invalidate before anything
  // reads through it.
  InvalidateStoreValCont(store_, applied);
  // An op sequence's inserts are not in `pul`; its applied nodes are.
  if (!pul.inserts.empty() || !applied.inserted_nodes.empty()) {
    DeltaNeeds needs;
    for (const auto& v : views_) needs.MergeFrom(v->DeltaPlusNeeds());
    plan.delta_plus = ComputeDeltaPlus(*doc_, applied, timing, &needs);
    plan.has_inserts = !applied.inserted_nodes.empty();
  }
  staged_.nodes_deleted += applied.deleted_nodes.size();
  staged_.nodes_inserted += applied.inserted_nodes.size();
  entry.inserted_nodes = std::move(applied.inserted_nodes);
  entry.deleted_nodes = std::move(applied.deleted_nodes);
  queue_.push_back(std::move(entry));
}

MultiUpdateOutcome ViewManager::Flush() {
  MultiUpdateOutcome out = std::exchange(staged_, MultiUpdateOutcome{});
  out.per_view.resize(views_.size());
  out.workers = workers_;
  if (queue_.empty()) return out;

  WallTimer wall;
  while (!queue_.empty()) {
    const Staged entry = std::move(queue_.front());
    queue_.pop_front();
    // Fan-out: document updated, store still as of the previous statement
    // (its canonical relations are the old R_l the union terms read), plan
    // frozen — each view touches only its own state. For a replace-style
    // PUL the Δ− pass runs first and the Δ+ pass excludes R-side bindings
    // beneath replaced subtrees via plan.region. A view that fell back
    // skips the rest of the queue; it recomputes once at the end.
    const BatchedDeltaPlan& plan = entry.plan;
    RunPerView([&](size_t i) {
      UpdateOutcome& o = out.per_view[i];
      o.nodes_inserted += entry.inserted_nodes.size();
      o.nodes_deleted += entry.deleted_nodes.size();
      if (plan.has_deletes && !o.stats.recompute_fallback) {
        views_[i]->PropagateDelete(plan.delta_minus, &o.timing, &o.stats);
      }
      if (plan.has_inserts && !o.stats.recompute_fallback) {
        views_[i]->PropagateInsert(plan.delta_plus,
                                   plan.region.empty() ? nullptr : &plan.region,
                                   &o.timing, &o.stats);
      }
    });
    // Canonical relations roll forward once per statement, after every
    // view has read the old R_l. While later statements are queued, nodes
    // this one inserted may already be dead in the document (a later
    // statement deleted them); they still are R rows for the statements in
    // between, and that later statement's roll-forward takes them out.
    store_->OnNodesRemoved(entry.deleted_nodes);
    store_->OnNodesAdded(entry.inserted_nodes,
                         /*allow_dead=*/!queue_.empty());
  }

  // Predicate-guard fallbacks rebuild from the now-consistent store; they
  // are per-view recomputes, so they fan out too.
  RunPerView([&](size_t i) {
    if (!out.per_view[i].stats.recompute_fallback) return;
    ScopedPhase phase(&out.per_view[i].timing, phase::kExecuteUpdate);
    views_[i]->RecomputeFromStore();
  });
  out.propagate_wall_ms = wall.ElapsedMs();

  MaybeAuditAfterFlush();
  PublishSnapshots();
  RecordMetrics(out);
  return out;
}

void ViewManager::PublishSnapshots() {
  WallTimer timer;
  SnapshotSetPtr prev = publisher_.Peek();
  auto next = std::make_shared<SnapshotSet>();
  next->generation = seq_;
  next->views.reserve(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    const ViewSnapshot* old =
        i < prev->views.size() ? prev->views[i].get() : nullptr;
    next->views.push_back(views_[i]->BuildSnapshot(seq_, old));
  }
  publisher_.Publish(std::move(next));
  const double publish_ms = timer.ElapsedMs();

  if (metrics_ == nullptr) return;
  metrics_->RecordPhase(kServingMetricsView, "publish_snapshot", publish_ms);
  const ServingStats now = publisher_.stats();
  metrics_->AddCounter(
      kServingMetricsView, "reads_served",
      static_cast<int64_t>(now.reads - last_serving_stats_.reads));
  metrics_->AddCounter(kServingMetricsView, "staleness_sum",
                       static_cast<int64_t>(now.staleness_sum -
                                            last_serving_stats_.staleness_sum));
  metrics_->AddCounter(
      kServingMetricsView, "publications",
      static_cast<int64_t>(now.publications - last_serving_stats_.publications));
  metrics_->SetGauge(kServingMetricsView, "snapshot_generation",
                     static_cast<int64_t>(seq_));
  metrics_->SetGauge(kServingMetricsView, "staleness_max",
                     static_cast<int64_t>(now.staleness_max));
  last_serving_stats_ = now;
  // Copy-on-write work in the view stores since the last publication: what
  // publishing this generation cost beyond the pointer vectors.
  uint64_t chunks = 0;
  uint64_t shards = 0;
  for (const auto& view : views_) {
    chunks += view->view().chunks_copied();
    shards += view->view().index_shards_copied();
  }
  metrics_->AddCounter(kServingMetricsView, "chunks_copied",
                       static_cast<int64_t>(chunks - last_chunks_copied_));
  metrics_->AddCounter(kServingMetricsView, "index_shards_copied",
                       static_cast<int64_t>(shards - last_shards_copied_));
  last_chunks_copied_ = chunks;
  last_shards_copied_ = shards;
}

Status ViewManager::EnableDurability(const std::string& dir) {
  XVM_RETURN_IF_ERROR(EnsureDir(dir));
  if (!recovered_ && FileExists(dir + "/" + kManifestFile)) {
    return Status::FailedPrecondition(
        dir + " holds a checkpoint this manager never loaded; call "
        "Recover() instead of EnableDurability()");
  }
  auto wal = std::make_unique<WriteAheadLog>();
  XVM_RETURN_IF_ERROR(wal->OpenLog(dir + "/" + kWalFile));
  wal_ = std::move(wal);
  // Continue the LSN sequence after any records already in the log.
  seq_ = std::max(seq_, wal_->last_lsn());
  dur_dir_ = dir;
  return Status::Ok();
}

Status ViewManager::Checkpoint(const std::string& dir) {
  XVM_RETURN_IF_ERROR(EnsureDir(dir));
  // The document snapshot below must not run ahead of the views.
  Flush();
  XVM_FAULT_POINT("checkpoint:begin");

  // New-generation snapshot files first. Until the manifest below commits,
  // none of them is reachable, so a crash here costs nothing: the previous
  // manifest still names only previous-generation files, which this
  // generation never touches.
  Manifest m;
  m.gen = ckpt_gen_ + 1;
  m.last_lsn = seq_;
  m.doc_file = "doc-" + std::to_string(m.gen) + ".ckpt";
  XVM_RETURN_IF_ERROR(
      AtomicWriteFile(dir + "/" + m.doc_file, SaveDocumentToBytes(*doc_)));
  for (size_t i = 0; i < views_.size(); ++i) {
    std::string file =
        "view-" + std::to_string(m.gen) + "-" + std::to_string(i) + ".ckpt";
    XVM_RETURN_IF_ERROR(
        AtomicWriteFile(dir + "/" + file, SaveViewToBytes(*views_[i])));
    m.views.emplace_back(views_[i]->def().name(), std::move(file));
  }

  XVM_FAULT_POINT("checkpoint:before_manifest");
  // Commit point: the atomic manifest replacement flips recovery from the
  // old generation to this one in a single step.
  XVM_RETURN_IF_ERROR(
      AtomicWriteFile(dir + "/" + kManifestFile, EncodeManifest(m)));
  ckpt_gen_ = m.gen;

  XVM_FAULT_POINT("checkpoint:before_wal_truncate");
  // A crash before this Truncate leaves already-checkpointed records in the
  // log; recovery skips them because their LSNs are ≤ the manifest's.
  if (wal_ != nullptr && wal_->is_open() && dir == dur_dir_) {
    XVM_RETURN_IF_ERROR(wal_->Truncate());
  }

  // Best-effort sweep of superseded generations and orphaned temp files;
  // failures are ignored (they only cost disk until the next checkpoint).
  StatusOr<std::vector<std::string>> listed = ListDir(dir);
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      const bool current =
          name == m.doc_file ||
          std::any_of(m.views.begin(), m.views.end(),
                      [&](const auto& v) { return v.second == name; });
      const bool tmp = name.size() > 4 &&
                       name.compare(name.size() - 4, 4, ".tmp") == 0;
      const bool ckpt = name.size() > 5 &&
                        name.compare(name.size() - 5, 5, ".ckpt") == 0;
      if (tmp || (ckpt && !current)) {
        Status removed = RemoveFileIfExists(dir + "/" + name);
        if (!removed.ok()) continue;  // swept again next checkpoint
      }
    }
  }
  return Status::Ok();
}

Status ViewManager::Recover(const std::string& dir) {
  XVM_RETURN_IF_ERROR(EnsureDir(dir));

  std::string manifest_bytes;
  Status manifest_read =
      ReadFileToString(dir + "/" + kManifestFile, &manifest_bytes);
  if (manifest_read.ok()) {
    Manifest m;
    XVM_RETURN_IF_ERROR(DecodeManifest(manifest_bytes, &m));
    std::string doc_bytes;
    XVM_RETURN_IF_ERROR(ReadFileToString(dir + "/" + m.doc_file, &doc_bytes));
    XVM_RETURN_IF_ERROR(LoadDocumentFromBytes(doc_bytes, doc_));
    store_->Build();
    for (auto& v : views_) {
      const std::string* file = nullptr;
      for (const auto& [name, f] : m.views) {
        if (name == v->def().name()) {
          file = &f;
          break;
        }
      }
      // A missing or invalid view snapshot never blocks recovery: the
      // restored document + store are authoritative, so fall back to a
      // full recompute of just that view.
      Status loaded = file == nullptr
                          ? Status::NotFound("view not in manifest")
                          : LoadViewFromFile(dir + "/" + *file, v.get());
      if (!loaded.ok()) v->RecomputeFromStore();
    }
    ckpt_gen_ = m.gen;
    seq_ = m.last_lsn;
  } else if (manifest_read.code() != StatusCode::kNotFound) {
    return manifest_read;
  }
  // No manifest: WAL-only recovery — replay onto the caller's initial state.

  auto wal = std::make_unique<WriteAheadLog>();
  XVM_RETURN_IF_ERROR(wal->OpenLog(dir + "/" + kWalFile));
  XVM_ASSIGN_OR_RETURN(std::vector<WalRecord> records, wal->ReadAll());
  replaying_ = true;
  for (const WalRecord& rec : records) {
    if (rec.lsn <= seq_) continue;  // already inside the checkpoint
    seq_ = rec.lsn;
    // A statement that fails here (e.g. its target path matches nothing)
    // failed identically before the crash — after the WAL append, execution
    // is deterministic — so its original run also had no effect.
    StatusOr<MultiUpdateOutcome> replayed = ApplyAndPropagateAll(rec.stmt);
    if (!replayed.ok()) continue;
  }
  replaying_ = false;
  wal_ = std::move(wal);
  seq_ = std::max(seq_, wal_->last_lsn());
  dur_dir_ = dir;
  recovered_ = true;
  // Checkpoint-loaded content and skipped-replay statements bypass the
  // flush half's publish; expose the recovered state to readers in one
  // final swap.
  PublishSnapshots();
  return Status::Ok();
}

void ViewManager::MaybeAuditAfterFlush() {
  if (!InvariantAuditingEnabled()) return;
  const uint64_t seq = audit_seq_++;
  InvariantReport report;
  AuditStorageLayer(*doc_, *store_, &report);
  // View audits re-derive the whole view, so they are sampled: each flush
  // audits every period-th view, rotating so every view is audited every
  // `period` flushes.
  const size_t period = InvariantAuditSamplePeriod();
  for (size_t i = 0; i < views_.size(); ++i) {
    if ((seq + i) % period == 0) AuditViewContent(*views_[i], *store_, &report);
  }
  if (!report.ok()) {
    InvariantAuditFailed(report, "ViewManager::Flush");
  }
}

void ViewManager::RecordMetrics(const MultiUpdateOutcome& out) {
  if (metrics_ == nullptr) return;
  for (size_t i = 0; i < views_.size(); ++i) {
    const std::string& name = views_[i]->def().name();
    const UpdateOutcome& o = out.per_view[i];
    for (const auto& [phase, ms] : o.timing.phases()) {
      metrics_->RecordPhase(name, phase, ms);
    }
    const MaintenanceStats& s = o.stats;
    metrics_->AddCounter(name, "updates", 1);
    metrics_->AddCounter(name, "terms_considered",
                         static_cast<int64_t>(s.terms_considered));
    metrics_->AddCounter(name, "terms_pruned_data",
                         static_cast<int64_t>(s.terms_pruned_data));
    metrics_->AddCounter(name, "terms_evaluated",
                         static_cast<int64_t>(s.terms_evaluated));
    metrics_->AddCounter(name, "derivations_added", s.derivations_added);
    metrics_->AddCounter(name, "derivations_removed", s.derivations_removed);
    metrics_->AddCounter(name, "tuples_modified",
                         static_cast<int64_t>(s.tuples_modified));
    metrics_->AddCounter(name, "upkeep_rows_visited",
                         static_cast<int64_t>(s.upkeep_rows_visited));
    metrics_->AddCounter(name, "leaf_rows_read",
                         static_cast<int64_t>(s.leaf_rows_read));
    metrics_->AddCounter(name, "leaves_unbounded",
                         static_cast<int64_t>(s.leaves_unbounded));
    if (s.recompute_fallback) {
      metrics_->AddCounter(name, "recompute_fallbacks", 1);
    }
  }
  // Executor statistics (per-kernel row counts, sort elisions) accumulate
  // inside each view's term evaluation; drain and report them together
  // under the __exec__ pseudo-view.
  ExecStats exec;
  for (auto& v : views_) exec.MergeFrom(v->TakeExecStats());
  FlushExecStats(exec, metrics_);

  for (const auto& [phase, ms] : out.shared_timing.phases()) {
    metrics_->RecordPhase(kSharedMetricsView, phase, ms);
  }
  metrics_->AddCounter(kSharedMetricsView, "updates", 1);
  metrics_->AddCounter(kSharedMetricsView, "nodes_inserted",
                       static_cast<int64_t>(out.nodes_inserted));
  metrics_->AddCounter(kSharedMetricsView, "nodes_deleted",
                       static_cast<int64_t>(out.nodes_deleted));

  // Store-level cache counters: the cache keeps monotonic totals, so report
  // the delta since the previous statement under the __store__ pseudo-view.
  const ValContCache::Stats now = store_->cache().stats();
  metrics_->AddCounter(kStoreMetricsView, "cache_hits",
                       static_cast<int64_t>(now.hits - last_cache_stats_.hits));
  metrics_->AddCounter(
      kStoreMetricsView, "cache_misses",
      static_cast<int64_t>(now.misses - last_cache_stats_.misses));
  metrics_->AddCounter(kStoreMetricsView, "cache_invalidations",
                       static_cast<int64_t>(now.invalidations -
                                            last_cache_stats_.invalidations));
  metrics_->AddCounter(
      kStoreMetricsView, "cache_evictions",
      static_cast<int64_t>(now.evictions - last_cache_stats_.evictions));
  last_cache_stats_ = now;
}

}  // namespace xvm
