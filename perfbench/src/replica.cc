#include "replica.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <utility>

#include "view/manager.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm::perfbench {

namespace {

/// Opens a span on construction and closes it on destruction; inert when
/// the tracer is null.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, uint16_t name, int parent)
      : tracer_(tracer), index_(tracer ? tracer->Open(name, parent) : -1) {}
  ~SpanGuard() { Close(); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  int index() const { return index_; }

  void Close() {
    if (tracer_ != nullptr) tracer_->Close(index_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  int index_;
};

/// Nanoseconds of [start, end] covered by the union of `intervals`.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t start, int64_t end) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return covered;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

uint16_t Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Open(uint16_t name, int parent) {
  const int64_t now = NowNs();
  spans_.push_back(Span{stmt_, parent, name, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Add(uint16_t name, int parent, int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{stmt_, parent, name, start_ns, end_ns});
}

std::vector<double> Tracer::TotalMsByName() const {
  std::vector<double> out(names_.size(), 0.0);
  for (const Span& s : spans_) out[s.name] += (s.end_ns - s.start_ns) / 1e6;
  return out;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> out(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[i] =
        (s.end_ns - s.start_ns) - CoveredNs(children[i], s.start_ns, s.end_ns);
  }
  return out;
}

std::vector<double> Tracer::SelfMsByName() const {
  const std::vector<int64_t> self = SelfNs();
  std::vector<double> out(names_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i] / 1e6;
  }
  return out;
}

Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  const std::vector<int64_t> self = SelfNs();
  std::fprintf(f, "stmt\tspan\tparent\tname\tstart_us\tend_us\tself_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%.3f\t%.3f\t%.3f\n", s.stmt, i, s.parent,
                 names_[s.name].c_str(), s.start_ns / 1e3, s.end_ns / 1e3,
                 self[i] / 1e3);
  }
  if (std::fclose(f) != 0) return Status::Internal("cannot close " + path);
  return Status::Ok();
}

TracedReplica::TracedReplica(size_t lanes) : lanes_(std::max<size_t>(lanes, 1)) {}

StatusOr<double> TracedReplica::SetUp(const std::string& xml,
                                      const std::string& wal_path) {
  doc_ = std::make_unique<Document>();
  const Clock::time_point t0 = Clock::now();
  XVM_RETURN_IF_ERROR(ParseDocument(xml, doc_.get()));
  const double parse_ms = MsBetween(t0, Clock::now());
  store_ = std::make_unique<StoreIndex>(doc_.get());
  store_->Build();
  // ViewManager::AddView, once per view.
  for (const std::string& name : XMarkViewNames()) {
    XVM_ASSIGN_OR_RETURN(ViewDefinition def, XMarkView(name));
    auto view = std::make_unique<MaintainedView>(
        std::move(def), store_.get(), LatticeStrategy::kSnowcaps);
    XVM_RETURN_IF_ERROR(view->CheckPlans());
    views_.push_back(std::move(view));
    views_.back()->Initialize();
    PublishSnapshots(nullptr);
  }
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
  // ViewManager::EnableDurability.
  XVM_RETURN_IF_ERROR(wal_.OpenLog(wal_path));
  seq_ = std::max(seq_, wal_.last_lsn());
  return parse_ms;
}

Status TracedReplica::Apply(const UpdateStmt& stmt, Tracer* tr,
                            LayerCounts* counts) {
  if (tr != nullptr && names_ == nullptr) {
    names_ = std::make_unique<Names>();
    names_->stmt = tr->Intern("stmt");
    names_->wal = tr->Intern("wal.append");
    names_->locate = tr->Intern("xpath.locate");
    names_->delta_minus = tr->Intern("update.delta_minus");
    names_->apply = tr->Intern("update.apply_pul");
    names_->invalidate = tr->Intern("update.invalidate");
    names_->delta_plus = tr->Intern("update.delta_plus");
    names_->fanout = tr->Intern("fanout");
    names_->store_remove = tr->Intern("store.remove");
    names_->store_add = tr->Intern("store.add");
    names_->fallback = tr->Intern("view.fallback");
    names_->publish = tr->Intern("snapshot.publish");
    for (const auto& v : views_) {
      names_->views.push_back(tr->Intern("view." + v->def().name()));
    }
  }
  static const Names kUntraced;
  const Names& n = tr != nullptr ? *names_ : kUntraced;

  SpanGuard stmt_span(tr, n.stmt, -1);
  const int root = stmt_span.index();

  // Log-before-touch, as in ViewManager::ApplyAndPropagateAll.
  const uint64_t lsn = seq_ + 1;
  {
    SpanGuard span(tr, n.wal, root);
    const uint64_t before = wal_.durable_size();
    XVM_RETURN_IF_ERROR(wal_.Append(lsn, stmt));
    if (counts != nullptr) counts->wal_bytes += wal_.durable_size() - before;
  }
  seq_ = lsn;
  publisher_.BeginStatement(seq_);

  std::vector<UpdateOutcome> per_view(views_.size());
  PhaseTimer shared_timing;
  StatusOr<Pul> pul_or = [&] {
    SpanGuard span(tr, n.locate, root);
    return ComputePul(*doc_, stmt, &shared_timing);
  }();
  if (!pul_or.ok()) {
    SpanGuard span(tr, n.publish, root);
    PublishSnapshots(counts);
    return pul_or.status();
  }
  const Pul pul = *std::move(pul_or);

  BatchedDeltaPlan plan;
  if (!pul.deletes.empty()) {
    SpanGuard span(tr, n.delta_minus, root);
    std::set<LabelId> val_needs;
    for (const auto& v : views_) {
      std::set<LabelId> needs = v->DeltaMinusValLabelIds();
      val_needs.insert(needs.begin(), needs.end());
    }
    plan.delta_minus =
        ComputeDeltaMinus(*doc_, pul, &shared_timing, &val_needs);
    plan.has_deletes = !plan.delta_minus.anchor_ids().empty();
    plan.region = DeletedRegion(plan.delta_minus.anchor_ids());
  }
  ApplyResult applied;
  {
    SpanGuard span(tr, n.apply, root);
    applied = ApplyPul(doc_.get(), pul, nullptr);
  }
  {
    SpanGuard span(tr, n.invalidate, root);
    InvalidateStoreValCont(store_.get(), applied);
  }
  if (!pul.inserts.empty()) {
    SpanGuard span(tr, n.delta_plus, root);
    DeltaNeeds needs;
    for (const auto& v : views_) needs.MergeFrom(v->DeltaPlusNeeds());
    plan.delta_plus = ComputeDeltaPlus(*doc_, applied, &shared_timing, &needs);
    plan.has_inserts = !applied.inserted_nodes.empty();
  }

  auto run_per_view = [&](const std::function<void(size_t)>& fn) {
    if (pool_ == nullptr || views_.size() <= 1) {
      for (size_t i = 0; i < views_.size(); ++i) fn(i);
      return;
    }
    pool_->ParallelFor(views_.size(), fn);
  };
  {
    SpanGuard fanout(tr, n.fanout, root);
    // Each lane writes only its own view's slot; the coordinator reads them
    // after ParallelFor's completion barrier.
    std::vector<std::pair<int64_t, int64_t>> times(views_.size());
    run_per_view([&](size_t i) {
      const int64_t start = tr != nullptr ? tr->NowNs() : 0;
      UpdateOutcome& o = per_view[i];
      if (plan.has_deletes) {
        views_[i]->PropagateDelete(plan.delta_minus, &o.timing, &o.stats);
      }
      if (plan.has_inserts && !o.stats.recompute_fallback) {
        views_[i]->PropagateInsert(plan.delta_plus,
                                   plan.region.empty() ? nullptr : &plan.region,
                                   &o.timing, &o.stats);
      }
      times[i] = {start, tr != nullptr ? tr->NowNs() : 0};
    });
    if (tr != nullptr) {
      for (size_t i = 0; i < views_.size(); ++i) {
        tr->Add(n.views[i], fanout.index(), times[i].first, times[i].second);
      }
    }
  }
  {
    SpanGuard span(tr, n.store_remove, root);
    store_->OnNodesRemoved(applied.deleted_nodes);
  }
  {
    SpanGuard span(tr, n.store_add, root);
    store_->OnNodesAdded(applied.inserted_nodes);
  }
  {
    SpanGuard span(tr, n.fallback, root);
    run_per_view([&](size_t i) {
      if (!per_view[i].stats.recompute_fallback) return;
      ScopedPhase phase(&per_view[i].timing, phase::kExecuteUpdate);
      views_[i]->RecomputeFromStore();
    });
  }
  {
    SpanGuard span(tr, n.publish, root);
    PublishSnapshots(counts);
  }
  stmt_span.Close();

  if (counts == nullptr) return Status::Ok();
  ++counts->stmts;
  if (stmt.kind == UpdateStmt::Kind::kDelete) {
    counts->targets += pul.deletes.size();
  } else {
    // One insert op per (target, forest tree) pair.
    size_t trees = 1;
    if (stmt.forest != nullptr) {
      trees = stmt.forest->Children(stmt.forest->root()).size();
    }
    counts->targets += trees == 0 ? 0 : pul.inserts.size() / trees;
  }
  counts->delta_rows +=
      plan.delta_minus.TotalRows() + plan.delta_plus.TotalRows();
  counts->nodes_inserted += applied.inserted_nodes.size();
  counts->nodes_deleted += applied.deleted_nodes.size();
  for (size_t i = 0; i < views_.size(); ++i) {
    const MaintenanceStats& s = per_view[i].stats;
    counts->fallbacks += s.recompute_fallback ? 1 : 0;
    counts->terms_considered += s.terms_considered;
    counts->terms_evaluated += s.terms_evaluated;
    counts->derivations_changed += static_cast<uint64_t>(
        std::abs(s.derivations_added) + std::abs(s.derivations_removed));
    counts->tuples_modified += s.tuples_modified;
    const PhaseTimer& t = per_view[i].timing;
    counts->get_expr_ms += t.Get(phase::kGetExpression);
    counts->execute_update_ms += t.Get(phase::kExecuteUpdate);
    counts->update_lattice_ms += t.Get(phase::kUpdateLattice);
    counts->exec.MergeFrom(views_[i]->TakeExecStats());
  }
  return Status::Ok();
}

void TracedReplica::PublishSnapshots(LayerCounts* counts) {
  // ViewManager::PublishSnapshots.
  SnapshotSetPtr prev = publisher_.Peek();
  auto next = std::make_shared<SnapshotSet>();
  next->generation = seq_;
  next->views.reserve(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    const ViewSnapshot* old =
        i < prev->views.size() ? prev->views[i].get() : nullptr;
    if (counts != nullptr &&
        (old == nullptr || old->source_version() != views_[i]->view().version())) {
      ++counts->views_rebuilt;
      counts->tuples_copied += views_[i]->view().size();
    }
    next->views.push_back(views_[i]->BuildSnapshot(seq_, old));
  }
  publisher_.Publish(std::move(next));
}

}  // namespace xvm::perfbench
