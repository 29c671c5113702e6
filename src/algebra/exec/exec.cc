#include "algebra/exec/exec.h"

#include <chrono>
#include <utility>

#include "common/invariant.h"

namespace xvm {

namespace {

/// True iff `rows` is lexicographically non-decreasing on `keys` — the same
/// definition the reference evaluator checks (symexec.cc) and the invariant
/// the merge-based structural join relies on.
bool SortedByKeys(const std::vector<Tuple>& rows,
                  const std::vector<int>& keys) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (RowLess(rows[i], rows[i - 1], keys)) return false;
  }
  return true;
}

bool EvalPredicate(const PlanPredicate& p, const Tuple& row,
                   const PhysExecContext& ctx) {
  switch (p.kind) {
    case PlanPredicate::Kind::kEqConst:
      return row[static_cast<size_t>(p.a)].str() == p.constant;
    case PlanPredicate::Kind::kRootAnchor:
      return row[static_cast<size_t>(p.a)].id().depth() == 1;
    case PlanPredicate::Kind::kAlive:
      if (!ctx.deleted) return true;
      for (int c : p.cols) {
        if (ctx.deleted(row[static_cast<size_t>(c)].id())) return false;
      }
      return true;
  }
  return false;
}

bool EvalPredicates(const std::vector<PlanPredicate>& preds, const Tuple& row,
                    const PhysExecContext& ctx) {
  for (const PlanPredicate& p : preds) {
    if (!EvalPredicate(p, row, ctx)) return false;
  }
  return true;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A node result that is either owned or borrowed in place (snowcap and Δ
/// scans and the pass-through kernels above them never copy the relation).
struct RelRef {
  Relation owned;
  const Relation* borrowed = nullptr;

  const Relation& get() const { return borrowed ? *borrowed : owned; }
};

Relation TakeOwned(RelRef&& ref) {
  if (ref.borrowed != nullptr) return *ref.borrowed;  // copy out
  return std::move(ref.owned);
}

class PhysExecutor {
 public:
  PhysExecutor(const PhysicalPlan& plan, const PhysExecContext& ctx)
      : plan_(plan), ctx_(ctx), audit_(InvariantAuditingEnabled()) {}

  /// Executes nodes [0, end) in post-order. Results land in results_.
  Status RunNodes(size_t end) {
    results_.resize(plan_.nodes.size());
    for (size_t i = 0; i < end; ++i) {
      XVM_RETURN_IF_ERROR(ExecNode(i));
    }
    return Status::Ok();
  }

  RelRef& result(size_t i) { return results_[i]; }
  ExecStats& stats() { return stats_; }

 private:
  Status ExecNode(size_t i) {
    const auto start = std::chrono::steady_clock::now();
    const PhysNode& n = plan_.nodes[static_cast<size_t>(i)];
    int64_t rows_in = 0;
    for (int in : n.inputs) {
      rows_in +=
          static_cast<int64_t>(results_[static_cast<size_t>(in)].get().size());
    }
    RelRef out;
    switch (n.kernel) {
      case PhysKernel::kScan: {
        XVM_ASSIGN_OR_RETURN(RelRef leaf, ResolveScan(n));
        const Relation& rel = leaf.get();
        rows_in = static_cast<int64_t>(rel.size());
        // Arity is always enforced (a mismatched resolver would make the
        // fused predicates index out of range); the full contract audit is
        // invariant-gated.
        XVM_CHECK(rel.schema.size() == n.leaf_schema.size());
        if (audit_) AuditLeafContract(n, rel);
        if (n.predicates.empty() && n.cols.empty()) {
          out = std::move(leaf);
          break;
        }
        if (!n.predicates.empty()) ++stats_.scans_fused;
        out.owned.schema = n.schema;
        if (leaf.borrowed != nullptr) {
          for (const Tuple& row : rel.rows) ScanRow(n, row, &out.owned);
        } else {
          for (Tuple& row : leaf.owned.rows) {
            ScanRow(n, std::move(row), &out.owned);
          }
        }
        break;
      }
      case PhysKernel::kSnowcapScan: {
        if (!ctx_.snowcap_leaf) {
          if (!ctx_.resolve_leaf) {
            return Status::Internal("executor: no resolver for snowcap '" +
                                    n.leaf_name + "'");
          }
          XVM_ASSIGN_OR_RETURN(out.owned, ctx_.resolve_leaf(n));
          XVM_CHECK(out.owned.schema.size() == n.leaf_schema.size());
          rows_in = static_cast<int64_t>(out.owned.size());
          break;
        }
        const Relation* rel = ctx_.snowcap_leaf(n);
        if (rel == nullptr) {
          return Status::Internal("executor: snowcap '" + n.leaf_name +
                                  "' is not materialized");
        }
        XVM_CHECK(rel->schema.size() == n.leaf_schema.size());
        rows_in = static_cast<int64_t>(rel->size());
        out.borrowed = rel;
        break;
      }
      case PhysKernel::kSelect: {
        RelRef& in = results_[static_cast<size_t>(n.inputs[0])];
        out.owned.schema = in.get().schema;
        if (in.borrowed != nullptr) {
          for (const Tuple& row : in.get().rows) {
            if (EvalPredicates(n.predicates, row, ctx_)) {
              out.owned.rows.push_back(row);
            }
          }
        } else {
          for (Tuple& row : in.owned.rows) {
            if (EvalPredicates(n.predicates, row, ctx_)) {
              out.owned.rows.push_back(std::move(row));
            }
          }
        }
        break;
      }
      case PhysKernel::kProject: {
        const Relation& in = results_[static_cast<size_t>(n.inputs[0])].get();
        out.owned.schema = n.schema;
        out.owned.rows.reserve(in.rows.size());
        for (const Tuple& row : in.rows) {
          Tuple t;
          t.reserve(n.cols.size());
          for (int c : n.cols) t.push_back(row[static_cast<size_t>(c)]);
          out.owned.rows.push_back(std::move(t));
        }
        break;
      }
      case PhysKernel::kSortElided: {
        RelRef& in = results_[static_cast<size_t>(n.inputs[0])];
        if (audit_ && !SortedByKeys(in.get().rows, n.cols)) {
          InvariantReport report;
          report.Add("exec.elided_sort_order",
                     "input of statically elided sort " + n.Describe() +
                         " is not sorted by the proven keys");
          InvariantAuditFailed(report, "ExecutePhysicalPlan");
        }
        out = std::move(in);
        break;
      }
      case PhysKernel::kSortAdaptive: {
        RelRef& in = results_[static_cast<size_t>(n.inputs[0])];
        if (SortedByKeys(in.get().rows, n.cols)) {
          ++stats_.sorts_elided_dynamic;
          out = std::move(in);
        } else {
          ++stats_.sorts_performed;
          out.owned = SortBy(TakeOwned(std::move(in)), n.cols);
        }
        break;
      }
      case PhysKernel::kDupElimSorted: {
        const Relation& in = results_[static_cast<size_t>(n.inputs[0])].get();
        out.owned.schema = in.schema;
        for (size_t r = 0; r < in.rows.size(); ++r) {
          if (r == 0 || !(in.rows[r] == in.rows[r - 1])) {
            out.owned.rows.push_back(in.rows[r]);
          }
        }
        break;
      }
      case PhysKernel::kDupElimHash: {
        const Relation& in = results_[static_cast<size_t>(n.inputs[0])].get();
        out.owned.schema = in.schema;
        std::vector<CountedTuple> grouped = DupElimWithCounts(in);
        out.owned.rows.reserve(grouped.size());
        for (CountedTuple& ct : grouped) {
          out.owned.rows.push_back(std::move(ct.tuple));
        }
        break;
      }
      case PhysKernel::kStructJoin: {
        const Relation& l = results_[static_cast<size_t>(n.inputs[0])].get();
        const Relation& r = results_[static_cast<size_t>(n.inputs[1])].get();
        if (audit_) AuditStructJoinOrder(n, l, r);
        out.owned = StructuralJoin(l, n.outer_col, r, n.inner_col, n.axis);
        break;
      }
    }
    ExecKernelStats& ks = stats_.kernels[static_cast<size_t>(n.kernel)];
    ++ks.invocations;
    ks.rows_in += rows_in;
    ks.rows_out += static_cast<int64_t>(out.get().size());
    results_[i] = std::move(out);
    ks.ms += MsSince(start);
    return Status::Ok();
  }

  /// Appends `row` to `out` if it passes the scan's fused predicates,
  /// projected onto its columns when it has any.
  template <typename Row>
  void ScanRow(const PhysNode& n, Row&& row, Relation* out) const {
    if (!EvalPredicates(n.predicates, row, ctx_)) return;
    if (n.cols.empty()) {
      out->rows.push_back(std::forward<Row>(row));
      return;
    }
    Tuple t;
    t.reserve(n.cols.size());
    for (int c : n.cols) t.push_back(row[static_cast<size_t>(c)]);
    out->rows.push_back(std::move(t));
  }

  StatusOr<RelRef> ResolveScan(const PhysNode& n) {
    RelRef leaf;
    if (n.leaf_kind == PlanLeafKind::kStoreScan && ctx_.store_leaf &&
        n.leaf_node >= 0) {
      leaf.owned = ctx_.store_leaf(n.leaf_node);
    } else if (n.leaf_kind == PlanLeafKind::kDeltaScan && ctx_.delta_leaf &&
               n.leaf_node >= 0) {
      leaf.borrowed = ctx_.delta_leaf(n.leaf_node);
      if (leaf.borrowed == nullptr) {
        return Status::Internal("executor: no Δ table for leaf '" +
                                n.leaf_name + "'");
      }
    } else if (ctx_.resolve_leaf) {
      XVM_ASSIGN_OR_RETURN(leaf.owned, ctx_.resolve_leaf(n));
    } else {
      return Status::Internal("executor: no resolver for leaf '" +
                              n.leaf_name + "'");
    }
    return leaf;
  }

  void AuditLeafContract(const PhysNode& n, const Relation& rel) const {
    InvariantReport report;
    if (!(rel.schema == n.leaf_schema)) {
      report.Add("exec.leaf_contract",
                 "leaf '" + n.leaf_name + "' resolved to schema " +
                     rel.schema.ToString() + " but declares " +
                     n.leaf_schema.ToString());
    } else if (!SortedByKeys(rel.rows, n.leaf_sort_prefix)) {
      report.Add("exec.leaf_contract",
                 "rows of leaf '" + n.leaf_name +
                     "' are not sorted by the declared sort prefix");
    }
    if (!report.ok()) InvariantAuditFailed(report, "ExecutePhysicalPlan");
  }

  void AuditStructJoinOrder(const PhysNode& n, const Relation& l,
                            const Relation& r) const {
    InvariantReport report;
    if (!SortedByKeys(l.rows, {n.outer_col})) {
      report.Add("exec.struct_join_order",
                 "outer input of " + n.Describe() +
                     " is not sorted by the outer column");
    }
    if (!SortedByKeys(r.rows, {n.inner_col})) {
      report.Add("exec.struct_join_order",
                 "inner input of " + n.Describe() +
                     " is not sorted by the inner column");
    }
    if (!report.ok()) InvariantAuditFailed(report, "ExecutePhysicalPlan");
  }

  const PhysicalPlan& plan_;
  const PhysExecContext& ctx_;
  const bool audit_;
  std::vector<RelRef> results_;
  ExecStats stats_;
};

void FinishStats(const PhysicalPlan& plan, PhysExecutor* exec,
                 const PhysExecContext& ctx,
                 std::chrono::steady_clock::time_point start) {
  if (ctx.stats == nullptr) return;
  ExecStats& s = exec->stats();
  s.plans_executed = 1;
  s.sorts_elided_static = plan.sorts_elided_static;
  s.exec_ms = MsSince(start);
  ctx.stats->MergeFrom(s);
}

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  for (size_t k = 0; k < kNumPhysKernels; ++k) {
    kernels[k].invocations += other.kernels[k].invocations;
    kernels[k].rows_in += other.kernels[k].rows_in;
    kernels[k].rows_out += other.kernels[k].rows_out;
    kernels[k].ms += other.kernels[k].ms;
  }
  plans_executed += other.plans_executed;
  sorts_elided_static += other.sorts_elided_static;
  sorts_elided_dynamic += other.sorts_elided_dynamic;
  sorts_performed += other.sorts_performed;
  scans_fused += other.scans_fused;
  exec_ms += other.exec_ms;
}

void FlushExecStats(const ExecStats& delta, MetricsRegistry* metrics) {
  if (metrics == nullptr || delta.plans_executed == 0) return;
  metrics->RecordPhase(kExecMetricsView, "execute_plan", delta.exec_ms);
  metrics->AddCounter(kExecMetricsView, "plans_executed",
                      delta.plans_executed);
  metrics->AddCounter(kExecMetricsView, "sorts_elided_static",
                      delta.sorts_elided_static);
  metrics->AddCounter(kExecMetricsView, "sorts_elided_dynamic",
                      delta.sorts_elided_dynamic);
  metrics->AddCounter(kExecMetricsView, "sorts_performed",
                      delta.sorts_performed);
  metrics->AddCounter(kExecMetricsView, "scans_fused", delta.scans_fused);
  for (size_t k = 0; k < kNumPhysKernels; ++k) {
    const ExecKernelStats& ks = delta.kernels[k];
    if (ks.invocations == 0) continue;
    const std::string name = PhysKernelName(static_cast<PhysKernel>(k));
    metrics->AddCounter(kExecMetricsView, name + ".invocations",
                        ks.invocations);
    metrics->AddCounter(kExecMetricsView, name + ".rows_in", ks.rows_in);
    metrics->AddCounter(kExecMetricsView, name + ".rows_out", ks.rows_out);
    metrics->RecordPhase(kExecMetricsView, name + ".ms", ks.ms);
  }
}

StatusOr<Relation> ExecutePhysicalPlan(const PhysicalPlan& plan,
                                       const PhysExecContext& ctx) {
  XVM_CHECK(!plan.nodes.empty());
  const auto start = std::chrono::steady_clock::now();
  PhysExecutor exec(plan, ctx);
  XVM_RETURN_IF_ERROR(exec.RunNodes(plan.nodes.size()));
  Relation out = TakeOwned(std::move(exec.result(
      static_cast<size_t>(plan.root()))));
  FinishStats(plan, &exec, ctx, start);
  return out;
}

StatusOr<std::vector<CountedTuple>> ExecutePhysicalPlanWithCounts(
    const PhysicalPlan& plan, const PhysExecContext& ctx) {
  XVM_CHECK(!plan.nodes.empty());
  const PhysNode& root = plan.nodes.back();
  XVM_CHECK(root.kernel == PhysKernel::kDupElimSorted ||
            root.kernel == PhysKernel::kDupElimHash);
  const auto start = std::chrono::steady_clock::now();
  PhysExecutor exec(plan, ctx);
  // Execute everything below the root, then group with counts directly.
  XVM_RETURN_IF_ERROR(exec.RunNodes(plan.nodes.size() - 1));
  const auto root_start = std::chrono::steady_clock::now();
  const Relation& in =
      exec.result(static_cast<size_t>(root.inputs[0])).get();
  std::vector<CountedTuple> out;
  if (root.kernel == PhysKernel::kDupElimSorted) {
    for (const Tuple& row : in.rows) {
      if (!out.empty() && out.back().tuple == row) {
        ++out.back().count;
      } else {
        out.push_back({row, 1});
      }
    }
  } else {
    out = DupElimWithCounts(in);
  }
  ExecKernelStats& ks =
      exec.stats().kernels[static_cast<size_t>(root.kernel)];
  ++ks.invocations;
  ks.rows_in += static_cast<int64_t>(in.size());
  ks.rows_out += static_cast<int64_t>(out.size());
  ks.ms += MsSince(root_start);
  FinishStats(plan, &exec, ctx, start);
  return out;
}

}  // namespace xvm
