// Figures 33-35: benefit of the §5 PUL reduction rules O1, O3 and I5 when
// propagating sequences of atomic updates to view Q1 over a 100 KB document.
// Following §6.8, the base update X1_L runs alongside a second update whose
// targets overlap a varying percentage (20%..100%) of X1_L's targets; the
// overlapping ops are redundant and the rules remove them. Both arms
// propagate through the same pipeline (ViewManager::ApplyOpsAndPropagateAll
// for inserts, a snapshot-Δ− delete round for deletes); the "optimise" arm
// pays for ReduceOps and saves on redundant propagation work.

#include "bench_util.h"

#include "pul/pul.h"
#include "xpath/xpath_eval.h"

namespace xvm::bench {
namespace {

enum class Rule { kO1, kO3, kI5 };

constexpr const char kNameForest[] =
    "<name>Martin<name>and</name><name>some</name><name>test</name>"
    "<name>nodes</name></name>";

/// Builds the combined op sequence for one rule at `percent` overlap.
OpSequence BuildOps(const Document& doc, Rule rule, int percent) {
  auto persons = EvalXPathString(doc, "/site/people/person");
  XVM_CHECK(persons.ok() && !persons->empty());
  const size_t n = persons->size();
  const size_t overlap = std::max<size_t>(1, n * percent / 100);

  OpSequence ops;
  auto make_forest = [&doc]() {
    // Build the name forest via the update helper for consistent payloads.
    UpdateStmt stmt = UpdateStmt::InsertForest("/x", kNameForest);
    auto f = std::make_shared<Document>(doc.dict_ptr());
    NodeHandle root = f->CreateRoot("#forest");
    f->CopySubtreeAsChild(root, *stmt.forest,
                          stmt.forest->Children(stmt.forest->root())[0]);
    return f;
  };

  switch (rule) {
    case Rule::kO1: {
      // The overlapping update deletes the first `overlap` persons; X1_L
      // then deletes every person. Without optimization both rounds of
      // propagation run; O1 keeps only the later deletes.
      for (size_t i = 0; i < overlap; ++i) {
        ops.push_back(AtomicOp::Del(doc.node((*persons)[i]).id));
      }
      for (NodeHandle p : *persons) ops.push_back(AtomicOp::Del(doc.node(p).id));
      break;
    }
    case Rule::kO3: {
      // B first: delete the <name> child of the first `overlap` persons,
      // then A deletes the persons themselves (ancestors) — O3 drops B.
      auto expr = ParseXPath("/name");
      XVM_CHECK(expr.ok());
      for (size_t i = 0; i < overlap; ++i) {
        auto kids = EvalXPathFrom(doc, (*persons)[i], expr->steps);
        if (!kids.empty()) ops.push_back(AtomicOp::Del(doc.node(kids[0]).id));
      }
      for (NodeHandle p : *persons) ops.push_back(AtomicOp::Del(doc.node(p).id));
      break;
    }
    case Rule::kI5: {
      // The overlapping update inserts into the first `overlap` persons;
      // X1_L then inserts into every person. I5 merges the same-target
      // inserts into single ops, halving the propagation rounds for the
      // overlapped targets.
      for (size_t i = 0; i < overlap; ++i) {
        ops.push_back(
            AtomicOp::InsInto(doc.node((*persons)[i]).id, make_forest()));
      }
      for (NodeHandle p : *persons) {
        ops.push_back(AtomicOp::InsInto(doc.node(p).id, make_forest()));
      }
      break;
    }
  }
  return ops;
}

/// Runs one op sequence node-at-a-time (§6.8: "as these rules are defined
/// on atomic operations, we modified our system to operate in this
/// manner"). Deletions follow XQuery Update snapshot semantics: every op's
/// Δ− is extracted against the sequence's initial snapshot, so a redundant
/// delete still pays its full propagation round — exactly the work O1/O3
/// remove. No engine API offers snapshot semantics, so the delete rounds
/// drive the view's propagation half by hand. Returns the elapsed
/// milliseconds.
double RunSequence(Workbench* wb, ViewManager* mgr, const OpSequence& ops) {
  Document* doc = wb->doc.get();
  StoreIndex* store = wb->store.get();
  MaintainedView* mv = &mgr->mutable_view(0);
  // Snapshot Δ− tables, one per delete op.
  std::set<LabelId> needs = mv->DeltaMinusValLabelIds();
  std::vector<DeltaTables> snapshot_dm;
  snapshot_dm.reserve(ops.size());
  for (const AtomicOp& op : ops) {
    Pul pul;
    if (op.kind == AtomicOp::Kind::kDelete) {
      NodeHandle h = store->FindById(op.target);
      if (h != kNullNode) pul.deletes.push_back(PulDeleteOp{h});
    }
    snapshot_dm.push_back(ComputeDeltaMinus(*doc, pul, nullptr, &needs));
  }

  WallTimer timer;
  for (size_t i = 0; i < ops.size(); ++i) {
    const AtomicOp& op = ops[i];
    if (op.kind == AtomicOp::Kind::kDelete) {
      PhaseTimer phase_timer;
      MaintenanceStats stats;
      NodeHandle h = store->FindById(op.target);
      std::vector<NodeHandle> removed_nodes;
      if (h != kNullNode) removed_nodes = doc->DeleteSubtree(h);
      mv->PropagateDelete(snapshot_dm[i], &phase_timer, &stats);
      store->OnNodesRemoved(removed_nodes);
      if (stats.recompute_fallback) mv->RecomputeFromStore();
    } else {
      auto out = mgr->ApplyOpsAndPropagateAll(OpSequence{op});
      XVM_CHECK(out.ok());
    }
  }
  return timer.ElapsedMs();
}

void RunRule(const std::string& figure, Rule rule, const char* rule_name) {
  PrintBanner(figure, std::string("Reduction rule ") + rule_name +
                          " (view Q1, 100 KB doc)");
  // Fixed at the paper's 100 KB regardless of XVM_SCALE (the bench is
  // cheap, and per-round costs need a non-toy document to be visible).
  const size_t bytes = 100 * 1024;
  std::printf("%-10s %14s %14s %12s\n", "overlap", "optimise_ms",
              "no_optimise_ms", "ops_removed");
  for (int percent : {20, 40, 60, 80, 100}) {
    double opt_ms = 0, raw_ms = 0;
    size_t removed = 0;
    for (int rep = 0; rep < Reps(); ++rep) {
      for (bool optimize : {true, false}) {
        Workbench wb = MakeXMark(bytes, 7);
        auto def = XMarkView("Q1");
        XVM_CHECK(def.ok());
        ViewManager mgr(wb.doc.get(), wb.store.get());
        XVM_CHECK(
            mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps)
                .ok());
        OpSequence ops = BuildOps(*wb.doc, rule, percent);
        WallTimer timer;
        if (optimize) {
          ReduceStats stats;
          ops = ReduceOps(ops, &stats);
          removed = stats.TotalRemoved();
        }
        RunSequence(&wb, &mgr, ops);
        (optimize ? opt_ms : raw_ms) += timer.ElapsedMs();
      }
    }
    std::printf("%9d%% %14.3f %14.3f %12zu\n", percent, opt_ms / Reps(),
                raw_ms / Reps(), removed);
  }
}

}  // namespace
}  // namespace xvm::bench

int main() {
  xvm::bench::RunRule("Figure 33", xvm::bench::Rule::kO1, "O1");
  xvm::bench::RunRule("Figure 34", xvm::bench::Rule::kO3, "O3");
  xvm::bench::RunRule("Figure 35", xvm::bench::Rule::kI5, "I5");
  return 0;
}
