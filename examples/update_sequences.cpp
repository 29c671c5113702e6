// Optimizing sequences of updates (paper §5): a statement-level update
// stream is expanded to atomic operations, the Cavalieri et al. rules
// reduce it (O1/O3/I5), conflicts between parallel PULs are detected
// (IO/LO/NLO), sequential PULs aggregate (A1/D6), and the reduced sequence
// propagates to a materialized view with less work.

#include <cstdio>

#include "pul/pul.h"
#include "store/canonical.h"
#include "view/manager.h"
#include "xml/parser.h"
#include "xpath/xpath_eval.h"

using namespace xvm;

namespace {

DeweyId IdAt(const Document& doc, const std::string& path, size_t i = 0) {
  auto nodes = EvalXPathString(doc, path);
  XVM_CHECK(nodes.ok() && nodes->size() > i);
  return doc.node((*nodes)[i]).id;
}

std::shared_ptr<Document> Forest(const Document& doc, const std::string& xml) {
  auto f = std::make_shared<Document>(doc.dict_ptr());
  Status st = ParseForest(xml, f.get());
  XVM_CHECK(st.ok());
  return f;
}

const char* KindName(const AtomicOp& op) {
  return op.kind == AtomicOp::Kind::kDelete ? "del" : "ins↘";
}

}  // namespace

int main() {
  // The document shape of the paper's Figure 17 examples.
  Document doc;
  Status st = ParseDocument(
      "<a><c><b><d><b/></d><d><b/></d><d><b><e/></b></d></b></c>"
      "<f><c><b/></c></f><c><b/></c></a>",
      &doc);
  XVM_CHECK(st.ok());
  StoreIndex store(&doc);
  store.Build();

  // Example 5.1's sequence: two useless ops (O1, O3) and two combinable
  // inserts (I5).
  OpSequence ops = {
      AtomicOp::InsInto(IdAt(doc, "//c/b/d/b", 0), Forest(doc, "<b><d/></b>")),
      AtomicOp::Del(IdAt(doc, "//c/b/d/b", 0)),
      AtomicOp::InsInto(IdAt(doc, "//c/b/d/b", 1), Forest(doc, "<b/>")),
      AtomicOp::Del(IdAt(doc, "//c/b/d", 1)),
      AtomicOp::InsInto(IdAt(doc, "//c/b/d", 2), Forest(doc, "<b/>")),
      AtomicOp::InsInto(IdAt(doc, "//c/b/d", 2),
                        Forest(doc, "<d><b/></d>")),
  };
  std::printf("original sequence (%zu ops):\n", ops.size());
  for (const auto& op : ops) {
    std::printf("  %s(%s)\n", KindName(op), op.target.ToString().c_str());
  }

  ReduceStats stats;
  OpSequence reduced = ReduceOps(ops, &stats);
  std::printf("\nreduced sequence (%zu ops): O1 removed %zu, O3 removed %zu, "
              "I5 merged %zu\n",
              reduced.size(), stats.o1_removed, stats.o3_removed,
              stats.i5_merged);
  for (const auto& op : reduced) {
    size_t trees = op.payload == nullptr
                       ? 0
                       : op.payload->Children(op.payload->root()).size();
    std::printf("  %s(%s)%s\n", KindName(op), op.target.ToString().c_str(),
                trees > 1 ? (" [" + std::to_string(trees) +
                             " trees combined]").c_str()
                          : "");
  }

  // Conflict detection between parallel PULs (Example 5.2's three rules).
  OpSequence pul_a = {AtomicOp::Del(IdAt(doc, "//c/b/d", 0))};
  OpSequence pul_b = {
      AtomicOp::InsInto(IdAt(doc, "//c/b/d", 0), Forest(doc, "<b/>"))};
  auto conflicts = DetectConflicts(pul_a, pul_b);
  std::printf("\nparallel PUL conflicts detected: %zu (", conflicts.size());
  for (const auto& c : conflicts) {
    std::printf("%s ", c.rule == Conflict::Rule::kIO    ? "IO"
                       : c.rule == Conflict::Rule::kLO  ? "LO"
                                                        : "NLO");
  }
  std::printf(")\n");
  std::printf("IntegrateParallel: %s\n",
              IntegrateParallel(pul_a, pul_b).ok()
                  ? "merged"
                  : "refused — a resolution policy must decide");

  // Propagate the reduced sequence to a maintained view in one pass.
  auto def = ViewDefinition::Create("v", "//b{id}(//d{id}(//b{id}))");
  XVM_CHECK(def.ok());
  ViewManager mgr(&doc, &store);
  XVM_CHECK(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& mv = mgr.view(0);
  std::printf("\nview //b//d//b before: %zu tuple(s)\n", mv.view().size());
  auto out = mgr.ApplyOpsAndPropagateAll(reduced);
  XVM_CHECK(out.ok());
  const MaintenanceStats& propagated = out->per_view[0].stats;
  std::printf("after reduced sequence: %zu tuple(s) "
              "(+%lld / -%lld derivations)\n",
              mv.view().size(),
              static_cast<long long>(propagated.derivations_added),
              static_cast<long long>(propagated.derivations_removed));
  return 0;
}
