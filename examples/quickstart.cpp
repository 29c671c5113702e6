// Quickstart: parse a document, define a materialized view, apply XML
// updates, and watch the view follow incrementally.
//
//   $ ./example_quickstart
//
// Walks through the full public API surface:
//   Document + ParseDocument      (src/xml)
//   StoreIndex                    (src/store)
//   ViewDefinition + pattern DSL  (src/view, src/pattern)
//   MaintainedView                (src/view) — PINT/PIMT + PDDT/PDMT

#include <cstdio>

#include "store/canonical.h"
#include "view/manager.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace xvm;

namespace {

void PrintView(const MaintainedView& mv) {
  std::printf("view '%s' %s — %zu tuple(s), %lld derivation(s)\n",
              mv.def().name().c_str(), mv.def().pattern().ToString().c_str(),
              mv.view().size(),
              static_cast<long long>(mv.view().total_derivations()));
  for (const CountedTuple& ct : mv.view().content()) {
    std::printf("  [count=%lld]", static_cast<long long>(ct.count));
    for (size_t i = 0; i < ct.tuple.size(); ++i) {
      std::printf(" %s=%s", mv.def().tuple_schema().col(i).name.c_str(),
                  ct.tuple[i].ToString().c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // 1. A small library catalog.
  Document doc;
  Status st = ParseDocument(
      "<library>"
      "  <shelf topic=\"databases\">"
      "    <book year=\"2011\"><title>XML Views</title></book>"
      "    <book year=\"1994\"><title>Datalog</title></book>"
      "  </shelf>"
      "  <shelf topic=\"systems\">"
      "    <book year=\"2006\"><title>Bigtable</title></book>"
      "  </shelf>"
      "</library>",
      &doc);
  XVM_CHECK(st.ok());

  // 2. Build the canonical-relation store (the R_a relations of the paper).
  StoreIndex store(&doc);
  store.Build();

  // 3. Define a view in the tree-pattern dialect P: every book under a
  //    shelf, storing the book's ID and its title's ID and text value.
  auto def = ViewDefinition::Create(
      "titles", "//shelf{id}(//book{id}(/title{id,val}))");
  XVM_CHECK(def.ok());

  // 4. Register it with a ViewManager, which materializes it with the
  //    snowcap-lattice maintenance strategy and applies every update.
  ViewManager mgr(&doc, &store);
  XVM_CHECK(
      mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& view = mgr.view(0);
  std::printf("== after initialization ==\n");
  PrintView(view);

  // 5. A statement-level insertion: every databases shelf gains a book.
  //    The view is maintained incrementally (PINT), not recomputed.
  auto out1 = mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest(
      "/library/shelf[@topic=\"databases\"]",
      "<book year=\"2025\"><title>Algebraic Maintenance</title></book>"));
  XVM_CHECK(out1.ok());
  std::printf("\n== after insert (+%zu nodes, %zu term(s) evaluated, "
              "%zu pruned) ==\n",
              out1->nodes_inserted, out1->per_view[0].stats.terms_evaluated,
              out1->per_view[0].stats.terms_pruned_data);
  PrintView(view);

  // 6. A deletion: drop every pre-2000 book (PDDT/PDMT).
  auto out2 =
      mgr.ApplyAndPropagateAll(UpdateStmt::Delete("//book[@year=\"1994\"]"));
  XVM_CHECK(out2.ok());
  std::printf("\n== after delete (-%zu nodes) ==\n", out2->nodes_deleted);
  PrintView(view);

  // 7. The document itself evolved too.
  std::printf("\nfinal document:\n%s\n", SerializeDocument(doc).c_str());
  return 0;
}
