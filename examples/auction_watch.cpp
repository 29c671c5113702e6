// Auction monitoring: the XMark scenario the paper's evaluation uses. A
// generated auction site keeps three materialized views live under a stream
// of mixed updates — new bidders arrive, persons register, auctions close —
// and every view is maintained incrementally, then checked against a
// from-scratch evaluation at the end.

#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/recompute.h"
#include "pattern/compile.h"
#include "store/canonical.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/views.h"

using namespace xvm;

int main() {
  // A ~200 KB auction document.
  Document doc;
  GenerateXMark(XMarkConfig{200 * 1024, 42}, &doc);
  StoreIndex store(&doc);
  store.Build();
  std::printf("auction site: %zu nodes (~%zu KB serialized)\n",
              doc.num_alive(), doc.ApproxSerializedBytes() / 1024);

  // Three concurrent views over the same store: Q1 (registered persons),
  // Q3 (hot bids at exactly 4.50), Q13 (North-American items).
  ViewManager mgr(&doc, &store);
  for (const char* name : {"Q1", "Q3", "Q13"}) {
    auto def = XMarkView(name);
    XVM_CHECK(def.ok());
    auto idx = mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps);
    XVM_CHECK(idx.ok());
    std::printf("  view %-4s: %4zu tuples\n", name,
                mgr.view(*idx).view().size());
  }

  // An update stream. The manager applies each document update once and
  // every view receives its propagation pass.
  struct Event {
    const char* what;
    UpdateStmt stmt;
  };
  std::vector<Event> stream;
  stream.push_back({"two new bidders on every auction with a reserve",
                    UpdateStmt::InsertForest(
                        "/site/open_auctions/open_auction[reserve]",
                        "<bidder><date>01/07/2026</date><time>10:00</time>"
                        "<personref person=\"person3\"/>"
                        "<increase>4.50</increase></bidder>"
                        "<bidder><date>01/07/2026</date><time>10:05</time>"
                        "<personref person=\"person5\"/>"
                        "<increase>6.00</increase></bidder>")});
  stream.push_back({"a new person registers",
                    UpdateStmt::InsertForest(
                        "/site/people",
                        "<person id=\"person99999\"><name>Ada L</name>"
                        "<emailaddress>mailto:ada@example.org</emailaddress>"
                        "<homepage>http://example.org/~ada</homepage>"
                        "</person>")});
  stream.push_back({"north-american items gain descriptions",
                    UpdateStmt::InsertForest(
                        "/site/regions/namerica/item",
                        "<description>fresh stock arriving</description>")});
  stream.push_back({"privacy-flagged auctions are purged",
                    UpdateStmt::Delete(
                        "/site/open_auctions/open_auction[privacy]")});
  stream.push_back({"persons without an email-visible profile leave",
                    UpdateStmt::Delete(
                        "/site/people/person[profile and creditcard]")});

  for (const auto& event : stream) {
    std::printf("\n>> %s\n", event.what);
    auto out = mgr.ApplyAndPropagateAll(event.stmt);
    XVM_CHECK(out.ok());
    for (size_t i = 0; i < mgr.size(); ++i) {
      const UpdateOutcome& o = out->per_view[i];
      std::printf("   %-4s +%lld -%lld derivations (%.2f ms)%s\n",
                  mgr.view(i).def().name().c_str(),
                  static_cast<long long>(o.stats.derivations_added),
                  static_cast<long long>(o.stats.derivations_removed),
                  o.timing.TotalMs(),
                  o.stats.recompute_fallback ? " [recompute fallback]" : "");
    }
  }

  // Final audit: every maintained view equals a from-scratch evaluation.
  std::printf("\n== audit ==\n");
  bool all_ok = true;
  for (size_t v = 0; v < mgr.size(); ++v) {
    const MaintainedView& view = mgr.view(v);
    const TreePattern& pat = view.def().pattern();
    auto truth = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
    const ViewContent& got = view.view().content();
    bool ok = truth.size() == got.size();
    for (size_t i = 0; ok && i < truth.size(); ++i) {
      ok = truth[i].tuple == got[i].tuple && truth[i].count == got[i].count;
    }
    std::printf("  %-4s: %4zu tuples — %s\n", view.def().name().c_str(),
                got.size(), ok ? "consistent" : "MISMATCH");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}
