#include "view/audit.h"

#include <string>
#include <vector>

#include "pattern/compile.h"

namespace xvm {

namespace {

std::string TupleDesc(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(t[i].ToString());
  }
  out.append(")");
  return out;
}

/// Each materialized snowcap must equal its re-materialization row for row:
/// the same bindings, in the binding order its plan leaf declares.
void AuditSnowcaps(const MaintainedView& view, const StoreIndex& store,
                   InvariantReport* report) {
  const std::string& name = view.def().name();
  const TreePattern& pattern = view.def().pattern();
  for (const MaterializedSnowcap& sc : view.lattice().snowcaps()) {
    const Relation truth =
        EvalTreePattern(pattern, StoreLeafSource(&store, &pattern), &sc.nodes);
    const std::vector<Tuple>& got = sc.data.rows;
    const std::string what = "view '" + name + "' snowcap " +
                             NodeSetToString(pattern, sc.nodes);
    if (got.size() != truth.rows.size()) {
      report->Add("view.snowcap_matches_recompute",
                  what + " holds " + std::to_string(got.size()) +
                      " rows but re-materialization yields " +
                      std::to_string(truth.rows.size()));
      continue;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != truth.rows[i]) {
        report->Add("view.snowcap_matches_recompute",
                    what + " diverges from re-materialization at row " +
                        std::to_string(i) + ": maintained " +
                        TupleDesc(got[i]) + ", recomputed " +
                        TupleDesc(truth.rows[i]));
        break;
      }
    }
  }
}

}  // namespace

void AuditViewContent(const MaintainedView& view, const StoreIndex& store,
                      InvariantReport* report) {
  AuditSnowcaps(view, store, report);
  const std::string& name = view.def().name();
  const TreePattern& pattern = view.def().pattern();
  const std::vector<CountedTuple> truth =
      EvalViewWithCounts(pattern, StoreLeafSource(&store, &pattern));
  const ViewContent& got = view.view().content();

  for (const std::string& problem : view.view().CheckStructure()) {
    report->Add("view.store_structure", "view '" + name + "': " + problem);
  }

  int64_t total = 0;
  for (const CountedTuple& ct : got) {
    total += ct.count;
    if (ct.count <= 0) {
      report->Add("view.positive_counts",
                  "view '" + name + "' holds tuple " + TupleDesc(ct.tuple) +
                      " with non-positive count " + std::to_string(ct.count));
    }
  }
  if (total != view.view().total_derivations()) {
    report->Add("view.derivation_total",
                "view '" + name + "' total_derivations() is " +
                    std::to_string(view.view().total_derivations()) +
                    " but its tuples sum to " + std::to_string(total));
  }

  if (got.size() != truth.size()) {
    report->Add("view.matches_recompute",
                "view '" + name + "' holds " + std::to_string(got.size()) +
                    " tuples but recomputation yields " +
                    std::to_string(truth.size()));
    return;
  }
  size_t i = 0;
  for (const CountedTuple& g : got) {
    const CountedTuple& t = truth[i];
    if (g.tuple != t.tuple || g.count != t.count) {
      report->Add("view.matches_recompute",
                  "view '" + name + "' diverges from recomputation at tuple " +
                      std::to_string(i) + ": maintained " +
                      TupleDesc(g.tuple) + " x" + std::to_string(g.count) +
                      ", recomputed " + TupleDesc(t.tuple) + " x" +
                      std::to_string(t.count));
      return;
    }
    ++i;
  }
}

}  // namespace xvm
