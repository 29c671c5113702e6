#ifndef XVM_VIEW_AUDIT_H_
#define XVM_VIEW_AUDIT_H_

#include "common/invariant.h"
#include "store/canonical.h"
#include "view/maintain.h"

namespace xvm {

/// Debug-mode auditor of a maintained view's content: re-derives the view
/// from the canonical store (the same ground truth the differential tests
/// use) and compares tuple-by-tuple against the materialized content — the
/// paper's bit-identical-to-recomputation claim, checked mechanically.
/// Requires the store to be consistent with the document (i.e. call after
/// the canonical relations rolled forward).
/// Invariants: "view.matches_recompute" (size or tuple/count mismatch, with
/// the first divergent tuple in the diagnostic), "view.positive_counts",
/// "view.derivation_total" (total_derivations() equals the sum of counts),
/// "view.store_structure" (MaterializedView::CheckStructure: no empty or
/// oversized chunk, ID order within and across chunks, an index holding
/// exactly the chunks' entries, counts adding up to the total),
/// "view.snowcap_matches_recompute" (each materialized snowcap equals its
/// re-materialization row for row — content and binding order).
void AuditViewContent(const MaintainedView& view, const StoreIndex& store,
                      InvariantReport* report);

}  // namespace xvm

#endif  // XVM_VIEW_AUDIT_H_
