#ifndef XVM_STORE_AUDIT_H_
#define XVM_STORE_AUDIT_H_

#include "common/invariant.h"
#include "store/canonical.h"
#include "store/label_dict.h"
#include "xml/document.h"

namespace xvm {

/// Debug-mode auditors of the storage layer (see common/invariant.h for the
/// report type and the runtime gate). Each function is pure validation: it
/// never mutates what it checks and appends one precisely-located violation
/// per broken invariant.

/// Label dictionary bijectivity: every interned id resolves to a non-empty
/// name, and that name looks up back to the same id.
/// Invariants: "label_dict.bijective", "label_dict.nonempty_name".
void AuditLabelDict(const LabelDict& dict, InvariantReport* report);

/// Document structural consistency, in particular the Compact Dynamic Dewey
/// IDs: every alive node's ID must carry its own label as its last step
/// ("dewey.label"), its ID's parent prefix must equal its parent node's ID —
/// the self-describing property of §2.1 ("dewey.parent_prefix") — roots must
/// have depth-1 IDs ("dewey.root_depth"), document order must be strictly
/// increasing over AllNodes() ("document.preorder"), parent/child links must
/// be reciprocal ("document.links"), and the attribute-value index must
/// equal one rebuilt from the live attributes ("document.attr_index").
void AuditDocument(const Document& doc, InvariantReport* report);

/// Canonical relation consistency against the document: every entry alive
/// ("store.alive") and carrying the relation's label ("store.label"),
/// entries in strictly increasing document order ("store.document_order"),
/// every entry's ID resolving back to it through StoreIndex::FindById
/// ("store.find_by_id"), and the relations collectively covering every
/// alive node exactly once ("store.complete").
void AuditStoreIndex(const Document& doc, const StoreIndex& store,
                     InvariantReport* report);

/// val/cont cache consistency against the document: every live entry must
/// reference an alive node ("cache.alive" — deleted nodes' entries are
/// erased by delta invalidation, and Val/Cont never cache dead nodes), and
/// each cached payload must equal a fresh recomputation from the current
/// document ("cache.val", "cache.cont") — i.e. delta invalidation dropped
/// every entry whose subtree changed.
void AuditValContCache(const Document& doc, const StoreIndex& store,
                       InvariantReport* report);

/// All storage-layer audits in one call.
void AuditStorageLayer(const Document& doc, const StoreIndex& store,
                       InvariantReport* report);

}  // namespace xvm

#endif  // XVM_STORE_AUDIT_H_
