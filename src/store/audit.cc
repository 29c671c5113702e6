#include "store/audit.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xvm {

namespace {

std::string LabelName(const LabelDict& dict, LabelId id) {
  if (id < dict.size()) return dict.Name(id);
  return "<label#" + std::to_string(id) + ">";
}

std::string NodeDesc(const Document& doc, NodeHandle h) {
  const Node& n = doc.node(h);
  return "node#" + std::to_string(h) + " ('" + LabelName(doc.dict(), n.label) +
         "' id " + n.id.ToString() + ")";
}

/// "document.attr_index": rebuilds the attribute-value index from the live
/// attributes and compares it with the document's, key by key.
void AuditAttributeIndex(const Document& doc, InvariantReport* report) {
  std::map<std::pair<LabelId, std::string>, std::vector<NodeHandle>> rebuilt;
  size_t attributes = 0;
  for (NodeHandle h : doc.AllNodes()) {
    const Node& n = doc.node(h);
    if (n.kind != NodeKind::kAttribute) continue;
    rebuilt[{n.label, n.text}].push_back(h);
    ++attributes;
  }
  std::vector<NodeHandle> live;
  for (auto& [key, expected] : rebuilt) {
    live.clear();
    doc.FindAttributes(key.first, key.second, &live);
    std::sort(live.begin(), live.end());
    std::sort(expected.begin(), expected.end());
    if (live != expected) {
      report->Add("document.attr_index",
                  "the index finds " + std::to_string(live.size()) +
                      " nodes for " + LabelName(doc.dict(), key.first) +
                      "=\"" + key.second + "\" but " +
                      std::to_string(expected.size()) +
                      " live attributes carry it, e.g. " +
                      NodeDesc(doc, expected.front()));
    }
  }
  if (doc.attribute_index_size() != attributes) {
    report->Add("document.attr_index",
                "the attribute index holds " +
                    std::to_string(doc.attribute_index_size()) +
                    " entries for " + std::to_string(attributes) +
                    " live attributes");
  }
}

}  // namespace

void AuditLabelDict(const LabelDict& dict, InvariantReport* report) {
  for (size_t i = 0; i < dict.size(); ++i) {
    const LabelId id = static_cast<LabelId>(i);
    const std::string& name = dict.Name(id);
    if (name.empty()) {
      report->Add("label_dict.nonempty_name",
                  "label id " + std::to_string(i) + " has an empty name");
      continue;
    }
    const LabelId back = dict.Lookup(name);
    if (back != id) {
      report->Add("label_dict.bijective",
                  "label id " + std::to_string(i) + " ('" + name +
                      "') looks up to id " + std::to_string(back));
    }
  }
}

void AuditDocument(const Document& doc, InvariantReport* report) {
  const std::vector<NodeHandle> all = doc.AllNodes();
  if (all.size() != doc.num_alive()) {
    report->Add("document.alive_count",
                "traversal reaches " + std::to_string(all.size()) +
                    " nodes but num_alive() is " +
                    std::to_string(doc.num_alive()));
  }
  for (size_t i = 0; i < all.size(); ++i) {
    const NodeHandle h = all[i];
    const Node& n = doc.node(h);
    if (n.id.empty()) {
      report->Add("dewey.label", NodeDesc(doc, h) + " has an empty ID");
      continue;
    }
    if (n.id.label() != n.label) {
      report->Add("dewey.label",
                  NodeDesc(doc, h) + " carries ID label '" +
                      LabelName(doc.dict(), n.id.label()) +
                      "' but node label '" + LabelName(doc.dict(), n.label) +
                      "'");
    }
    if (n.parent == kNullNode) {
      if (n.id.depth() != 1) {
        report->Add("dewey.root_depth",
                    NodeDesc(doc, h) + " has no parent but ID depth " +
                        std::to_string(n.id.depth()));
      }
    } else {
      const Node& p = doc.node(n.parent);
      if (!p.alive) {
        report->Add("document.links",
                    NodeDesc(doc, h) + " has a dead parent node#" +
                        std::to_string(n.parent));
      } else if (n.id.Parent() != p.id) {
        // The self-describing property: the ID prefix IS the parent's ID.
        report->Add("dewey.parent_prefix",
                    NodeDesc(doc, h) + " has ID-parent " +
                        n.id.Parent().ToString() + " but its parent node is " +
                        NodeDesc(doc, n.parent));
      }
    }
    if (i > 0 && !(doc.node(all[i - 1]).id < n.id)) {
      report->Add("document.preorder",
                  NodeDesc(doc, all[i - 1]) + " does not precede " +
                      NodeDesc(doc, h) + " in ID order");
    }
    for (NodeHandle c : doc.Children(h)) {
      if (doc.node(c).parent != h) {
        report->Add("document.links",
                    "child " + NodeDesc(doc, c) + " of " + NodeDesc(doc, h) +
                        " points back to node#" +
                        std::to_string(doc.node(c).parent));
      }
    }
  }
  AuditAttributeIndex(doc, report);
}

void AuditStoreIndex(const Document& doc, const StoreIndex& store,
                     InvariantReport* report) {
  size_t total = 0;
  for (size_t l = 0; l < doc.dict().size(); ++l) {
    const LabelId label = static_cast<LabelId>(l);
    const CanonicalRelation& rel = store.Relation(label);
    const std::string rel_name = LabelName(doc.dict(), label);
    for (size_t i = 0; i < rel.size(); ++i) {
      const NodeHandle h = rel.nodes()[i];
      if (!doc.IsAlive(h)) {
        report->Add("store.alive", "relation '" + rel_name + "' entry " +
                                       std::to_string(i) +
                                       " references dead node#" +
                                       std::to_string(h));
        continue;
      }
      if (doc.node(h).label != label) {
        report->Add("store.label",
                    "relation '" + rel_name + "' entry " + std::to_string(i) +
                        " holds " + NodeDesc(doc, h));
      }
      const NodeHandle found = store.FindById(doc.node(h).id);
      if (found != h) {
        report->Add("store.find_by_id",
                    "ID of " + NodeDesc(doc, h) + " in relation '" + rel_name +
                        "' does not resolve back to it (FindById -> node#" +
                        std::to_string(found) + ")");
      }
      if (i > 0 && doc.IsAlive(rel.nodes()[i - 1]) &&
          !(doc.node(rel.nodes()[i - 1]).id < doc.node(h).id)) {
        report->Add("store.document_order",
                    "relation '" + rel_name + "' entries " +
                        std::to_string(i - 1) + " and " + std::to_string(i) +
                        " are out of document order (" +
                        NodeDesc(doc, rel.nodes()[i - 1]) + " !< " +
                        NodeDesc(doc, h) + ")");
      }
    }
    total += rel.size();
  }
  if (total != doc.num_alive()) {
    report->Add("store.complete",
                "relations hold " + std::to_string(total) +
                    " entries but the document has " +
                    std::to_string(doc.num_alive()) + " alive nodes");
  }
}

void AuditValContCache(const Document& doc, const StoreIndex& store,
                       InvariantReport* report) {
  // Byte-budget accounting: every mutation adjusts a shard's byte counter
  // under that shard's lock, so between statements (where audits run, with
  // no concurrent cache traffic) the counters must equal a recount of the
  // live entries exactly — any drift means an update path skipped the
  // accounting or touched a counter outside its stripe lock.
  size_t recounted = 0;
  const std::vector<ValContCache::AuditEntry> entries =
      store.cache().SnapshotForAudit();
  for (const ValContCache::AuditEntry& e : entries) {
    recounted += ValContCache::kEntryOverhead + e.val.size() + e.cont.size();
  }
  const size_t accounted = store.cache().ApproxBytes();
  if (recounted != accounted) {
    report->Add("cache.bytes",
                "shard byte counters sum to " + std::to_string(accounted) +
                    " but the " + std::to_string(entries.size()) +
                    " live entries recount to " + std::to_string(recounted));
  }
  for (const ValContCache::AuditEntry& e : entries) {
    const NodeHandle h = e.node;
    if (!doc.IsAlive(h)) {
      report->Add("cache.alive",
                  "cache holds an entry for dead node#" + std::to_string(h));
      continue;
    }
    if (e.has_val && e.val != doc.StringValue(h)) {
      report->Add("cache.val", "stale cached val for " + NodeDesc(doc, h) +
                                   ": cached '" + e.val + "' vs fresh '" +
                                   doc.StringValue(h) + "'");
    }
    if (e.has_cont && e.cont != doc.Content(h)) {
      report->Add("cache.cont", "stale cached cont for " + NodeDesc(doc, h) +
                                    ": cached '" + e.cont + "' vs fresh '" +
                                    doc.Content(h) + "'");
    }
  }
}

void AuditStorageLayer(const Document& doc, const StoreIndex& store,
                       InvariantReport* report) {
  AuditLabelDict(doc.dict(), report);
  AuditDocument(doc, report);
  AuditStoreIndex(doc, store, report);
  AuditValContCache(doc, store, report);
}

}  // namespace xvm
