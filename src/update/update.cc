#include "update/update.h"

#include <algorithm>
#include <unordered_set>

#include "xml/parser.h"
#include "xpath/xpath_eval.h"

namespace xvm {

UpdateStmt UpdateStmt::Delete(std::string path, std::string name) {
  UpdateStmt u;
  u.kind = Kind::kDelete;
  u.target_path = std::move(path);
  u.name = std::move(name);
  return u;
}

UpdateStmt UpdateStmt::InsertForest(std::string path, std::string xml_forest,
                                    std::string name) {
  UpdateStmt u;
  u.kind = Kind::kInsert;
  u.target_path = std::move(path);
  u.name = std::move(name);
  u.forest = std::make_shared<Document>();
  Status st = ParseForest(xml_forest, u.forest.get());
  XVM_CHECK(st.ok());  // constant forests are authored by the caller
  return u;
}

UpdateStmt UpdateStmt::InsertQuery(std::string source_path,
                                   std::string target_path, std::string name) {
  UpdateStmt u;
  u.kind = Kind::kInsert;
  u.target_path = std::move(target_path);
  u.source_path = std::move(source_path);
  u.name = std::move(name);
  return u;
}

UpdateStmt UpdateStmt::ReplaceContent(std::string path, std::string xml_forest,
                                      std::string name) {
  UpdateStmt u;
  u.kind = Kind::kReplace;
  u.target_path = std::move(path);
  u.name = std::move(name);
  u.forest = std::make_shared<Document>();
  Status st = ParseForest(xml_forest, u.forest.get());
  XVM_CHECK(st.ok());  // constant forests are authored by the caller
  return u;
}

StatusOr<Pul> ComputePul(const Document& doc, const UpdateStmt& stmt,
                         PhaseTimer* timer) {
  WallTimer watch;
  XVM_ASSIGN_OR_RETURN(std::vector<NodeHandle> targets,
                       EvalXPathString(doc, stmt.target_path));
  Pul pul;
  if (stmt.kind == UpdateStmt::Kind::kDelete) {
    pul.deletes.reserve(targets.size());
    for (NodeHandle t : targets) pul.deletes.push_back(PulDeleteOp{t});
  } else {
    if (stmt.kind == UpdateStmt::Kind::kReplace) {
      // The delete half of a replace: every existing child subtree of each
      // target. ApplyPul runs deletions first, so the targets themselves
      // stay alive for the insert half below.
      for (NodeHandle t : targets) {
        for (NodeHandle c : doc.Children(t)) {
          pul.deletes.push_back(PulDeleteOp{c});
        }
      }
    }
    std::vector<std::pair<const Document*, NodeHandle>> sources;
    if (stmt.forest != nullptr) {
      for (NodeHandle tree = stmt.forest->node(stmt.forest->root()).first_child;
           tree != kNullNode; tree = stmt.forest->node(tree).next_sibling) {
        sources.emplace_back(stmt.forest.get(), tree);
      }
    } else {
      XVM_ASSIGN_OR_RETURN(std::vector<NodeHandle> src_nodes,
                           EvalXPathString(doc, stmt.source_path));
      for (NodeHandle s : src_nodes) sources.emplace_back(&doc, s);
    }
    pul.inserts.reserve(targets.size() * sources.size());
    for (NodeHandle t : targets) {
      for (const auto& [src_doc, src_root] : sources) {
        pul.inserts.push_back(PulInsertOp{t, src_doc, src_root, stmt.forest});
      }
    }
  }
  if (timer != nullptr) timer->Add(phase::kFindTargets, watch.ElapsedMs());
  return pul;
}

ApplyResult ApplyPul(Document* doc, const Pul& pul, StoreIndex* store) {
  ApplyResult result;

  // Deletions first collect roots that are still alive and not nested under
  // an earlier-deleted root, so every node is removed exactly once.
  for (const auto& del : pul.deletes) {
    if (!doc->IsAlive(del.target)) continue;
    result.deleted_roots.push_back(del.target);
    std::vector<NodeHandle> removed = doc->DeleteSubtree(del.target);
    result.deleted_nodes.insert(result.deleted_nodes.end(), removed.begin(),
                                removed.end());
  }

  for (const auto& ins : pul.inserts) {
    if (!doc->IsAlive(ins.target)) continue;  // target deleted by this PUL
    result.insert_target_ids.push_back(doc->node(ins.target).id);
    NodeHandle copy =
        doc->CopySubtreeAsChild(ins.target, *ins.src_doc, ins.src_root);
    result.inserted_roots.push_back(copy);
    std::vector<NodeHandle> added = doc->SubtreeNodes(copy);
    result.inserted_nodes.insert(result.inserted_nodes.end(), added.begin(),
                                 added.end());
  }

  // De-duplicate target IDs (several trees may go under one target).
  std::sort(result.insert_target_ids.begin(), result.insert_target_ids.end());
  result.insert_target_ids.erase(
      std::unique(result.insert_target_ids.begin(),
                  result.insert_target_ids.end()),
      result.insert_target_ids.end());

  if (store != nullptr) {
    store->OnNodesRemoved(result.deleted_nodes);
    store->OnNodesAdded(result.inserted_nodes);
    InvalidateStoreValCont(store, result);
  }
  return result;
}

void InvalidateStoreValCont(StoreIndex* store, const ApplyResult& applied) {
  if (store == nullptr) return;
  ValContCache& cache = store->cache();
  // Deleted nodes can never serve cached payloads again (handles are not
  // reused), but their entries still count against the byte budget.
  for (NodeHandle h : applied.deleted_nodes) cache.Erase(h);
  // Freshly inserted nodes have fresh handles, so they cannot alias stale
  // entries; only the anchors' ancestor chains hold embedding payloads. A
  // walk stops at a node an earlier walk erased, with all its ancestors.
  const Document& doc = store->doc();
  std::unordered_set<NodeHandle> erased;
  for (const auto* roots : {&applied.inserted_roots, &applied.deleted_roots}) {
    for (NodeHandle root : *roots) {
      for (NodeHandle h = doc.node(root).parent;
           h != kNullNode && erased.insert(h).second; h = doc.node(h).parent) {
        cache.Erase(h);
      }
    }
  }
}

}  // namespace xvm
