#include "baseline/ivma.h"

#include <algorithm>
#include <optional>

#include "pattern/compile.h"

namespace xvm {

IvmaView::IvmaView(ViewDefinition def, StoreIndex* store)
    : def_(std::move(def)), store_(store), view_(def_.tuple_schema()) {}

void IvmaView::Initialize() {
  const TreePattern& pat = def_.pattern();
  view_.Reset(EvalViewWithCounts(pat, StoreLeafSource(store_, &pat)));
}

bool IvmaView::NodeMatches(const Document& doc, int p, NodeHandle d) const {
  const PatternNode& pn = def_.pattern().node(p);
  const Node& dn = doc.node(d);
  if (doc.dict().Name(dn.label) != pn.label) return false;
  if (p == 0 && pn.edge == EdgeKind::kChild && dn.id.depth() != 1) {
    return false;  // '/'-anchored pattern root
  }
  if (pn.val_pred.has_value() && doc.StringValue(d) != *pn.val_pred) {
    return false;
  }
  return true;
}

namespace {

/// One pending match task: bind pattern node `pnode` somewhere under the
/// already-bound document node `anchor`.
struct MatchTask {
  int pnode;
  NodeHandle anchor;
};

}  // namespace

void IvmaView::EnumerateEmbeddingsFixing(
    const Document& doc, int x, NodeHandle n,
    const std::function<void(const std::vector<NodeHandle>&)>& fn) const {
  const TreePattern& pat = def_.pattern();

  // Path from the pattern root down to x.
  std::vector<int> path;
  for (int cur = x; cur != -1; cur = pat.node(cur).parent) path.push_back(cur);
  std::reverse(path.begin(), path.end());

  std::vector<NodeHandle> bindings(pat.size(), kNullNode);

  // Nested-loop matcher for a list of (pattern node under doc anchor) tasks;
  // a match for a task spawns tasks for the pattern node's own children.
  std::function<void(std::vector<MatchTask>, size_t)> match_list =
      [&](std::vector<MatchTask> todo, size_t idx) {
        if (idx == todo.size()) {
          fn(bindings);
          return;
        }
        const MatchTask task = todo[idx];
        const PatternNode& pn = pat.node(task.pnode);
        std::vector<NodeHandle> candidates;
        if (pn.edge == EdgeKind::kChild) {
          for (NodeHandle c = doc.node(task.anchor).first_child;
               c != kNullNode; c = doc.node(c).next_sibling) {
            if (NodeMatches(doc, task.pnode, c)) candidates.push_back(c);
          }
        } else {
          for (NodeHandle d : doc.SubtreeNodes(task.anchor)) {
            if (d != task.anchor && NodeMatches(doc, task.pnode, d)) {
              candidates.push_back(d);
            }
          }
        }
        for (NodeHandle cand : candidates) {
          bindings[static_cast<size_t>(task.pnode)] = cand;
          std::vector<MatchTask> extended = todo;
          for (int child : pn.children) {
            extended.push_back(MatchTask{child, cand});
          }
          match_list(extended, idx + 1);
        }
        bindings[static_cast<size_t>(task.pnode)] = kNullNode;
      };

  // Bind path[0..k] *top-down from the document root*, as a node-at-a-time
  // maintenance algorithm without structural-ID shortcuts must: the
  // root-to-x path is a path query evaluated navigationally against the
  // whole document, and only chains ending at n survive (Sawires et al.'s
  // per-node compensation queries). This per-call full path evaluation is
  // exactly the cost the paper's bulk algebraic approach amortizes away.
  std::function<void(size_t)> bind_chain = [&](size_t i) {
    // path[0..i-1] already bound; bind path[i].
    const int pnode = path[i];
    std::vector<NodeHandle> candidates;
    if (i == 0) {
      const PatternNode& pn = pat.node(pnode);
      if (pn.edge == EdgeKind::kChild) {
        if (doc.root() != kNullNode && NodeMatches(doc, pnode, doc.root())) {
          candidates.push_back(doc.root());
        }
      } else if (doc.root() != kNullNode) {
        for (NodeHandle d : doc.SubtreeNodes(doc.root())) {
          if (NodeMatches(doc, pnode, d)) candidates.push_back(d);
        }
      }
    } else {
      NodeHandle above = bindings[static_cast<size_t>(path[i - 1])];
      const PatternNode& pn = pat.node(pnode);
      if (pn.edge == EdgeKind::kChild) {
        for (NodeHandle c = doc.node(above).first_child; c != kNullNode;
             c = doc.node(c).next_sibling) {
          if (NodeMatches(doc, pnode, c)) candidates.push_back(c);
        }
      } else {
        for (NodeHandle d : doc.SubtreeNodes(above)) {
          if (d != above && NodeMatches(doc, pnode, d)) {
            candidates.push_back(d);
          }
        }
      }
    }
    for (NodeHandle cand : candidates) {
      if (i == path.size() - 1) {
        // The chain must end exactly at n.
        if (cand != n) continue;
        bindings[static_cast<size_t>(pnode)] = cand;
        // Chain complete: expand side branches of every chain node.
        std::vector<MatchTask> todo;
        for (size_t j = 0; j < path.size(); ++j) {
          const PatternNode& pn = pat.node(path[j]);
          int chain_child = j + 1 < path.size() ? path[j + 1] : -1;
          for (int child : pn.children) {
            if (child == chain_child) continue;
            todo.push_back(
                MatchTask{child, bindings[static_cast<size_t>(path[j])]});
          }
        }
        match_list(todo, 0);
        bindings[static_cast<size_t>(pnode)] = kNullNode;
        continue;
      }
      bindings[static_cast<size_t>(pnode)] = cand;
      bind_chain(i + 1);
      bindings[static_cast<size_t>(pnode)] = kNullNode;
    }
  };

  bind_chain(0);
}

Tuple IvmaView::ProjectEmbedding(
    const Document& doc, const std::vector<NodeHandle>& bindings) const {
  const TreePattern& pat = def_.pattern();
  Tuple t;
  for (size_t i = 0; i < pat.size(); ++i) {
    const PatternNode& n = pat.node(static_cast<int>(i));
    NodeHandle b = bindings[i];
    if (n.store_id) t.emplace_back(doc.node(b).id);
    if (n.store_val) t.emplace_back(doc.StringValue(b));
    if (n.store_cont) t.emplace_back(doc.Content(b));
  }
  return t;
}

void IvmaView::PropagateInsertedNode(
    const Document& doc, NodeHandle n,
    const std::unordered_set<std::string>& pending) {
  ++propagation_calls_;
  const TreePattern& pat = def_.pattern();
  for (size_t x = 0; x < pat.size(); ++x) {
    if (!NodeMatches(doc, static_cast<int>(x), n)) continue;
    EnumerateEmbeddingsFixing(
        doc, static_cast<int>(x), n,
        [&](const std::vector<NodeHandle>& bindings) {
          // Attribute the embedding to n's first pattern position.
          for (size_t y = 0; y < x; ++y) {
            if (bindings[y] == n) return;
          }
          // Defer embeddings that touch not-yet-propagated new nodes.
          for (size_t y = 0; y < bindings.size(); ++y) {
            if (y == x) continue;
            if (pending.contains(doc.node(bindings[y]).id.Encode())) return;
          }
          view_.AddDerivations(ProjectEmbedding(doc, bindings), 1);
        });
  }
}

void IvmaView::PropagateDeletedNode(
    const Document& doc, NodeHandle n,
    const std::unordered_set<std::string>& processed) {
  ++propagation_calls_;
  const TreePattern& pat = def_.pattern();
  for (size_t x = 0; x < pat.size(); ++x) {
    if (!NodeMatches(doc, static_cast<int>(x), n)) continue;
    EnumerateEmbeddingsFixing(
        doc, static_cast<int>(x), n,
        [&](const std::vector<NodeHandle>& bindings) {
          for (size_t y = 0; y < x; ++y) {
            if (bindings[y] == n) return;
          }
          for (size_t y = 0; y < bindings.size(); ++y) {
            if (y == x) continue;
            if (processed.contains(doc.node(bindings[y]).id.Encode())) return;
          }
          view_.RemoveDerivations(
              view_.IdsOf(ProjectEmbedding(doc, bindings)), 1);
        });
  }
}

template <typename Affected>
void IvmaView::RefreshAllTuples(const Document& doc, const Affected& affected) {
  // Column offsets of every pattern node in the stored tuple, once per call.
  const TreePattern& pat = def_.pattern();
  std::vector<NodeLayout> layout(pat.size());
  int col = 0;
  for (size_t i = 0; i < pat.size(); ++i) {
    const PatternNode& n = pat.node(static_cast<int>(i));
    if (n.store_id) layout[i].id_col = col++;
    if (n.store_val) layout[i].val_col = col++;
    if (n.store_cont) layout[i].cont_col = col++;
  }
  std::vector<std::pair<size_t, Tuple>> changed;
  size_t pos = 0;
  for (const CountedTuple& ct : view_.content()) {
    std::optional<Tuple> out;
    for (int node : def_.cvn()) {
      const NodeLayout& l = layout[static_cast<size_t>(node)];
      const DeweyId& id = ct.tuple[static_cast<size_t>(l.id_col)].id();
      if (!affected(id)) continue;
      // ApplyPul has rolled the relations forward, so they match `doc`.
      NodeHandle h = store_->FindById(id);
      if (h == kNullNode) continue;
      if (!out.has_value()) out = ct.tuple;
      if (l.val_col >= 0) {
        (*out)[static_cast<size_t>(l.val_col)] = Value(doc.StringValue(h));
      }
      if (l.cont_col >= 0) {
        (*out)[static_cast<size_t>(l.cont_col)] = Value(doc.Content(h));
      }
    }
    if (out.has_value()) changed.emplace_back(pos, std::move(*out));
    ++pos;
  }
  view_.ReplaceEntries(std::move(changed));
}

StatusOr<UpdateOutcome> IvmaView::ApplyAndPropagate(Document* doc,
                                                    const UpdateStmt& stmt) {
  UpdateOutcome out;
  XVM_ASSIGN_OR_RETURN(Pul pul, ComputePul(*doc, stmt, &out.timing));

  if (stmt.kind == UpdateStmt::Kind::kDelete) {
    // Node-at-a-time deletion propagation runs against the intact document.
    std::vector<NodeHandle> roots;
    for (const auto& del : pul.deletes) {
      if (doc->IsAlive(del.target)) roots.push_back(del.target);
    }
    std::sort(roots.begin(), roots.end(), [&](NodeHandle a, NodeHandle b) {
      return doc->node(a).id < doc->node(b).id;
    });
    std::vector<NodeHandle> doomed;
    std::vector<DeweyId> root_ids;
    for (NodeHandle r : roots) {
      if (!root_ids.empty() && root_ids.back().IsAncestorOrSelf(doc->node(r).id)) {
        continue;
      }
      root_ids.push_back(doc->node(r).id);
      for (NodeHandle h : doc->SubtreeNodes(r)) doomed.push_back(h);
    }
    {
      ScopedPhase phase(&out.timing, phase::kExecuteUpdate);
      std::unordered_set<std::string> processed;
      for (NodeHandle n : doomed) {
        PropagateDeletedNode(*doc, n, processed);
        processed.insert(doc->node(n).id.Encode());
      }
    }
    ApplyResult applied = ApplyPul(doc, pul, store_);
    out.nodes_deleted = applied.deleted_nodes.size();
    // Tuple-modification pass (PDMT equivalent) for surviving cvn nodes.
    {
      ScopedPhase phase(&out.timing, phase::kExecuteUpdate);
      std::vector<DeweyId> sorted_roots = root_ids;
      std::sort(sorted_roots.begin(), sorted_roots.end());
      RefreshAllTuples(*doc, [&](const DeweyId& id) {
        auto it =
            std::upper_bound(sorted_roots.begin(), sorted_roots.end(), id);
        return it != sorted_roots.end() && id.IsAncestorOf(*it);
      });
    }
    return out;
  }

  // Insertion: apply first (new nodes must be navigable), then one
  // propagation call per inserted node.
  ApplyResult applied = ApplyPul(doc, pul, store_);
  out.nodes_inserted = applied.inserted_nodes.size();
  {
    ScopedPhase phase(&out.timing, phase::kExecuteUpdate);
    std::unordered_set<std::string> pending;
    for (NodeHandle n : applied.inserted_nodes) {
      pending.insert(doc->node(n).id.Encode());
    }
    for (NodeHandle n : applied.inserted_nodes) {
      pending.erase(doc->node(n).id.Encode());
      PropagateInsertedNode(*doc, n, pending);
    }
    // PIMT-equivalent refresh for cvn nodes above the insertion targets.
    const std::vector<DeweyId>& anchors = applied.insert_target_ids;
    if (!def_.cvn().empty() && !anchors.empty()) {
      RefreshAllTuples(*doc, [&](const DeweyId& id) {
        auto it = std::lower_bound(anchors.begin(), anchors.end(), id);
        return it != anchors.end() && id.IsAncestorOrSelf(*it);
      });
    }
  }
  return out;
}

}  // namespace xvm
