#include "pul/pul.h"

#include <algorithm>

#include "xml/parser.h"

namespace xvm {

AtomicOp AtomicOp::Del(DeweyId target) {
  AtomicOp op;
  op.kind = Kind::kDelete;
  op.target = std::move(target);
  return op;
}

AtomicOp AtomicOp::InsInto(DeweyId target, std::shared_ptr<Document> forest) {
  AtomicOp op;
  op.kind = Kind::kInsertInto;
  op.target = std::move(target);
  op.payload = std::move(forest);
  return op;
}

OpSequence PulToAtomicOps(const Document& doc, const Pul& pul) {
  OpSequence ops;
  for (const auto& del : pul.deletes) {
    if (!doc.IsAlive(del.target)) continue;
    ops.push_back(AtomicOp::Del(doc.node(del.target).id));
  }
  for (const auto& ins : pul.inserts) {
    if (!doc.IsAlive(ins.target)) continue;
    auto forest = std::make_shared<Document>(doc.dict_ptr());
    NodeHandle froot = forest->CreateRoot(kForestRootLabel);
    forest->CopySubtreeAsChild(froot, *ins.src_doc, ins.src_root);
    ops.push_back(
        AtomicOp::InsInto(doc.node(ins.target).id, std::move(forest)));
  }
  return ops;
}

namespace {

/// Appends all payload trees of `src` into `dst`'s payload forest.
void MergePayloadInto(const AtomicOp& src, AtomicOp* dst) {
  XVM_CHECK(src.payload != nullptr && dst->payload != nullptr);
  const Document& sdoc = *src.payload;
  for (NodeHandle t = sdoc.node(sdoc.root()).first_child; t != kNullNode;
       t = sdoc.node(t).next_sibling) {
    dst->payload->CopySubtreeAsChild(dst->payload->root(), sdoc, t);
  }
}

}  // namespace

OpSequence ReduceOps(const OpSequence& ops, ReduceStats* stats) {
  const size_t n = ops.size();
  std::vector<bool> drop(n, false);

  // Stage 1: O1 / O3 — an op is useless if a *later* delete targets the same
  // node (O1) or an ancestor of it (O3). Payload-ref ops are kept out of
  // this reasoning (their effective target is not a document node).
  for (size_t i = 0; i < n; ++i) {
    if (ops[i].payload_ref.has_value()) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (ops[j].kind != AtomicOp::Kind::kDelete ||
          ops[j].payload_ref.has_value()) {
        continue;
      }
      if (ops[j].target == ops[i].target) {
        drop[i] = true;
        if (stats != nullptr) ++stats->o1_removed;
        break;
      }
      if (ops[j].target.IsAncestorOf(ops[i].target)) {
        drop[i] = true;
        if (stats != nullptr) ++stats->o3_removed;
        break;
      }
    }
  }

  // Stage 1: I5 — combine insertions on the same target into the first one,
  // concatenating payload forests in order. Payloads are copy-on-merge: an
  // op that never absorbs another keeps sharing the caller's forest.
  OpSequence out;
  std::vector<int> insert_index_by_target;  // parallel: out index of insert
  std::vector<DeweyId> insert_targets;
  std::vector<bool> owns_payload;           // parallel to `out`
  for (size_t i = 0; i < n; ++i) {
    if (drop[i]) continue;
    const AtomicOp& op = ops[i];
    if (op.kind == AtomicOp::Kind::kInsertInto && !op.payload_ref.has_value()) {
      int found = -1;
      for (size_t k = 0; k < insert_targets.size(); ++k) {
        if (insert_targets[k] == op.target) {
          found = insert_index_by_target[k];
          break;
        }
      }
      if (found >= 0) {
        AtomicOp& sink = out[static_cast<size_t>(found)];
        if (!owns_payload[static_cast<size_t>(found)]) {
          // First merge into this op: clone so the input stays untouched.
          auto forest = std::make_shared<Document>(sink.payload->dict_ptr());
          NodeHandle froot = forest->CreateRoot(kForestRootLabel);
          const Document& src = *sink.payload;
          for (NodeHandle t = src.node(src.root()).first_child;
               t != kNullNode; t = src.node(t).next_sibling) {
            forest->CopySubtreeAsChild(froot, src, t);
          }
          sink.payload = std::move(forest);
          owns_payload[static_cast<size_t>(found)] = true;
        }
        MergePayloadInto(op, &sink);
        if (stats != nullptr) ++stats->i5_merged;
        continue;
      }
      insert_targets.push_back(op.target);
      insert_index_by_target.push_back(static_cast<int>(out.size()));
      out.push_back(op);
      owns_payload.push_back(false);
      continue;
    }
    out.push_back(op);
    owns_payload.push_back(false);
  }
  return out;
}

std::vector<Conflict> DetectConflicts(const OpSequence& a,
                                      const OpSequence& b) {
  std::vector<Conflict> conflicts;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      const AtomicOp& op1 = a[i];
      const AtomicOp& op2 = b[j];
      if (op1.payload_ref.has_value() || op2.payload_ref.has_value()) continue;
      // IO: two insertions on the same target — result depends on order.
      if (op1.kind == AtomicOp::Kind::kInsertInto &&
          op2.kind == AtomicOp::Kind::kInsertInto &&
          op1.target == op2.target) {
        conflicts.push_back({Conflict::Rule::kIO, i, j});
        continue;
      }
      // LO: delete in one PUL, insert on the same node in the other.
      if (op1.kind == AtomicOp::Kind::kDelete &&
          op2.kind == AtomicOp::Kind::kInsertInto &&
          op1.target == op2.target) {
        conflicts.push_back({Conflict::Rule::kLO, i, j});
        continue;
      }
      // NLO: delete of an ancestor of the other PUL's insertion target.
      if (op1.kind == AtomicOp::Kind::kDelete &&
          op2.kind == AtomicOp::Kind::kInsertInto &&
          op1.target.IsAncestorOf(op2.target)) {
        conflicts.push_back({Conflict::Rule::kNLO, i, j});
        continue;
      }
    }
  }
  return conflicts;
}

StatusOr<OpSequence> IntegrateParallel(const OpSequence& a,
                                       const OpSequence& b) {
  std::vector<Conflict> conflicts = DetectConflicts(a, b);
  if (!conflicts.empty()) {
    return Status::FailedPrecondition(
        "cannot integrate: " + std::to_string(conflicts.size()) +
        " conflict(s) between the PULs; a resolution policy is required");
  }
  OpSequence merged = a;
  merged.insert(merged.end(), b.begin(), b.end());
  return merged;
}

namespace {

/// Resolves a payload-ref path inside `forest`; kNullNode if out of range.
NodeHandle ResolvePayloadPath(const Document& forest, int tree_index,
                              const std::vector<int>& child_steps) {
  NodeHandle cur = forest.node(forest.root()).first_child;
  for (int i = 0; i < tree_index && cur != kNullNode; ++i) {
    cur = forest.node(cur).next_sibling;
  }
  for (int step : child_steps) {
    if (cur == kNullNode) return kNullNode;
    NodeHandle c = forest.node(cur).first_child;
    for (int i = 0; i < step && c != kNullNode; ++i) {
      c = forest.node(c).next_sibling;
    }
    cur = c;
  }
  return cur;
}

}  // namespace

OpSequence AggregateSequential(const OpSequence& a, const OpSequence& b,
                               AggregateStats* stats) {
  OpSequence out = a;
  // Index of inserts in `out` by target for A1.
  for (const AtomicOp& op2 : b) {
    // D6: op2 targets a node inside an op of the first PUL's payload.
    if (op2.payload_ref.has_value() &&
        op2.kind == AtomicOp::Kind::kInsertInto) {
      const PayloadRef& ref = *op2.payload_ref;
      if (ref.producer_op >= 0 &&
          static_cast<size_t>(ref.producer_op) < out.size() &&
          out[static_cast<size_t>(ref.producer_op)].payload != nullptr) {
        AtomicOp& producer = out[static_cast<size_t>(ref.producer_op)];
        NodeHandle anchor = ResolvePayloadPath(*producer.payload,
                                               ref.tree_index,
                                               ref.child_steps);
        if (anchor != kNullNode) {
          const Document& p2 = *op2.payload;
          for (NodeHandle t = p2.node(p2.root()).first_child; t != kNullNode;
               t = p2.node(t).next_sibling) {
            producer.payload->CopySubtreeAsChild(anchor, p2, t);
          }
          if (stats != nullptr) ++stats->d6_applied;
          continue;
        }
      }
    }
    // A1/A2: merge same-target inserts.
    if (op2.kind == AtomicOp::Kind::kInsertInto &&
        !op2.payload_ref.has_value()) {
      bool merged = false;
      for (AtomicOp& op1 : out) {
        if (op1.kind == AtomicOp::Kind::kInsertInto &&
            !op1.payload_ref.has_value() && op1.target == op2.target) {
          MergePayloadInto(op2, &op1);
          if (stats != nullptr) ++stats->a1_merged;
          merged = true;
          break;
        }
      }
      if (merged) continue;
    }
    out.push_back(op2);
  }
  return out;
}

ApplyResult ApplyAtomicOps(Document* doc, const OpSequence& ops,
                           const StoreIndex& store) {
  XVM_CHECK(&store.doc() == doc);
  ApplyResult result;
  // Roots inserted per op, for payload-ref resolution of unoptimized runs.
  std::vector<std::vector<NodeHandle>> roots_by_op(ops.size());

  for (size_t i = 0; i < ops.size(); ++i) {
    const AtomicOp& op = ops[i];
    NodeHandle target = kNullNode;
    if (op.payload_ref.has_value()) {
      const PayloadRef& ref = *op.payload_ref;
      if (ref.producer_op >= 0 &&
          static_cast<size_t>(ref.producer_op) < roots_by_op.size()) {
        const auto& roots = roots_by_op[static_cast<size_t>(ref.producer_op)];
        if (static_cast<size_t>(ref.tree_index) < roots.size()) {
          NodeHandle cur = roots[static_cast<size_t>(ref.tree_index)];
          for (int step : ref.child_steps) {
            NodeHandle c = doc->node(cur).first_child;
            for (int k = 0; k < step && c != kNullNode; ++k) {
              c = doc->node(c).next_sibling;
            }
            cur = c;
            if (cur == kNullNode) break;
          }
          target = cur;
        }
      }
    } else {
      // Nodes the sequence inserts get IDs only here; ops reach them by
      // payload_ref, so every ID target is in the pre-sequence relations.
      target = store.FindById(op.target);
    }
    if (target == kNullNode || !doc->IsAlive(target)) continue;

    if (op.kind == AtomicOp::Kind::kDelete) {
      result.deleted_roots.push_back(target);
      std::vector<NodeHandle> removed = doc->DeleteSubtree(target);
      result.deleted_nodes.insert(result.deleted_nodes.end(), removed.begin(),
                                  removed.end());
    } else {
      result.insert_target_ids.push_back(doc->node(target).id);
      const Document& p = *op.payload;
      for (NodeHandle t = p.node(p.root()).first_child; t != kNullNode;
           t = p.node(t).next_sibling) {
        NodeHandle copy = doc->CopySubtreeAsChild(target, p, t);
        roots_by_op[i].push_back(copy);
        result.inserted_roots.push_back(copy);
        std::vector<NodeHandle> added = doc->SubtreeNodes(copy);
        result.inserted_nodes.insert(result.inserted_nodes.end(),
                                     added.begin(), added.end());
      }
    }
  }
  std::sort(result.insert_target_ids.begin(), result.insert_target_ids.end());
  result.insert_target_ids.erase(
      std::unique(result.insert_target_ids.begin(),
                  result.insert_target_ids.end()),
      result.insert_target_ids.end());
  return result;
}

}  // namespace xvm
