#include "store/canonical.h"

#include <algorithm>

#include "common/gallop.h"
#include "common/status.h"

namespace xvm {

const CanonicalRelation StoreIndex::kEmpty;

size_t CanonicalRelation::Find(const Document& doc, const DeweyId& id,
                               size_t depth, size_t* cursor) const {
  auto cmp = [&](size_t i) {
    const DeweyId& x = doc.node(nodes_[i]).id;
    return DeweyId::ComparePrefixes(x, x.depth(), id, depth);
  };
  *cursor =
      Gallop(*cursor, nodes_.size(), [&](size_t i) { return cmp(i) < 0; });
  return *cursor < nodes_.size() && cmp(*cursor) == 0 ? *cursor
                                                      : nodes_.size();
}

std::pair<size_t, size_t> CanonicalRelation::DescendantRange(
    const Document& doc, const DeweyId& id, size_t from) const {
  const size_t first = Gallop(from, nodes_.size(), [&](size_t i) {
    return doc.node(nodes_[i]).id <= id;
  });
  // Past `id`, a descendant shares its first depth() steps; the first node
  // that does not ends the subtree.
  const size_t last = Gallop(first, nodes_.size(), [&](size_t i) {
    return DeweyId::ComparePrefixes(doc.node(nodes_[i]).id, id.depth(), id,
                                    id.depth()) == 0;
  });
  return {first, last};
}

void StoreIndex::Build() {
  relations_.clear();
  // A rebuild means the document may be in an arbitrary new state; nothing
  // cached before it can be trusted.
  cache_.Clear();
  // AllNodes() is already in document order, so plain appends keep each
  // relation sorted.
  for (NodeHandle h : doc_->AllNodes()) {
    relations_[doc_->node(h).label].nodes_.push_back(h);
  }
}

void StoreIndex::OnNodesAdded(const std::vector<NodeHandle>& added,
                              bool allow_dead) {
  for (NodeHandle h : added) {
    const Node& n = doc_->node(h);
    XVM_CHECK(n.alive || allow_dead);
    auto& vec = relations_[n.label].nodes_;
    auto it = std::upper_bound(vec.begin(), vec.end(), h,
                               [this](NodeHandle a, NodeHandle b) {
                                 return doc_->node(a).id < doc_->node(b).id;
                               });
    vec.insert(it, h);
  }
}

void StoreIndex::OnNodesRemoved(const std::vector<NodeHandle>& removed) {
  for (NodeHandle h : removed) {
    cache_.Erase(h);
    auto it = relations_.find(doc_->node(h).label);
    if (it == relations_.end()) continue;
    auto& vec = it->second.nodes_;
    auto pos = std::find(vec.begin(), vec.end(), h);
    if (pos != vec.end()) vec.erase(pos);
  }
}

std::string StoreIndex::Val(NodeHandle h) const {
  if (!cache_.enabled() || !doc_->IsAlive(h)) return doc_->StringValue(h);
  std::string out;
  if (cache_.Lookup(h, ValContCache::Kind::kVal, &out)) return out;
  out = doc_->StringValue(h);
  cache_.Insert(h, ValContCache::Kind::kVal, out);
  return out;
}

std::string StoreIndex::Cont(NodeHandle h) const {
  if (!cache_.enabled() || !doc_->IsAlive(h)) return doc_->Content(h);
  std::string out;
  if (cache_.Lookup(h, ValContCache::Kind::kCont, &out)) return out;
  out = doc_->Content(h);
  cache_.Insert(h, ValContCache::Kind::kCont, out);
  return out;
}

const CanonicalRelation& StoreIndex::Relation(LabelId label) const {
  auto it = relations_.find(label);
  return it == relations_.end() ? kEmpty : it->second;
}

NodeHandle StoreIndex::FindById(const DeweyId& id) const {
  if (id.empty()) return kNullNode;
  const std::vector<NodeHandle>& nodes = Relation(id.label()).nodes_;
  auto it = std::lower_bound(nodes.begin(), nodes.end(), id,
                             [this](NodeHandle h, const DeweyId& x) {
                               return doc_->node(h).id < x;
                             });
  if (it == nodes.end() || doc_->node(*it).id != id) return kNullNode;
  return doc_->IsAlive(*it) ? *it : kNullNode;
}

}  // namespace xvm
