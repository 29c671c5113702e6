#include "xml/document.h"

#include <algorithm>
#include <functional>

#include "common/status.h"
#include "common/strings.h"
#include "xml/serializer.h"

namespace xvm {

Document::Document(std::shared_ptr<LabelDict> dict)
    : dict_(dict ? std::move(dict) : std::make_shared<LabelDict>()) {}

NodeHandle Document::NewNode(NodeKind kind, LabelId label,
                             std::string_view text) {
  NodeHandle h = static_cast<NodeHandle>(nodes_.size());
  Node n;
  n.kind = kind;
  n.label = label;
  n.text = std::string(text);
  nodes_.push_back(std::move(n));
  ++num_alive_;
  // Rough serialized footprint: tags or text plus delimiters.
  approx_bytes_ += text.size() + (kind == NodeKind::kElement
                                      ? 2 * dict_->Name(label).size() + 5
                                      : 4);
  return h;
}

OrdKey Document::NextChildOrd(NodeHandle parent) const {
  const Node& p = nodes_[parent];
  if (p.last_child == kNullNode) return OrdKey::First();
  return OrdKey::After(nodes_[p.last_child].id.steps().back().ord);
}

void Document::LinkAsLastChild(NodeHandle parent, NodeHandle child) {
  Node& p = nodes_[parent];
  Node& c = nodes_[child];
  c.parent = parent;
  c.prev_sibling = p.last_child;
  if (p.last_child != kNullNode) nodes_[p.last_child].next_sibling = child;
  p.last_child = child;
  if (p.first_child == kNullNode) p.first_child = child;
}

namespace {

uint64_t AttrKey(LabelId label, std::string_view value) {
  return std::hash<std::string_view>{}(value) * 0x9E3779B97F4A7C15ULL ^ label;
}

}  // namespace

void Document::IndexAttribute(NodeHandle h) {
  const Node& n = nodes_[h];
  if (n.kind == NodeKind::kAttribute) {
    attr_index_.emplace(AttrKey(n.label, n.text), h);
  }
}

void Document::UnindexAttribute(NodeHandle h) {
  const Node& n = nodes_[h];
  if (n.kind != NodeKind::kAttribute) return;
  auto [it, end] = attr_index_.equal_range(AttrKey(n.label, n.text));
  for (; it != end; ++it) {
    if (it->second == h) {
      attr_index_.erase(it);
      return;
    }
  }
}

void Document::FindAttributes(LabelId label, std::string_view value,
                              std::vector<NodeHandle>* out) const {
  auto [it, end] = attr_index_.equal_range(AttrKey(label, value));
  for (; it != end; ++it) {
    const Node& n = nodes_[it->second];
    if (n.label == label && n.text == value) out->push_back(it->second);
  }
}

NodeHandle Document::CreateRoot(std::string_view label) {
  XVM_CHECK(root_ == kNullNode);
  NodeHandle h = NewNode(NodeKind::kElement, dict_->Intern(label), "");
  nodes_[h].id = DeweyId::Root(nodes_[h].label);
  root_ = h;
  return h;
}

NodeHandle Document::AppendElement(NodeHandle parent, std::string_view label) {
  XVM_CHECK(IsAlive(parent));
  NodeHandle h = NewNode(NodeKind::kElement, dict_->Intern(label), "");
  nodes_[h].id = nodes_[parent].id.Child(nodes_[h].label,
                                         NextChildOrd(parent));
  LinkAsLastChild(parent, h);
  return h;
}

NodeHandle Document::AppendText(NodeHandle parent, std::string_view text) {
  XVM_CHECK(IsAlive(parent));
  NodeHandle h = NewNode(NodeKind::kText, dict_->text_label(), text);
  nodes_[h].id = nodes_[parent].id.Child(nodes_[h].label,
                                         NextChildOrd(parent));
  LinkAsLastChild(parent, h);
  return h;
}

NodeHandle Document::AppendAttribute(NodeHandle parent, std::string_view name,
                                     std::string_view value) {
  XVM_CHECK(IsAlive(parent));
  std::string attr_label = "@" + std::string(name);
  NodeHandle h = NewNode(NodeKind::kAttribute, dict_->Intern(attr_label),
                         value);
  nodes_[h].id = nodes_[parent].id.Child(nodes_[h].label,
                                         NextChildOrd(parent));
  LinkAsLastChild(parent, h);
  IndexAttribute(h);
  return h;
}

NodeHandle Document::InsertElementAfter(NodeHandle after,
                                        std::string_view label) {
  XVM_CHECK(IsAlive(after));
  const Node& a = nodes_[after];
  XVM_CHECK(a.parent != kNullNode);
  NodeHandle parent = a.parent;
  const OrdKey& a_ord = a.id.steps().back().ord;
  OrdKey ord =
      a.next_sibling == kNullNode
          ? OrdKey::After(a_ord)
          : OrdKey::Between(a_ord,
                            nodes_[a.next_sibling].id.steps().back().ord);

  NodeHandle h = NewNode(NodeKind::kElement, dict_->Intern(label), "");
  nodes_[h].id = nodes_[parent].id.Child(nodes_[h].label, std::move(ord));
  // Splice between `after` and its next sibling.
  Node& an = nodes_[after];
  NodeHandle next = an.next_sibling;
  nodes_[h].parent = parent;
  nodes_[h].prev_sibling = after;
  nodes_[h].next_sibling = next;
  an.next_sibling = h;
  if (next != kNullNode) {
    nodes_[next].prev_sibling = h;
  } else {
    nodes_[parent].last_child = h;
  }
  return h;
}

NodeHandle Document::InsertElementBefore(NodeHandle before,
                                         std::string_view label) {
  XVM_CHECK(IsAlive(before));
  const Node& b = nodes_[before];
  XVM_CHECK(b.parent != kNullNode);
  NodeHandle parent = b.parent;
  const OrdKey& b_ord = b.id.steps().back().ord;
  OrdKey ord =
      b.prev_sibling == kNullNode
          ? OrdKey::Before(b_ord)
          : OrdKey::Between(nodes_[b.prev_sibling].id.steps().back().ord,
                            b_ord);

  NodeHandle h = NewNode(NodeKind::kElement, dict_->Intern(label), "");
  nodes_[h].id = nodes_[parent].id.Child(nodes_[h].label, std::move(ord));
  Node& bn = nodes_[before];
  NodeHandle prev = bn.prev_sibling;
  nodes_[h].parent = parent;
  nodes_[h].next_sibling = before;
  nodes_[h].prev_sibling = prev;
  bn.prev_sibling = h;
  if (prev != kNullNode) {
    nodes_[prev].next_sibling = h;
  } else {
    nodes_[parent].first_child = h;
  }
  return h;
}

NodeHandle Document::CopySubtreeAsChild(NodeHandle parent,
                                        const Document& src_doc,
                                        NodeHandle src) {
  XVM_CHECK(IsAlive(parent));
  const Node& s = src_doc.node(src);
  NodeHandle copy = kNullNode;
  switch (s.kind) {
    case NodeKind::kElement:
      copy = AppendElement(parent, src_doc.dict().Name(s.label));
      break;
    case NodeKind::kText:
      copy = AppendText(parent, s.text);
      break;
    case NodeKind::kAttribute: {
      // Strip the '@' prefix; AppendAttribute re-adds it.
      const std::string& name = src_doc.dict().Name(s.label);
      copy = AppendAttribute(parent, std::string_view(name).substr(1), s.text);
      break;
    }
  }
  for (NodeHandle c = s.first_child; c != kNullNode;
       c = src_doc.node(c).next_sibling) {
    CopySubtreeAsChild(copy, src_doc, c);
  }
  return copy;
}

std::vector<NodeHandle> Document::DeleteSubtree(NodeHandle n) {
  XVM_CHECK(IsAlive(n));
  std::vector<NodeHandle> removed = SubtreeNodes(n);
  // Unlink from parent.
  Node& nd = nodes_[n];
  if (nd.parent != kNullNode) {
    Node& p = nodes_[nd.parent];
    if (nd.prev_sibling != kNullNode) {
      nodes_[nd.prev_sibling].next_sibling = nd.next_sibling;
    } else {
      p.first_child = nd.next_sibling;
    }
    if (nd.next_sibling != kNullNode) {
      nodes_[nd.next_sibling].prev_sibling = nd.prev_sibling;
    } else {
      p.last_child = nd.prev_sibling;
    }
  } else {
    root_ = kNullNode;
  }
  for (NodeHandle h : removed) {
    UnindexAttribute(h);
    nodes_[h].alive = false;
    --num_alive_;
  }
  return removed;
}

NodeHandle Document::RestoreNode(NodeHandle parent, NodeKind kind,
                                 LabelId label, std::string_view text,
                                 DeweyId id) {
  XVM_CHECK(label < dict_->size());
  NodeHandle h = NewNode(kind, label, text);
  nodes_[h].id = std::move(id);
  if (parent == kNullNode) {
    XVM_CHECK(root_ == kNullNode);
    root_ = h;
  } else {
    XVM_CHECK(IsAlive(parent));
    LinkAsLastChild(parent, h);
  }
  IndexAttribute(h);
  return h;
}

std::string Document::StringValue(NodeHandle h) const {
  const Node& n = nodes_[h];
  if (n.kind != NodeKind::kElement) return n.text;
  std::string out;
  for (NodeHandle c = h; c != kNullNode; c = PreorderNext(c, h)) {
    const Node& cn = nodes_[c];
    if (cn.kind == NodeKind::kText) out += cn.text;
  }
  return out;
}

std::string Document::Content(NodeHandle h) const {
  return SerializeSubtree(*this, h);
}

std::vector<NodeHandle> Document::SubtreeNodes(NodeHandle h) const {
  std::vector<NodeHandle> out;
  for (NodeHandle c = h; c != kNullNode; c = PreorderNext(c, h)) {
    out.push_back(c);
  }
  return out;
}

std::vector<NodeHandle> Document::AllNodes() const {
  if (root_ == kNullNode) return {};
  return SubtreeNodes(root_);
}

std::vector<NodeHandle> Document::Children(NodeHandle h) const {
  std::vector<NodeHandle> out;
  for (NodeHandle c = nodes_[h].first_child; c != kNullNode;
       c = nodes_[c].next_sibling) {
    out.push_back(c);
  }
  return out;
}

}  // namespace xvm
