#ifndef XVM_XML_DOCUMENT_H_
#define XVM_XML_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ids/dewey.h"
#include "store/label_dict.h"

namespace xvm {

/// Index of a node inside a Document's arena.
using NodeHandle = uint32_t;
inline constexpr NodeHandle kNullNode = 0xFFFFFFFFu;

/// Node kinds of the paper's data model (§2.1): ordered labeled trees with
/// element, attribute and text nodes.
enum class NodeKind : uint8_t {
  kElement,
  kAttribute,
  kText,
};

/// One tree node. Stored by value in the document arena; navigation uses
/// sibling/child links so subtree insertion and deletion are O(subtree).
struct Node {
  NodeKind kind = NodeKind::kElement;
  bool alive = true;
  LabelId label = kInvalidLabel;  // element name, "@name", or "#text"
  std::string text;               // text content / attribute value
  NodeHandle parent = kNullNode;
  NodeHandle first_child = kNullNode;
  NodeHandle last_child = kNullNode;
  NodeHandle prev_sibling = kNullNode;
  NodeHandle next_sibling = kNullNode;
  DeweyId id;
};

/// An in-memory XML document: an arena of nodes carrying Compact Dynamic
/// Dewey IDs, with an attribute-value index so XPath steps like
/// `person[@id="p7"]` find their nodes without walking (xpath/xpath_eval.h).
/// Stored IDs (e.g. in materialized views) resolve back to nodes through the
/// canonical relations (StoreIndex::FindById in store/canonical.h), which
/// are sorted in document order and so already index nodes by ID.
///
/// Update operations (AppendChild / InsertSiblingAfter / CopySubtree /
/// DeleteSubtree) assign dynamic IDs and never relabel existing nodes.
class Document {
 public:
  /// Creates an empty document. If `dict` is null a private dictionary is
  /// created; passing a shared dictionary lets several documents (e.g. a
  /// store document and parsed update fragments) agree on LabelIds.
  explicit Document(std::shared_ptr<LabelDict> dict = nullptr);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  LabelDict& dict() { return *dict_; }
  const LabelDict& dict() const { return *dict_; }
  const std::shared_ptr<LabelDict>& dict_ptr() const { return dict_; }

  /// Creates the root element. Requires no root yet.
  NodeHandle CreateRoot(std::string_view label);

  /// Appends a new element child under `parent`.
  NodeHandle AppendElement(NodeHandle parent, std::string_view label);

  /// Appends a new text child under `parent`.
  NodeHandle AppendText(NodeHandle parent, std::string_view text);

  /// Appends an attribute node under `parent` (label stored as "@name").
  NodeHandle AppendAttribute(NodeHandle parent, std::string_view name,
                             std::string_view value);

  /// Inserts a new element immediately after sibling `after` (same parent).
  /// Demonstrates relabel-free dynamic IDs; XQuery ins-into appends instead.
  NodeHandle InsertElementAfter(NodeHandle after, std::string_view label);

  /// Inserts a new element immediately before sibling `before`.
  NodeHandle InsertElementBefore(NodeHandle before, std::string_view label);

  /// Deep-copies the subtree rooted at `src` (from `src_doc`, which may be
  /// this document) as a new last child of `parent`. Fresh IDs are assigned
  /// in the destination context (paper §3.4 apply-insert). Returns the root
  /// of the copy.
  NodeHandle CopySubtreeAsChild(NodeHandle parent, const Document& src_doc,
                                NodeHandle src);

  /// Unlinks and kills the subtree rooted at `n`. Returns the handles of all
  /// removed nodes (document order). IDs of survivors are untouched.
  std::vector<NodeHandle> DeleteSubtree(NodeHandle n);

  /// Node accessors.
  const Node& node(NodeHandle h) const { return nodes_[h]; }
  bool IsAlive(NodeHandle h) const {
    return h < nodes_.size() && nodes_[h].alive;
  }
  NodeHandle root() const { return root_; }
  size_t num_alive() const { return num_alive_; }
  size_t arena_size() const { return nodes_.size(); }

  /// XPath string value: concatenation of all text descendants in document
  /// order (§2.2). For text/attribute nodes, their own text.
  std::string StringValue(NodeHandle h) const;

  /// Serialized subtree ("cont" annotation).
  std::string Content(NodeHandle h) const;

  /// Collects the subtree of `h` (including `h`) in document order.
  std::vector<NodeHandle> SubtreeNodes(NodeHandle h) const;

  /// The node after `cur` in a preorder walk of the subtree of `top`, or
  /// kNullNode past its end. Walks links only: no allocation, no recursion.
  NodeHandle PreorderNext(NodeHandle cur, NodeHandle top) const {
    if (nodes_[cur].first_child != kNullNode) return nodes_[cur].first_child;
    for (; cur != top; cur = nodes_[cur].parent) {
      if (nodes_[cur].next_sibling != kNullNode) {
        return nodes_[cur].next_sibling;
      }
    }
    return kNullNode;
  }

  /// Appends to `out` every alive attribute node labelled `label` whose
  /// value is `value` (attribute-value index; unordered).
  void FindAttributes(LabelId label, std::string_view value,
                      std::vector<NodeHandle>* out) const;

  /// Entries in the attribute-value index: one per alive attribute node.
  size_t attribute_index_size() const { return attr_index_.size(); }

  /// Collects every alive node in document order.
  std::vector<NodeHandle> AllNodes() const;

  /// Convenience: children of `h` in order (attributes included).
  std::vector<NodeHandle> Children(NodeHandle h) const;

  /// Total serialized size estimate in bytes (for size-targeted generation).
  size_t ApproxSerializedBytes() const { return approx_bytes_; }

  /// Restores one node with an explicit, already-assigned structural ID —
  /// the durability recovery path (view/persist.h LoadDocumentFromBytes),
  /// which must reproduce the exact Dewey IDs of the checkpointed document
  /// so that stored view tuples keep resolving. `parent` is kNullNode for
  /// the root; nodes must be restored in document order. `label` must
  /// already be interned. The caller validates ID/parent/order consistency;
  /// this method only links and indexes.
  NodeHandle RestoreNode(NodeHandle parent, NodeKind kind, LabelId label,
                         std::string_view text, DeweyId id);

  /// Direct mutable access to a node, so tests can inject deliberate
  /// corruption (e.g. a dangling Dewey parent) and assert the invariant
  /// auditor (store/audit.h) reports it. Never used by production code.
  Node& MutableNodeForTesting(NodeHandle h) { return nodes_[h]; }

 private:
  NodeHandle NewNode(NodeKind kind, LabelId label, std::string_view text);
  void LinkAsLastChild(NodeHandle parent, NodeHandle child);
  OrdKey NextChildOrd(NodeHandle parent) const;
  /// Attribute nodes enter and leave the attribute-value index here; other
  /// kinds are ignored.
  void IndexAttribute(NodeHandle h);
  void UnindexAttribute(NodeHandle h);

  std::shared_ptr<LabelDict> dict_;
  std::vector<Node> nodes_;
  // (attribute label, hash of value) -> attribute node. Lookups compare the
  // node's text, so no value is copied and arena growth moves nothing.
  std::unordered_multimap<uint64_t, NodeHandle> attr_index_;
  NodeHandle root_ = kNullNode;
  size_t num_alive_ = 0;
  size_t approx_bytes_ = 0;
};

}  // namespace xvm

#endif  // XVM_XML_DOCUMENT_H_
