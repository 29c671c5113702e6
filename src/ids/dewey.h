#ifndef XVM_IDS_DEWEY_H_
#define XVM_IDS_DEWEY_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "ids/ordkey.h"

namespace xvm {

/// Interned label identifier (see store/label_dict.h).
using LabelId = uint32_t;

/// Sentinel for "no label" / wildcard contexts.
inline constexpr LabelId kInvalidLabel = 0xFFFFFFFFu;

/// One step of a structural ID: the label and dynamic sibling position of one
/// ancestor-or-self of the node (paper Section 2.1: "each step holding the
/// label and the relative position of one ancestor of the node").
struct DeweyStep {
  LabelId label = kInvalidLabel;
  OrdKey ord;

  bool operator==(const DeweyStep& other) const = default;
};

/// A Compact Dynamic Dewey ID. Properties required by the paper (§2.1):
///  * structural: parent / ancestor tests by comparing two IDs;
///  * self-describing: the IDs *and labels* of all ancestors are extractable
///    from the ID alone (no document access);
///  * update-stable: sibling insertion never relabels existing IDs
///    (delegated to OrdKey);
///  * compact: varint binary encoding via Encode()/Decode().
///
/// IDs sort in document (pre)order: ancestors precede descendants, siblings
/// sort by their order keys.
class DeweyId {
 public:
  DeweyId() = default;
  explicit DeweyId(std::vector<DeweyStep> steps) : steps_(std::move(steps)) {}

  /// The ID of a document root element with the given label.
  static DeweyId Root(LabelId label);

  /// The ID of a child of `parent` with `label` at position `ord`.
  DeweyId Child(LabelId label, OrdKey ord) const;

  bool empty() const { return steps_.empty(); }
  /// Depth of the node (root = 1).
  size_t depth() const { return steps_.size(); }
  const std::vector<DeweyStep>& steps() const { return steps_; }

  /// Label of the node itself (last step).
  LabelId label() const;

  /// ID of the parent; empty ID if this is a root.
  DeweyId Parent() const;

  /// ID of the ancestor at depth `d` (1-based). Requires 1 <= d <= depth().
  DeweyId AncestorAtDepth(size_t d) const;

  /// True iff `this` is the parent of `other` (strict, one level).
  bool IsParentOf(const DeweyId& other) const;

  /// True iff `this` is a proper ancestor of `other`.
  bool IsAncestorOf(const DeweyId& other) const;

  /// True iff `this` equals `other` or is a proper ancestor of it.
  bool IsAncestorOrSelf(const DeweyId& other) const;

  /// PathFilter (paper §3.4): true iff some *proper ancestor* of this node
  /// carries `label`. Decided from the ID alone.
  bool HasAncestorLabeled(LabelId label) const;

  /// True iff this node or some proper ancestor carries `label`.
  bool HasAncestorOrSelfLabeled(LabelId label) const;

  /// Document-order comparison (pre-order: ancestor < descendant).
  std::strong_ordering operator<=>(const DeweyId& other) const;
  /// Compares the ancestor-or-self of `a` at depth `da` with that of `b` at
  /// depth `db` in document order, without building either ID (depths are
  /// clamped to the IDs' own).
  static std::strong_ordering ComparePrefixes(const DeweyId& a, size_t da,
                                              const DeweyId& b, size_t db);
  bool operator==(const DeweyId& other) const = default;

  /// Compact binary encoding; the encoded form is also usable as a hash/map
  /// key and preserves nothing but the ID content.
  std::string Encode() const;
  static bool Decode(const std::string& data, DeweyId* id);

  /// Debug form using a label-name resolver, e.g. "a1.c1.b1"-style:
  /// "a[0].c[0].b[1]".
  std::string ToString() const;

 private:
  std::vector<DeweyStep> steps_;
};

/// PathNavigate (paper §3.4): maps each ID in `ids` to its parent ID,
/// dropping roots; output is sorted in document order with duplicates
/// removed. Input need not be sorted.
std::vector<DeweyId> PathNavigateToParents(const std::vector<DeweyId>& ids);

}  // namespace xvm

#endif  // XVM_IDS_DEWEY_H_
