#ifndef XVM_VIEW_VIEW_DEF_H_
#define XVM_VIEW_VIEW_DEF_H_

#include <set>
#include <string>

#include "pattern/compile.h"
#include "pattern/tree_pattern.h"
#include "store/label_dict.h"

namespace xvm {

/// A view definition: a named tree pattern from the dialect P plus derived
/// metadata used by maintenance (stored-tuple schema, cvn set, per-label
/// needs of the Δ− extraction).
class ViewDefinition {
 public:
  ViewDefinition() = default;

  /// Builds from the pattern DSL (see TreePattern::Parse). Requires at
  /// least one stored attribute.
  static StatusOr<ViewDefinition> Create(std::string name,
                                         std::string_view pattern_dsl);

  /// Builds from an already-constructed pattern.
  static StatusOr<ViewDefinition> FromPattern(std::string name,
                                              TreePattern pattern);

  const std::string& name() const { return name_; }
  const TreePattern& pattern() const { return pattern_; }
  /// Schema of the stored (projected) view tuples.
  const Schema& tuple_schema() const { return tuple_schema_; }
  /// Pattern nodes annotated with val or cont (the paper's cvn set).
  const std::vector<int>& cvn() const { return cvn_; }

  /// Test-only access for corrupting the pattern *after* construction (the
  /// factories validate, so ill-formed definitions cannot be built the
  /// normal way). Lets tests exercise the install-time plan gate: mutating
  /// the pattern desynchronizes it from the precomputed tuple schema, which
  /// the view's term-plan table (view/view_plans.h) must then reject.
  TreePattern& mutable_pattern_for_testing() { return pattern_; }

  /// Labels for which a Δ− extraction must capture node string values:
  /// labels of pattern nodes carrying a value predicate (their Δ− rows must
  /// be filterable by σ just like R rows).
  std::set<std::string> DeltaMinusValLabels() const;

 private:
  std::string name_;
  TreePattern pattern_;
  Schema tuple_schema_;
  std::vector<int> cvn_;
};

}  // namespace xvm

#endif  // XVM_VIEW_VIEW_DEF_H_
