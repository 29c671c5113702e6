#include "algebra/analyze/delta_check.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/analyze/analyze.h"
#include "algebra/analyze/build_plan.h"
#include "algebra/analyze/plan.h"
#include "algebra/analyze/symexec.h"
#include "algebra/operators.h"
#include "common/thread_annotations.h"
#include "pattern/compile.h"
#include "store/canonical.h"
#include "store/label_dict.h"
#include "update/delta.h"
#include "update/update.h"
#include "view/lattice.h"
#include "view/maintain.h"
#include "view/terms.h"
#include "view/view_plans.h"
#include "xml/document.h"

namespace xvm {
namespace {

// ---------------------------------------------------------------------------
// Mutation names.

struct MutationNameEntry {
  DeltaPlanMutation mutation;
  const char* name;
};

constexpr MutationNameEntry kMutationNames[] = {
    {DeltaPlanMutation::kNone, "none"},
    {DeltaPlanMutation::kDropAliveFilter, "drop-alive"},
    {DeltaPlanMutation::kChildToDescendant, "child-to-descendant"},
    {DeltaPlanMutation::kDescendantToChild, "descendant-to-child"},
    {DeltaPlanMutation::kDropDeltaTerm, "drop-term"},
    {DeltaPlanMutation::kDuplicateDeltaTerm, "duplicate-term"},
    {DeltaPlanMutation::kDeltaLeafFromStore, "delta-from-store"},
    {DeltaPlanMutation::kDropValuePredicate, "drop-value-predicate"},
};

// ---------------------------------------------------------------------------
// Plan mutations. Each rewrites the term plan at its first matching site and
// leaves the plan analyzable — only semantic checking can catch it.

/// Mutations that rewrite the plan tree itself (as opposed to changing how
/// the term list is consumed).
bool IsPlanRewrite(DeltaPlanMutation m) {
  switch (m) {
    case DeltaPlanMutation::kDropAliveFilter:
    case DeltaPlanMutation::kChildToDescendant:
    case DeltaPlanMutation::kDescendantToChild:
    case DeltaPlanMutation::kDeltaLeafFromStore:
    case DeltaPlanMutation::kDropValuePredicate:
      return true;
    default:
      return false;
  }
}

/// Splices a select whose predicate list became empty out of the tree, so
/// the mutated plan reads as "the rewrite forgot the filter".
void CollapseEmptySelect(PlanNode* node) {
  if (node->op != PlanOp::kSelect || !node->predicates.empty()) return;
  PlanNodePtr child = std::move(node->inputs[0]);
  *node = std::move(*child);
}

/// Applies `m` at the first (pre-order) matching site. Returns whether a
/// site was found in this subtree.
bool ApplyPlanMutation(PlanNode* node, DeltaPlanMutation m) {
  switch (m) {
    case DeltaPlanMutation::kDropAliveFilter:
      if (node->op == PlanOp::kSelect) {
        for (size_t i = 0; i < node->predicates.size(); ++i) {
          if (node->predicates[i].kind == PlanPredicate::Kind::kAlive) {
            node->predicates.erase(node->predicates.begin() +
                                   static_cast<ptrdiff_t>(i));
            CollapseEmptySelect(node);
            return true;
          }
        }
      }
      break;
    case DeltaPlanMutation::kDropValuePredicate:
      if (node->op == PlanOp::kSelect) {
        for (size_t i = 0; i < node->predicates.size(); ++i) {
          if (node->predicates[i].kind == PlanPredicate::Kind::kEqConst) {
            node->predicates.erase(node->predicates.begin() +
                                   static_cast<ptrdiff_t>(i));
            CollapseEmptySelect(node);
            return true;
          }
        }
      }
      break;
    case DeltaPlanMutation::kChildToDescendant:
      if (node->op == PlanOp::kStructJoin && node->axis == Axis::kChild) {
        node->axis = Axis::kDescendant;
        return true;
      }
      break;
    case DeltaPlanMutation::kDescendantToChild:
      if (node->op == PlanOp::kStructJoin && node->axis == Axis::kDescendant) {
        node->axis = Axis::kChild;
        return true;
      }
      break;
    case DeltaPlanMutation::kDeltaLeafFromStore:
      if (node->op == PlanOp::kLeaf &&
          node->leaf_kind == PlanLeafKind::kDeltaScan) {
        node->leaf_kind = PlanLeafKind::kStoreScan;
        node->leaf_name = "R:" + node->leaf_name.substr(6);
        return true;
      }
      break;
    default:
      return false;
  }
  for (auto& in : node->inputs) {
    if (ApplyPlanMutation(in.get(), m)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Small shared helpers.

/// FNV-1a over `s` — the plan-fingerprint hash of the install-gate cache.
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// File-local mirrors of maintain.cc's anchor tests (PIMT/PDMT locality):
/// `anchors` sorted in document order.
bool AnyAnchorAtOrBelow(const std::vector<DeweyId>& anchors,
                        const DeweyId& id) {
  auto it = std::lower_bound(anchors.begin(), anchors.end(), id);
  return it != anchors.end() && id.IsAncestorOrSelf(*it);
}

bool AnyAnchorStrictlyBelow(const std::vector<DeweyId>& anchors,
                            const DeweyId& id) {
  auto it = std::upper_bound(anchors.begin(), anchors.end(), id);
  return it != anchors.end() && id.IsAncestorOf(*it);
}

/// True iff some column name of a leaf schema ends in `suffix` (the
/// leaf contract's ".val" / ".cont" columns, pattern/compile.h LeafSchema).
bool HasColumnSuffix(const Schema& schema, const std::string& suffix) {
  for (const Column& c : schema.cols()) {
    if (c.name.size() >= suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      return true;
    }
  }
  return false;
}

std::string RenderCounted(const std::vector<CountedTuple>& rows) {
  if (rows.empty()) return "    (none)\n";
  std::string out;
  for (const auto& ct : rows) {
    out += "    (";
    for (size_t i = 0; i < ct.tuple.size(); ++i) {
      if (i > 0) out += ", ";
      out += ct.tuple[i].ToString();
    }
    out += ") x" + std::to_string(ct.count) + "\n";
  }
  return out;
}

bool SameCounted(const std::vector<CountedTuple>& a,
                 const std::vector<CountedTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].count != b[i].count || !(a[i].tuple == b[i].tuple)) return false;
  }
  return true;
}

void SortCounted(std::vector<CountedTuple>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const CountedTuple& x, const CountedTuple& y) {
              return x.tuple < y.tuple;
            });
}

bool SameRelationRows(const Relation& a, const Relation& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (!(a.rows[i] == b.rows[i])) return false;
  }
  return true;
}

std::string Indent4(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    out += "    " + text.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// View-state simulator. Mirrors MaterializedView's derivation-count store
// keyed by the stored ID columns, except that counts are signed and never
// clamped: MaterializedView::RemoveDerivations clamps at zero (defensive
// against corruption), which would *mask* an over-removing Δ-rewrite —
// exactly the bug class this prover exists to catch.
struct SimEntry {
  Tuple tuple;
  int64_t count = 0;
};

struct Sim {
  std::map<std::string, SimEntry> entries;
  const std::vector<int>* id_positions = nullptr;

  void Add(const Tuple& t, int64_t count) {
    std::string key = EncodeTupleCols(t, *id_positions);
    auto [it, inserted] = entries.try_emplace(key);
    // A fresh key (or one whose derivations all went away) takes the new
    // payload; collisions keep the first payload, like AddDerivations.
    if (inserted || it->second.count == 0) it->second.tuple = t;
    it->second.count += count;
  }

  void Remove(const std::string& key, int64_t count) {
    auto it = entries.find(key);
    if (it == entries.end()) return;  // absent keys ignored, like production
    it->second.count -= count;        // signed: over-removal goes negative
  }
};

// ---------------------------------------------------------------------------
// Label/value domains of the enumerated documents.

struct LabelDomain {
  std::vector<std::string> element_labels;    // pattern elements + one noise
  std::vector<std::string> attribute_labels;  // pattern '@' labels
  std::map<std::string, std::vector<std::string>> texts;  // label -> options

  const std::vector<std::string>& TextOptions(const std::string& label) const {
    static const std::vector<std::string> kNoText = {""};
    auto it = texts.find(label);
    return it == texts.end() ? kNoText : it->second;
  }
};

LabelDomain BuildLabelDomain(const TreePattern& pattern) {
  LabelDomain dom;
  std::set<std::string> used;
  for (const auto& n : pattern.nodes()) used.insert(n.label);
  for (const auto& n : pattern.nodes()) {
    auto& bucket =
        n.label[0] == '@' ? dom.attribute_labels : dom.element_labels;
    if (std::find(bucket.begin(), bucket.end(), n.label) == bucket.end()) {
      bucket.push_back(n.label);
    }
    auto& opts = dom.texts[n.label];
    if (opts.empty()) opts.push_back("");
    auto add = [&opts](const std::string& t) {
      if (std::find(opts.begin(), opts.end(), t) == opts.end()) {
        opts.push_back(t);
      }
    };
    if (n.val_pred.has_value()) {
      add(*n.val_pred);  // a value that satisfies the predicate
      add("qq");         // and one that does not
    } else if (n.store_val) {
      add("t");  // one non-empty value so stored payloads vary
    }
  }
  for (const char* noise : {"zz", "zy", "zx", "noise"}) {
    if (used.count(noise) == 0) {
      dom.element_labels.push_back(noise);
      break;
    }
  }
  return dom;
}

// ---------------------------------------------------------------------------
// Enumerated instances.

/// One node of an enumerated document: parent spec index (-1 for the root),
/// label ('@'-prefixed for attributes), and text (attribute value, or an
/// extra text child for elements; "" means none).
struct SpecNode {
  int parent = -1;
  std::string label;
  std::string text;
};
using DocSpec = std::vector<SpecNode>;

/// One node of an insert statement's constant forest (same conventions).
struct ForestNode {
  int parent = -1;
  std::string label;
  std::string text;
};

/// One enumerated update statement against a DocSpec.
struct StmtSpec {
  enum class Kind : uint8_t { kDelete, kDeleteText, kInsert, kReplace };
  Kind kind = Kind::kDelete;
  int target = 0;  // DocSpec index
  std::vector<ForestNode> forest;
};

std::string RenderForestNode(const std::vector<ForestNode>& forest, int i) {
  const ForestNode& n = forest[static_cast<size_t>(i)];
  if (n.label[0] == '@') return n.label + "=\"" + n.text + "\"";
  std::string out = "<" + n.label + ">" + n.text;
  for (size_t j = 0; j < forest.size(); ++j) {
    if (forest[j].parent == i) {
      out += RenderForestNode(forest, static_cast<int>(j));
    }
  }
  return out + "</" + n.label + ">";
}

std::string RenderForest(const std::vector<ForestNode>& forest) {
  std::string out;
  for (size_t j = 0; j < forest.size(); ++j) {
    if (forest[j].parent == -1) out += RenderForestNode(forest, static_cast<int>(j));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The checker.

class Checker {
 public:
  Checker(const ViewDefinition& def, const DeltaCheckBounds& bounds,
          DeltaPlanMutation mutation)
      : def_(def),
        pat_(def.pattern()),
        bounds_(bounds),
        mutation_(mutation),
        all_(pat_.size(), true),
        snowcap_plans_(def, ViewLattice(&pat_, LatticeStrategy::kSnowcaps)),
        leaf_plans_(def, ViewLattice(&pat_, LatticeStrategy::kLeaves)),
        cvn_(def.cvn()),
        dom_(BuildLabelDomain(pat_)) {}

  StatusOr<DeltaCheckResult> Prove() {
    XVM_RETURN_IF_ERROR(snowcap_plans_.status());
    XVM_RETURN_IF_ERROR(leaf_plans_.status());
    std::vector<int> parents;
    for (int n = 1; n <= bounds_.max_doc_nodes && !done_; ++n) {
      GenShape(n, &parents);
    }
    if (!failure_.ok()) return failure_;
    return result_;
  }

 private:
  struct TermNote {
    bool set = false;
    std::string term;
    std::string plan;
  };

  struct Outcome {
    bool guarded = false;
    bool diverged = false;
    std::string expected;  // rendered recompute result
    std::string actual;    // rendered Δ-rewrite result
    std::string stmt_desc;
    std::string doc_xml;
    TermNote note;
  };

  struct Built {
    std::shared_ptr<LabelDict> dict;
    std::unique_ptr<Document> doc;
    std::vector<NodeHandle> nodes;          // DocSpec index -> handle
    std::vector<NodeHandle> text_children;  // kNullNode when no text
  };

  // ---- document enumeration -----------------------------------------------

  /// Enumerates every ordered tree shape on `n` nodes: each node's parent is
  /// drawn from the rightmost path of the partial tree, which generates each
  /// shape exactly once.
  void GenShape(int n, std::vector<int>* parents) {
    if (done_) return;
    if (static_cast<int>(parents->size()) == n) {
      std::vector<std::string> labels;
      GenLabels(*parents, &labels);
      return;
    }
    int i = static_cast<int>(parents->size());
    if (i == 0) {
      parents->push_back(-1);
      GenShape(n, parents);
      parents->pop_back();
      return;
    }
    for (int p = i - 1; p >= 0; p = (*parents)[static_cast<size_t>(p)]) {
      parents->push_back(p);
      GenShape(n, parents);
      parents->pop_back();
      if (done_) return;
    }
  }

  void GenLabels(const std::vector<int>& parents,
                 std::vector<std::string>* labels) {
    if (done_) return;
    size_t i = labels->size();
    if (i == parents.size()) {
      std::vector<std::string> texts;
      GenTexts(parents, *labels, &texts);
      return;
    }
    bool internal = i == 0;
    for (int p : parents) {
      if (p == static_cast<int>(i)) internal = true;
    }
    for (const std::string& l : dom_.element_labels) {
      labels->push_back(l);
      GenLabels(parents, labels);
      labels->pop_back();
      if (done_) return;
    }
    if (!internal) {
      for (const std::string& l : dom_.attribute_labels) {
        labels->push_back(l);
        GenLabels(parents, labels);
        labels->pop_back();
        if (done_) return;
      }
    }
  }

  void GenTexts(const std::vector<int>& parents,
                const std::vector<std::string>& labels,
                std::vector<std::string>* texts) {
    if (done_) return;
    size_t i = texts->size();
    if (i == parents.size()) {
      DocSpec spec(parents.size());
      for (size_t j = 0; j < parents.size(); ++j) {
        spec[j] = SpecNode{parents[j], labels[j], (*texts)[j]};
      }
      VisitDoc(spec);
      return;
    }
    for (const std::string& t : dom_.TextOptions(labels[i])) {
      texts->push_back(t);
      GenTexts(parents, labels, texts);
      texts->pop_back();
      if (done_) return;
    }
  }

  // ---- statements ---------------------------------------------------------

  std::vector<StmtSpec> EnumerateStatements(const DocSpec& spec) {
    std::vector<StmtSpec> out;
    auto is_element = [&spec](int i) {
      return spec[static_cast<size_t>(i)].label[0] != '@';
    };
    // Deletions: every non-root subtree; every realized text child.
    for (int i = 1; i < static_cast<int>(spec.size()); ++i) {
      out.push_back(StmtSpec{StmtSpec::Kind::kDelete, i, {}});
    }
    for (int i = 0; i < static_cast<int>(spec.size()); ++i) {
      if (is_element(i) && !spec[static_cast<size_t>(i)].text.empty()) {
        out.push_back(StmtSpec{StmtSpec::Kind::kDeleteText, i, {}});
      }
    }
    // Insertions: under every element target, (a) each single element label
    // with each text option, (b) each pattern edge as a two-node forest so
    // multi-node Δ-sets fire, (c) each attribute label.
    for (int t = 0; t < static_cast<int>(spec.size()); ++t) {
      if (!is_element(t)) continue;
      for (const std::string& l : dom_.element_labels) {
        for (const std::string& tx : dom_.TextOptions(l)) {
          out.push_back(
              StmtSpec{StmtSpec::Kind::kInsert, t, {{-1, l, tx}}});
        }
      }
      for (size_t c = 1; c < pat_.size(); ++c) {
        const PatternNode& child = pat_.node(static_cast<int>(c));
        const PatternNode& parent = pat_.node(child.parent);
        if (parent.label[0] == '@') continue;
        for (const std::string& tx : dom_.TextOptions(child.label)) {
          out.push_back(StmtSpec{StmtSpec::Kind::kInsert,
                                 t,
                                 {{-1, parent.label, ""}, {0, child.label, tx}}});
        }
      }
      for (const std::string& l : dom_.attribute_labels) {
        for (const std::string& tx : dom_.TextOptions(l)) {
          out.push_back(
              StmtSpec{StmtSpec::Kind::kInsert, t, {{-1, l, tx}}});
        }
      }
    }
    // Replacements: one representative forest per element target that has
    // content to replace (a delete+insert PUL in a single statement, which
    // is what exercises the DeletedRegion filter on insert terms).
    for (int t = 0; t < static_cast<int>(spec.size()); ++t) {
      if (!is_element(t)) continue;
      bool has_child = !spec[static_cast<size_t>(t)].text.empty();
      for (const SpecNode& n : spec) has_child = has_child || n.parent == t;
      if (!has_child) continue;
      const std::string& l =
          pat_.size() > 1 && pat_.node(1).label[0] != '@' ? pat_.node(1).label
                                                          : pat_.node(0).label;
      const auto& texts = dom_.TextOptions(l);
      const std::string& tx = texts.size() > 1 ? texts[1] : texts[0];
      out.push_back(StmtSpec{StmtSpec::Kind::kReplace, t, {{-1, l, tx}}});
    }
    return out;
  }

  // ---- instance construction ----------------------------------------------

  Built BuildDoc(const DocSpec& spec) {
    Built b;
    b.dict = std::make_shared<LabelDict>();
    b.doc = std::make_unique<Document>(b.dict);
    b.nodes.resize(spec.size(), kNullNode);
    b.text_children.assign(spec.size(), kNullNode);
    for (size_t i = 0; i < spec.size(); ++i) {
      const SpecNode& sn = spec[i];
      NodeHandle h;
      if (i == 0) {
        h = b.doc->CreateRoot(sn.label);
      } else if (sn.label[0] == '@') {
        h = b.doc->AppendAttribute(b.nodes[static_cast<size_t>(sn.parent)],
                                   sn.label.substr(1), sn.text);
      } else {
        h = b.doc->AppendElement(b.nodes[static_cast<size_t>(sn.parent)],
                                 sn.label);
      }
      b.nodes[i] = h;
      if (sn.label[0] != '@' && !sn.text.empty()) {
        b.text_children[i] = b.doc->AppendText(h, sn.text);
      }
    }
    return b;
  }

  std::shared_ptr<Document> BuildForest(const std::vector<ForestNode>& forest,
                                        const std::shared_ptr<LabelDict>& dict,
                                        NodeHandle* src_root) {
    auto fdoc = std::make_shared<Document>(dict);
    std::vector<NodeHandle> handles(forest.size(), kNullNode);
    for (size_t j = 0; j < forest.size(); ++j) {
      const ForestNode& n = forest[j];
      if (j == 0) {
        if (n.label[0] == '@') {
          NodeHandle wrap = fdoc->CreateRoot("zzwrap");
          handles[0] = fdoc->AppendAttribute(wrap, n.label.substr(1), n.text);
        } else {
          handles[0] = fdoc->CreateRoot(n.label);
          if (!n.text.empty()) fdoc->AppendText(handles[0], n.text);
        }
        *src_root = handles[0];
      } else {
        NodeHandle p = handles[static_cast<size_t>(n.parent)];
        if (n.label[0] == '@') {
          handles[j] = fdoc->AppendAttribute(p, n.label.substr(1), n.text);
        } else {
          handles[j] = fdoc->AppendElement(p, n.label);
          if (!n.text.empty()) fdoc->AppendText(handles[j], n.text);
        }
      }
    }
    return fdoc;
  }

  // ---- production mirrors -------------------------------------------------

  bool GuardTriggered(const LabelDict& dict, const DeltaTables& delta) const {
    for (const PatternNode& n : pat_.nodes()) {
      if (!n.val_pred.has_value()) continue;
      LabelId label = dict.Lookup(n.label);
      if (label == kInvalidLabel) continue;
      for (const DeweyId& anchor : delta.anchor_ids()) {
        bool hit = delta.sign() == DeltaTables::Sign::kPlus
                       ? anchor.HasAncestorOrSelfLabeled(label)
                       : anchor.HasAncestorLabeled(label);
        if (hit) return true;
      }
    }
    return false;
  }

  void PimtMirror(const StoreIndex& store,
                  const DeltaTables& delta, Sim* sim) const {
    if (cvn_.empty() || delta.anchor_ids().empty()) return;
    for (auto& [key, entry] : sim->entries) {
      if (entry.count <= 0) continue;
      for (int n : cvn_) {
        const NodeLayout& l =
            snowcap_plans_.stored_layout()[static_cast<size_t>(n)];
        const DeweyId& id = entry.tuple[static_cast<size_t>(l.id_col)].id();
        if (!AnyAnchorAtOrBelow(delta.anchor_ids(), id)) continue;
        NodeHandle h = store.FindById(id);
        if (h == kNullNode) continue;
        if (l.val_col >= 0) {
          entry.tuple[static_cast<size_t>(l.val_col)] = Value(store.Val(h));
        }
        if (l.cont_col >= 0) {
          entry.tuple[static_cast<size_t>(l.cont_col)] = Value(store.Cont(h));
        }
      }
    }
  }

  void PdmtMirror(const StoreIndex& store,
                  const DeletedRegion& region, Sim* sim) const {
    if (cvn_.empty() || region.empty()) return;
    for (auto& [key, entry] : sim->entries) {
      if (entry.count <= 0) continue;
      for (int n : cvn_) {
        const NodeLayout& l =
            snowcap_plans_.stored_layout()[static_cast<size_t>(n)];
        const DeweyId& id = entry.tuple[static_cast<size_t>(l.id_col)].id();
        if (region.Covers(id)) continue;
        if (!AnyAnchorStrictlyBelow(region.roots(), id)) continue;
        NodeHandle h = store.FindById(id);
        if (h == kNullNode) continue;
        if (l.val_col >= 0) {
          entry.tuple[static_cast<size_t>(l.val_col)] = Value(store.Val(h));
        }
        if (l.cont_col >= 0) {
          entry.tuple[static_cast<size_t>(l.cont_col)] = Value(store.Cont(h));
        }
      }
    }
  }

  void SnowcapDeleteMirror(const DeletedRegion& region,
                           ViewLattice* lattice) const {
    if (region.empty()) return;
    for (MaterializedSnowcap& sc : lattice->snowcaps()) {
      std::vector<Tuple> kept;
      kept.reserve(sc.data.rows.size());
      for (Tuple& row : sc.data.rows) {
        bool dead = false;
        for (size_t i = 0; i < pat_.size() && !dead; ++i) {
          int c = sc.layout.per_node[i].id_col;
          if (c >= 0 && region.Covers(row[static_cast<size_t>(c)].id())) {
            dead = true;
          }
        }
        if (!dead) kept.push_back(std::move(row));
      }
      sc.data.rows = std::move(kept);
    }
  }

  // ---- plan execution -----------------------------------------------------

  /// `snowcap` points at the rows the current term's snowcap leaf reads
  /// (its table entry names the snowcap), or at null.
  std::function<StatusOr<Relation>(const PlanNode&)> MakeResolver(
      const LabelDict* dict, const StoreIndex* store, const DeltaTables* delta,
      const Relation* const* snowcap) const {
    return [dict, store, delta, snowcap](
               const PlanNode& leaf) -> StatusOr<Relation> {
      switch (leaf.leaf_kind) {
        case PlanLeafKind::kStoreScan: {
          Relation out;
          out.schema = leaf.leaf_schema;
          LabelId label = dict->Lookup(leaf.leaf_name.substr(2));
          if (label == kInvalidLabel) return out;
          const std::string& c0 = leaf.leaf_schema.col(0).name;
          std::string prefix = c0.substr(0, c0.size() - 3);  // strip ".ID"
          ScanAttrs attrs;
          attrs.val = HasColumnSuffix(leaf.leaf_schema, ".val");
          attrs.cont = HasColumnSuffix(leaf.leaf_schema, ".cont");
          return ScanRelation(*store, label, prefix, attrs);
        }
        case PlanLeafKind::kDeltaScan: {
          if (delta == nullptr) {
            return Status::Internal(
                "delta leaf resolved outside a propagation pass: " +
                leaf.leaf_name);
          }
          Relation out;
          out.schema = leaf.leaf_schema;
          LabelId label = dict->Lookup(leaf.leaf_name.substr(6));
          if (label == kInvalidLabel) return out;
          const bool want_val = HasColumnSuffix(leaf.leaf_schema, ".val");
          const bool want_cont = HasColumnSuffix(leaf.leaf_schema, ".cont");
          for (const DeltaRow& row : delta->ForLabel(label)) {
            Tuple t;
            t.push_back(Value(row.id));
            if (want_val) t.push_back(Value(row.val));
            if (want_cont) t.push_back(Value(row.cont));
            out.rows.push_back(std::move(t));
          }
          return out;
        }
        case PlanLeafKind::kSnowcap:
          if (snowcap == nullptr || *snowcap == nullptr) {
            return Status::Internal(
                "snowcap leaf in a term whose R-part is not materialized: " +
                leaf.leaf_name);
          }
          return **snowcap;
        case PlanLeafKind::kLiteral:
          return Status::Internal("literal leaf in a compiled plan: " +
                                  leaf.leaf_name);
      }
      return Status::Internal("unhandled leaf kind");
    };
  }

  /// Analyzes a mutated term plan once per (term, t_R, σ_alive): a
  /// mutation must leave the plan well-formed, or the negative test is
  /// void. Unmutated plans were analyzed when the tables were built.
  Status AnalyzeOnce(size_t term_idx, bool mat, bool with_region,
                     const PlanNode& plan) {
    unsigned key = static_cast<unsigned>(term_idx) << 2 |
                   (mat ? 2u : 0u) | (with_region ? 1u : 0u);
    if (analyzed_.count(key) > 0) return Status::Ok();
    StatusOr<PlanFacts> facts = AnalyzePlan(plan);
    if (!facts.ok()) {
      return Status::InvalidArgument(
          "static analysis rejected a term plan (mutation=" +
          std::string(DeltaPlanMutationName(mutation_)) +
          "):\n" + facts.status().ToString());
    }
    analyzed_.insert(key);
    return Status::Ok();
  }

  void NoteTerm(Outcome* out, bool is_delete, const NodeSet& ds,
                const PlanNode& plan) const {
    if (out->note.set) return;
    out->note.set = true;
    out->note.term = std::string(is_delete ? "delete" : "insert") +
                     " term Δ" + NodeSetToString(pat_, ds);
    out->note.plan = PlanToString(plan);
  }

  /// One propagation pass (delete or insert): evaluates every surviving
  /// union term of `plans` through the reference evaluator and applies it
  /// to the simulated view state, mirroring PropagateDelete /
  /// PropagateInsert.
  Status RunPass(bool is_delete, const DeltaTables& delta,
                 const DeletedRegion& region, bool with_region,
                 const LabelDict& dict, const StoreIndex& store,
                 const ViewLattice& lattice, const ViewPlans& plans, Sim* sim,
                 Outcome* out) {
    const Relation* snowcap = nullptr;
    ExecContext ctx;
    ctx.resolve_leaf = MakeResolver(&dict, &store, &delta, &snowcap);
    if (with_region) {
      const DeletedRegion* r = &region;
      ctx.deleted = [r](const DeweyId& id) { return r->Covers(id); };
    }
    const TermSpace& terms = plans.view();
    for (size_t ti = 0; ti < terms.size(); ++ti) {
      const TermEntry& term = terms.Term(ti, with_region);
      const NodeSet& ds = term.delta_set;
      if (TermPrunedByEmptyDelta(pat_, ds, delta, dict) ||
          TermPrunedByAnchorPaths(pat_, ds, all_, delta, dict)) {
        continue;
      }
      snowcap = term.snowcap >= 0
                    ? &lattice.snowcaps()[static_cast<size_t>(term.snowcap)]
                           .data
                    : nullptr;
      const PlanNode* plan = term.logical.get();
      if (mutation_ == DeltaPlanMutation::kDropDeltaTerm && ti == 0) {
        NoteTerm(out, is_delete, ds, *plan);
        continue;
      }
      int64_t mult = 1;
      if (mutation_ == DeltaPlanMutation::kDuplicateDeltaTerm && ti == 0) {
        mult = 2;
        NoteTerm(out, is_delete, ds, *plan);
      }
      // A plan rewrite corrupts a fresh copy of the term; the table's plan
      // stays the reference it is compared against.
      PlanNodePtr mutated;
      bool mutated_here = false;
      if (IsPlanRewrite(mutation_)) {
        const bool mat = term.snowcap >= 0;
        mutated = BuildTermPlan(pat_, all_, ds, mat, with_region);
        mutated_here = ApplyPlanMutation(mutated.get(), mutation_);
        XVM_RETURN_IF_ERROR(AnalyzeOnce(ti, mat, with_region, *mutated));
        plan = mutated.get();
      }
      StatusOr<Relation> rel = ExecutePlan(*plan, ctx);
      if (!rel.ok()) return rel.status();
      ++result_.terms_evaluated;
      if (mutated_here && !out->note.set) {
        StatusOr<Relation> ref = ExecutePlan(*term.logical, ctx);
        if (!ref.ok()) return ref.status();
        if (!SameRelationRows(*rel, *ref)) NoteTerm(out, is_delete, ds, *plan);
      }
      Relation proj = Project(*rel, is_delete ? plans.removal_cols()
                                              : plans.stored_cols());
      for (const CountedTuple& ct : DupElimWithCounts(proj)) {
        if (is_delete) {
          sim->Remove(EncodeTuple(ct.tuple), ct.count * mult);
        } else {
          sim->Add(ct.tuple, ct.count * mult);
        }
      }
    }
    return Status::Ok();
  }

  /// Re-derives the view from the store twice — fused pipeline vs reference
  /// evaluator over BuildViewPlan — and fails on any difference. This is the
  /// cross-validation that pins the two evaluator implementations together.
  Status CrossValidate(const StoreIndex& store, const LabelDict& dict,
                       const std::vector<CountedTuple>& fused,
                       const char* when) const {
    PlanNodePtr plan = BuildViewPlan(pat_);
    ExecContext ctx;
    ctx.resolve_leaf = MakeResolver(&dict, &store, nullptr, nullptr);
    StatusOr<std::vector<CountedTuple>> got = ExecutePlanWithCounts(*plan, ctx);
    if (!got.ok()) return got.status();
    std::vector<CountedTuple> a = fused, b = *got;
    SortCounted(&a);
    SortCounted(&b);
    if (!SameCounted(a, b)) {
      return Status::Internal(
          std::string("reference evaluator diverged from the fused pipeline "
                      "(") +
          when + "):\n  fused:\n" + RenderCounted(a) + "  reference:\n" +
          RenderCounted(b));
    }
    return Status::Ok();
  }

  // ---- one (document, statement, strategy) instance -----------------------

  StatusOr<Outcome> RunInstance(const DocSpec& spec, const StmtSpec& stmt,
                                LatticeStrategy strategy) {
    Outcome out;
    Built b = BuildDoc(spec);
    Document& doc = *b.doc;
    const LabelDict& dict = *b.dict;
    StoreIndex store(&doc);
    store.Build();
    const ViewPlans& plans = strategy == LatticeStrategy::kSnowcaps
                                 ? snowcap_plans_
                                 : leaf_plans_;
    ViewLattice lattice(&pat_, strategy);
    lattice.Materialize(store, plans);

    Sim sim;
    sim.id_positions = &plans.id_positions();
    for (const CountedTuple& ct :
         EvalViewWithCounts(pat_, StoreLeafSource(&store, &pat_))) {
      sim.Add(ct.tuple, ct.count);
    }
    out.doc_xml = doc.Content(doc.root());

    // Expand the statement to a PUL exactly like ComputePul would.
    Pul pul;
    std::shared_ptr<Document> forest;
    NodeHandle target = b.nodes[static_cast<size_t>(stmt.target)];
    std::string target_id = doc.node(target).id.ToString();
    switch (stmt.kind) {
      case StmtSpec::Kind::kDelete:
        pul.deletes.push_back(PulDeleteOp{target});
        out.stmt_desc = "delete the subtree at " + target_id;
        break;
      case StmtSpec::Kind::kDeleteText: {
        NodeHandle text = b.text_children[static_cast<size_t>(stmt.target)];
        if (text == kNullNode) {
          return Status::Internal("delete-text statement without a text child");
        }
        pul.deletes.push_back(PulDeleteOp{text});
        out.stmt_desc = "delete the text child of " + target_id;
        break;
      }
      case StmtSpec::Kind::kInsert: {
        NodeHandle src_root = kNullNode;
        forest = BuildForest(stmt.forest, b.dict, &src_root);
        pul.inserts.push_back(PulInsertOp{target, forest.get(), src_root,
                                          forest});
        out.stmt_desc = "insert " + RenderForest(stmt.forest) +
                        " as last child of " + target_id;
        break;
      }
      case StmtSpec::Kind::kReplace: {
        for (NodeHandle child : doc.Children(target)) {
          pul.deletes.push_back(PulDeleteOp{child});
        }
        NodeHandle src_root = kNullNode;
        forest = BuildForest(stmt.forest, b.dict, &src_root);
        pul.inserts.push_back(PulInsertOp{target, forest.get(), src_root,
                                          forest});
        out.stmt_desc = "replace contents of " + target_id + " with " +
                        RenderForest(stmt.forest);
        break;
      }
    }

    // Mirror ViewManager's stage half for one view: Δ− before the update,
    // apply with a null store (relations roll forward only after the flush
    // half's propagation), then Δ+.
    DeltaTables dm;
    if (!pul.deletes.empty()) {
      std::set<LabelId> needs;
      for (const std::string& l : def_.DeltaMinusValLabels()) {
        LabelId id = dict.Lookup(l);
        if (id != kInvalidLabel) needs.insert(id);
      }
      dm = ComputeDeltaMinus(doc, pul, nullptr, &needs);
    }
    ApplyResult applied = ApplyPul(&doc, pul, nullptr);
    InvalidateStoreValCont(&store, applied);
    DeltaTables dp;
    if (!applied.inserted_nodes.empty()) {
      DeltaNeeds needs;
      for (const PatternNode& n : pat_.nodes()) {
        LabelId id = dict.Lookup(n.label);
        if (id == kInvalidLabel) continue;
        if (n.store_val || n.val_pred.has_value()) needs.val_labels.insert(id);
        if (n.store_cont) needs.cont_labels.insert(id);
      }
      dp = ComputeDeltaPlus(doc, applied, nullptr, &needs);
    }
    DeletedRegion region(dm.anchor_ids());

    bool fallback = false;
    if (!dm.anchor_ids().empty()) {
      if (GuardTriggered(dict, dm)) {
        fallback = true;
      } else {
        XVM_RETURN_IF_ERROR(RunPass(/*is_delete=*/true, dm, region,
                                    /*with_region=*/true, dict, store, lattice,
                                    plans, &sim, &out));
        PdmtMirror(store, region, &sim);
        SnowcapDeleteMirror(region, &lattice);
      }
    }
    if (!applied.inserted_nodes.empty() && !fallback) {
      if (GuardTriggered(dict, dp)) {
        fallback = true;
      } else {
        XVM_RETURN_IF_ERROR(RunPass(/*is_delete=*/false, dp, region,
                                    /*with_region=*/!region.empty(), dict,
                                    store, lattice, plans, &sim, &out));
        PimtMirror(store, dp, &sim);
        // MaintainSnowcapsInsert is deliberately not mirrored: within one
        // statement nothing downstream reads the snowcap rows it adds, so
        // the comparison below is insensitive to it (DESIGN.md).
      }
    }
    store.OnNodesRemoved(applied.deleted_nodes);
    store.OnNodesAdded(applied.inserted_nodes);

    if (fallback) {
      // Production recomputes from the store here; equivalence holds by
      // construction, so the instance only counts as guarded.
      out.guarded = true;
      return out;
    }

    std::vector<CountedTuple> expected =
        EvalViewWithCounts(pat_, StoreLeafSource(&store, &pat_));
    if (mutation_ == DeltaPlanMutation::kNone) {
      XVM_RETURN_IF_ERROR(
          CrossValidate(store, dict, expected, "post-update"));
    }
    bool negative = false;
    std::vector<CountedTuple> actual;
    for (const auto& [key, entry] : sim.entries) {
      if (entry.count == 0) continue;
      if (entry.count < 0) negative = true;
      actual.push_back(CountedTuple{entry.tuple, entry.count});
    }
    SortCounted(&actual);
    SortCounted(&expected);
    out.diverged = negative || !SameCounted(actual, expected);
    if (out.diverged) {
      out.expected = RenderCounted(expected);
      out.actual = RenderCounted(actual);
    }
    return out;
  }

  // ---- driving + shrinking ------------------------------------------------

  void VisitDoc(const DocSpec& spec) {
    if (done_) return;
    if (mutation_ == DeltaPlanMutation::kNone) {
      Built b = BuildDoc(spec);
      StoreIndex store(b.doc.get());
      store.Build();
      std::vector<CountedTuple> ref =
          EvalViewWithCounts(pat_, StoreLeafSource(&store, &pat_));
      Status st = CrossValidate(store, *b.dict, ref, "pre-update");
      if (!st.ok()) {
        failure_ = st;
        done_ = true;
        return;
      }
    }
    for (const StmtSpec& stmt : EnumerateStatements(spec)) {
      for (LatticeStrategy strategy :
           {LatticeStrategy::kSnowcaps, LatticeStrategy::kLeaves}) {
        if (result_.instances_checked >= bounds_.max_instances) {
          result_.truncated = true;
          done_ = true;
          return;
        }
        ++result_.instances_checked;
        StatusOr<Outcome> o = RunInstance(spec, stmt, strategy);
        if (!o.ok()) {
          failure_ = o.status();
          done_ = true;
          return;
        }
        if (o->guarded) {
          ++result_.instances_guarded;
          continue;
        }
        if (o->diverged) {
          DocSpec shrunk = spec;
          StmtSpec s2 = stmt;
          Shrink(&shrunk, &s2, strategy, &*o);
          FillCounterexample(*o, strategy);
          result_.equivalent = false;
          done_ = true;
          return;
        }
      }
    }
  }

  static bool HasSpecChild(const DocSpec& spec, int i) {
    for (const SpecNode& n : spec) {
      if (n.parent == i) return true;
    }
    return false;
  }

  /// Greedy minimization: repeatedly drop childless non-root nodes and clear
  /// texts while the instance still diverges.
  void Shrink(DocSpec* spec, StmtSpec* stmt, LatticeStrategy strategy,
              Outcome* out) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (int d = static_cast<int>(spec->size()) - 1; d >= 1; --d) {
        if (d == stmt->target || HasSpecChild(*spec, d)) continue;
        DocSpec cand = *spec;
        StmtSpec cstmt = *stmt;
        cand.erase(cand.begin() + d);
        for (SpecNode& sn : cand) {
          if (sn.parent > d) --sn.parent;
        }
        if (cstmt.target > d) --cstmt.target;
        StatusOr<Outcome> o = RunInstance(cand, cstmt, strategy);
        if (o.ok() && !o->guarded && o->diverged) {
          *spec = std::move(cand);
          *stmt = cstmt;
          *out = std::move(*o);
          improved = true;
          break;
        }
      }
      if (improved) continue;
      for (size_t i = 0; i < spec->size(); ++i) {
        if ((*spec)[i].text.empty()) continue;
        if (stmt->kind == StmtSpec::Kind::kDeleteText &&
            stmt->target == static_cast<int>(i)) {
          continue;
        }
        DocSpec cand = *spec;
        cand[i].text.clear();
        StatusOr<Outcome> o = RunInstance(cand, *stmt, strategy);
        if (o.ok() && !o->guarded && o->diverged) {
          *spec = std::move(cand);
          *out = std::move(*o);
          improved = true;
          break;
        }
      }
    }
  }

  void FillCounterexample(const Outcome& o, LatticeStrategy strategy) {
    DeltaCounterexample& cx = result_.counterexample;
    cx.document_xml = o.doc_xml;
    cx.statement = o.stmt_desc;
    cx.strategy =
        strategy == LatticeStrategy::kSnowcaps ? "snowcaps" : "leaves";
    cx.term = o.note.set ? o.note.term : "(no single term isolated)";
    cx.plan_excerpt = o.note.plan;
    cx.expected = o.expected;
    cx.actual = o.actual;
  }

  const ViewDefinition& def_;
  const TreePattern& pat_;
  DeltaCheckBounds bounds_;
  DeltaPlanMutation mutation_;
  NodeSet all_;
  // The term-plan tables of the two lattices a view can have (their stored
  // projections do not depend on the lattice).
  ViewPlans snowcap_plans_;
  ViewPlans leaf_plans_;
  std::vector<int> cvn_;
  LabelDomain dom_;
  std::set<unsigned> analyzed_;
  DeltaCheckResult result_;
  Status failure_ = Status::Ok();
  bool done_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public surface.

const char* DeltaPlanMutationName(DeltaPlanMutation m) {
  for (const MutationNameEntry& e : kMutationNames) {
    if (e.mutation == m) return e.name;
  }
  return "unknown";
}

StatusOr<DeltaPlanMutation> ParseDeltaPlanMutation(const std::string& name) {
  std::string known;
  for (const MutationNameEntry& e : kMutationNames) {
    if (name == e.name) return e.mutation;
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return Status::InvalidArgument("unknown delta-plan mutation '" + name +
                                 "' (known: " + known + ")");
}

std::string DeltaCounterexample::ToString() const {
  std::string out = "counterexample (minimized):\n";
  out += "  document:  " + document_xml + "\n";
  out += "  statement: " + statement + "\n";
  out += "  strategy:  " + strategy + "\n";
  out += "  offending term: " + term + "\n";
  out += "  expected (recompute):\n" + expected;
  out += "  actual (delta-rewrite):\n" + actual;
  if (!plan_excerpt.empty()) {
    out += "  term plan:\n" + Indent4(plan_excerpt);
  }
  return out;
}

std::string DeltaCheckResult::ToString() const {
  if (equivalent) {
    std::string out = "proved: instances=" +
                      std::to_string(instances_checked) +
                      ", guarded=" + std::to_string(instances_guarded) +
                      ", terms=" + std::to_string(terms_evaluated);
    if (truncated) out += ", truncated";
    return out;
  }
  return "REFUTED: instances=" + std::to_string(instances_checked) + "\n" +
         counterexample.ToString();
}

StatusOr<DeltaCheckResult> ProveDeltaEquivalence(const ViewDefinition& def,
                                                 const DeltaCheckBounds& bounds,
                                                 DeltaPlanMutation mutation) {
  if (def.pattern().empty()) {
    return Status::InvalidArgument("cannot prove an empty pattern");
  }
  Checker checker(def, bounds, mutation);
  return checker.Prove();
}

namespace {

bool ProveDefaultFromEnv() {
  const char* env = std::getenv("XVM_PROVE_DELTA");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

// atomic: the install gate flag is read by every AddView and settable from
// tests at any time; default (seq_cst) ordering — the relaxed allowlist in
// tools/lint_locks.py is reserved for hot-path counters.
std::atomic<bool>& ProveFlag() {
  static std::atomic<bool> flag(ProveDefaultFromEnv());
  return flag;
}

/// Fingerprint -> verdict cache of the install gate ("" = proved; otherwise
/// the rendered refutation). Heap-allocated so it survives static
/// destruction order.
struct ProveCache {
  Mutex mu;
  std::unordered_map<uint64_t, std::string> verdicts XVM_GUARDED_BY(mu);
};

ProveCache& TheProveCache() {
  static ProveCache* cache = new ProveCache();
  return *cache;
}

}  // namespace

bool DeltaProvingEnabled() { return ProveFlag().load(); }

bool SetDeltaProving(bool enabled) { return ProveFlag().exchange(enabled); }

Status ProveDeltaForInstall(const ViewDefinition& def) {
  if (!DeltaProvingEnabled()) return Status::Ok();
  DeltaCheckBounds bounds;
  bounds.max_doc_nodes = def.pattern().size() <= 3 ? 3 : 2;
  uint64_t fp = Fnv1a64(def.pattern().ToString() + "\n" +
                        std::to_string(bounds.max_doc_nodes) + "\n" +
                        std::to_string(bounds.max_instances));
  ProveCache& cache = TheProveCache();
  {
    MutexLock lock(cache.mu);
    auto it = cache.verdicts.find(fp);
    if (it != cache.verdicts.end()) {
      if (it->second.empty()) return Status::Ok();
      return Status::InvalidArgument("delta-equivalence proof failed for view '" +
                                     def.name() + "':\n" + it->second);
    }
  }
  StatusOr<DeltaCheckResult> result = ProveDeltaEquivalence(def, bounds);
  if (!result.ok()) return result.status();  // infrastructure: do not cache
  std::string verdict = result->equivalent ? "" : result->ToString();
  if (!(result->equivalent && result->truncated)) {
    // Cache only definitive outcomes; a truncated pass proved nothing final.
    MutexLock lock(cache.mu);
    cache.verdicts.emplace(fp, verdict);
  }
  if (!result->equivalent) {
    return Status::InvalidArgument("delta-equivalence proof failed for view '" +
                                   def.name() + "':\n" + verdict);
  }
  return Status::Ok();
}

}  // namespace xvm
