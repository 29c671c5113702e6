#include "xpath/xpath_eval.h"

#include <algorithm>
#include <memory>

namespace xvm {

namespace {

/// The context of an absolute path's first step: the document node, whose
/// only child is the root element and whose descendants are all nodes.
constexpr NodeHandle kDocumentNode = kNullNode;

struct Step;

/// A predicate with its node tests resolved against one document.
struct Pred {
  XPathPredicate::Kind kind = XPathPredicate::Kind::kExists;
  bool self_only = false;  // the path is "." alone
  std::vector<Step> steps;
  const std::string* literal = nullptr;
  std::vector<Pred> children;  // kAnd / kOr
};

/// A step whose name test is resolved to a LabelId once per evaluation.
struct Step {
  XPathAxis axis = XPathAxis::kChild;
  XPathTest test = XPathTest::kName;
  LabelId label = kInvalidLabel;  // kName / kAttribute
  std::vector<Pred> preds;
  // An `[@a = "lit"]` conjunct, at the top level of a predicate or under
  // `and`: the step's candidates are the parents of the indexed @a nodes.
  // Null index_value: no such conjunct.
  LabelId index_label = kInvalidLabel;
  const std::string* index_value = nullptr;
  // The step's name test names a label the dictionary has never seen.
  bool empty = false;
};

LabelId AttributeLabel(const LabelDict& dict, const std::string& name) {
  return dict.Lookup("@" + name);
}

/// True iff `p` is `@a = "lit"` with one predicate-free child attribute step.
bool IsIndexable(const XPathPredicate& p) {
  if (p.kind != XPathPredicate::Kind::kEquals || p.path.leading_self ||
      p.path.steps.size() != 1) {
    return false;
  }
  const XPathStep& s = p.path.steps[0];
  return s.axis == XPathAxis::kChild && s.test == XPathTest::kAttribute &&
         s.predicates.empty();
}

/// The first indexable conjunct of `p`, looking through `and` only.
const XPathPredicate* FindIndexable(const XPathPredicate& p) {
  if (IsIndexable(p)) return &p;
  if (p.kind != XPathPredicate::Kind::kAnd) return nullptr;
  for (const XPathPredicate& c : p.children) {
    if (const XPathPredicate* found = FindIndexable(c)) return found;
  }
  return nullptr;
}

Step Resolve(const LabelDict& dict, const XPathStep& s);

Pred Resolve(const LabelDict& dict, const XPathPredicate& p) {
  Pred out;
  out.kind = p.kind;
  out.self_only = p.path.leading_self && p.path.steps.empty();
  out.literal = &p.literal;
  for (const XPathStep& s : p.path.steps) out.steps.push_back(Resolve(dict, s));
  for (const XPathPredicate& c : p.children) {
    out.children.push_back(Resolve(dict, c));
  }
  return out;
}

Step Resolve(const LabelDict& dict, const XPathStep& s) {
  Step out;
  out.axis = s.axis;
  out.test = s.test;
  if (s.test == XPathTest::kName) out.label = dict.Lookup(s.name);
  if (s.test == XPathTest::kAttribute) out.label = AttributeLabel(dict, s.name);
  out.empty = (s.test == XPathTest::kName || s.test == XPathTest::kAttribute) &&
              out.label == kInvalidLabel;
  for (const XPathPredicate& p : s.predicates) {
    out.preds.push_back(Resolve(dict, p));
    if (out.index_value != nullptr) continue;
    const XPathPredicate* eq = FindIndexable(p);
    if (eq == nullptr) continue;
    out.index_label = AttributeLabel(dict, eq->path.steps[0].name);
    out.index_value = &eq->literal;
  }
  return out;
}

bool Matches(const Node& n, const Step& s) {
  switch (s.test) {
    case XPathTest::kName:
      return n.kind == NodeKind::kElement && n.label == s.label;
    case XPathTest::kAnyElement:
      return n.kind == NodeKind::kElement;
    case XPathTest::kAttribute:
      return n.kind == NodeKind::kAttribute && n.label == s.label;
    case XPathTest::kText:
      return n.kind == NodeKind::kText;
    case XPathTest::kSelf:
      return true;
  }
  return false;
}

/// Evaluates resolved paths. Node sets are kept in document order without
/// duplicates; scratch vectors are pooled across candidates and steps.
class Evaluator {
 public:
  explicit Evaluator(const Document& doc) : doc_(doc) {}

  /// Replaces `*nodes` (document order, no duplicates) by the result of
  /// `steps` from them.
  void EvalSteps(const std::vector<Step>& steps,
                 std::vector<NodeHandle>* nodes) {
    std::unique_ptr<std::vector<NodeHandle>> next = Acquire();
    for (const Step& step : steps) {
      if (nodes->empty()) break;
      next->clear();
      EvalStep(step, *nodes, next.get());
      nodes->swap(*next);
    }
    Release(std::move(next));
  }

 private:
  std::unique_ptr<std::vector<NodeHandle>> Acquire() {
    if (pool_.empty()) return std::make_unique<std::vector<NodeHandle>>();
    std::unique_ptr<std::vector<NodeHandle>> v = std::move(pool_.back());
    pool_.pop_back();
    v->clear();
    return v;
  }
  void Release(std::unique_ptr<std::vector<NodeHandle>> v) {
    pool_.push_back(std::move(v));
  }

  /// Whether `h` passes the step's test and all its predicates.
  bool Accepts(NodeHandle h, const Step& step) {
    if (!Matches(doc_.node(h), step)) return false;
    for (const Pred& p : step.preds) {
      if (!EvalPred(h, p)) return false;
    }
    return true;
  }

  /// Appends the nodes `step` selects from `contexts` to `out` in document
  /// order without duplicates.
  void EvalStep(const Step& step, const std::vector<NodeHandle>& contexts,
                std::vector<NodeHandle>* out) {
    if (step.empty) return;
    if (step.index_value != nullptr) {
      IndexStep(step, contexts, out);
      SortUnique(out);
      return;
    }
    if (step.axis == XPathAxis::kChild) {
      for (NodeHandle ctx : contexts) {
        if (ctx == kDocumentNode) {
          if (Accepts(doc_.root(), step)) out->push_back(doc_.root());
          continue;
        }
        for (NodeHandle c = doc_.node(ctx).first_child; c != kNullNode;
             c = doc_.node(c).next_sibling) {
          if (Accepts(c, step)) out->push_back(c);
        }
      }
      SortUnique(out);
      return;
    }
    // Descendant axis. A context inside the last walked subtree is reached
    // by that walk, and contexts come in document order, so one merge skips
    // it: every node is visited at most once, whatever the nesting.
    size_t next = 0;
    while (next < contexts.size()) {
      const NodeHandle ctx = contexts[next++];
      const NodeHandle top = ctx == kDocumentNode ? doc_.root() : ctx;
      NodeHandle d = ctx == kDocumentNode ? top : doc_.PreorderNext(top, top);
      for (; d != kNullNode; d = doc_.PreorderNext(d, top)) {
        if (next < contexts.size() && contexts[next] == d) ++next;
        if (Accepts(d, step)) out->push_back(d);
      }
    }
  }

  /// Candidates of an indexed step: the parents of the matching attribute
  /// nodes, kept if they lie on its axis from some context and pass the
  /// step's test and predicates. Unordered.
  void IndexStep(const Step& step, const std::vector<NodeHandle>& contexts,
                 std::vector<NodeHandle>* out) {
    std::unique_ptr<std::vector<NodeHandle>> attrs = Acquire();
    doc_.FindAttributes(step.index_label, *step.index_value, attrs.get());
    if (attrs->empty()) {
      Release(std::move(attrs));
      return;
    }
    std::unique_ptr<std::vector<NodeHandle>> sorted = Acquire();
    sorted->assign(contexts.begin(), contexts.end());
    std::sort(sorted->begin(), sorted->end());
    auto is_context = [&sorted](NodeHandle h) {
      return std::binary_search(sorted->begin(), sorted->end(), h);
    };
    for (NodeHandle a : *attrs) {
      const NodeHandle p = doc_.node(a).parent;
      if (p == kNullNode) continue;
      // The document node is kNullNode, the root's parent, so the walk up
      // reaches it like any other context.
      NodeHandle up = doc_.node(p).parent;
      bool on_axis = is_context(up);
      if (step.axis == XPathAxis::kDescendant) {
        while (!on_axis && up != kNullNode) {
          up = doc_.node(up).parent;
          on_axis = is_context(up);
        }
      }
      if (on_axis && Accepts(p, step)) out->push_back(p);
    }
    Release(std::move(sorted));
    Release(std::move(attrs));
  }

  void SortUnique(std::vector<NodeHandle>* nodes) const {
    const Document& doc = doc_;
    std::sort(nodes->begin(), nodes->end(),
              [&doc](NodeHandle a, NodeHandle b) {
                return doc.node(a).id < doc.node(b).id;
              });
    nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
  }

  /// XPath string value of `h` equals `lit`, without building it.
  bool StringValueEquals(NodeHandle h, const std::string& lit) const {
    const Node& n = doc_.node(h);
    if (n.kind != NodeKind::kElement) return n.text == lit;
    size_t pos = 0;
    for (NodeHandle c = h; c != kNullNode; c = doc_.PreorderNext(c, h)) {
      const Node& cn = doc_.node(c);
      if (cn.kind != NodeKind::kText) continue;
      if (lit.compare(pos, cn.text.size(), cn.text) != 0) return false;
      pos += cn.text.size();
    }
    return pos == lit.size();
  }

  /// Whether one of the nodes a comparison path selects satisfies `pred`
  /// (XPath's existential comparison).
  bool Satisfies(NodeHandle h, const Pred& pred) const {
    if (pred.kind == XPathPredicate::Kind::kExists) return true;
    const bool eq = StringValueEquals(h, *pred.literal);
    return pred.kind == XPathPredicate::Kind::kEquals ? eq : !eq;
  }

  bool EvalPred(NodeHandle ctx, const Pred& pred) {
    switch (pred.kind) {
      case XPathPredicate::Kind::kAnd:
        return EvalPred(ctx, pred.children[0]) &&
               EvalPred(ctx, pred.children[1]);
      case XPathPredicate::Kind::kOr:
        return EvalPred(ctx, pred.children[0]) ||
               EvalPred(ctx, pred.children[1]);
      case XPathPredicate::Kind::kExists:
      case XPathPredicate::Kind::kEquals:
      case XPathPredicate::Kind::kNotEquals:
        break;
    }
    if (pred.self_only) return Satisfies(ctx, pred);
    std::unique_ptr<std::vector<NodeHandle>> nodes = Acquire();
    nodes->push_back(ctx);
    EvalSteps(pred.steps, nodes.get());
    bool found = false;
    for (NodeHandle h : *nodes) {
      if (Satisfies(h, pred)) {
        found = true;
        break;
      }
    }
    Release(std::move(nodes));
    return found;
  }

  const Document& doc_;
  std::vector<std::unique_ptr<std::vector<NodeHandle>>> pool_;
};

std::vector<NodeHandle> EvalResolved(const Document& doc,
                                     const std::vector<XPathStep>& steps,
                                     NodeHandle context) {
  std::vector<Step> resolved;
  resolved.reserve(steps.size());
  for (const XPathStep& s : steps) resolved.push_back(Resolve(doc.dict(), s));
  std::vector<NodeHandle> nodes = {context};
  Evaluator(doc).EvalSteps(resolved, &nodes);
  return nodes;
}

}  // namespace

std::vector<NodeHandle> EvalXPath(const Document& doc, const XPathExpr& expr) {
  if (doc.root() == kNullNode || expr.steps.empty()) return {};
  return EvalResolved(doc, expr.steps, kDocumentNode);
}

std::vector<NodeHandle> EvalXPathFrom(const Document& doc, NodeHandle context,
                                      const std::vector<XPathStep>& steps) {
  if (steps.empty()) return {context};
  return EvalResolved(doc, steps, context);
}

StatusOr<std::vector<NodeHandle>> EvalXPathString(const Document& doc,
                                                  std::string_view path) {
  XVM_ASSIGN_OR_RETURN(XPathExpr expr, ParseXPath(path));
  return EvalXPath(doc, expr);
}

}  // namespace xvm
