#ifndef XVM_XPATH_XPATH_EVAL_H_
#define XVM_XPATH_XPATH_EVAL_H_

#include <vector>

#include "xml/document.h"
#include "xpath/xpath_ast.h"

namespace xvm {

/// Evaluates an absolute XPath expression against `doc`, returning matching
/// nodes in document order without duplicates. This is the "Find Target
/// Nodes" substrate (the role Saxon plays in the paper's implementation,
/// §6.1): update statements locate their target nodes with it. A step with
/// an `[@a = "lit"]` conjunct (top level or under `and`) starts from the
/// document's attribute-value index, so `/site/people/person[@id="p7"]`
/// costs O(|targets|); other steps walk, and nested `//` contexts are
/// walked once (DESIGN.md §2 "Target location").
std::vector<NodeHandle> EvalXPath(const Document& doc, const XPathExpr& expr);

/// Evaluates the relative path `steps` starting from `context`.
std::vector<NodeHandle> EvalXPathFrom(const Document& doc, NodeHandle context,
                                      const std::vector<XPathStep>& steps);

/// Parses and evaluates in one call; returns InvalidArgument on parse error.
StatusOr<std::vector<NodeHandle>> EvalXPathString(const Document& doc,
                                                  std::string_view path);

}  // namespace xvm

#endif  // XVM_XPATH_XPATH_EVAL_H_
