// planlint: install-time linter for view definitions.
//
// Compiles each view of a .lint corpus into the tree-pattern dialect P and
// builds its term-plan table (view/view_plans.h) over the snowcap lattice
// AddView would materialize: the same table, entry for entry, that
// maintenance runs — base evaluation, every Δ-rewrite union term and every
// snowcap-maintenance term, each analyzed and lowered (DESIGN.md §4,
// "Static plan analysis"). Accepted views print their inferred facts;
// rejected views print the compile or analysis diagnostic.
//
// With --prove-delta the structural analysis is replaced by the bounded-
// exhaustive Δ-equivalence prover (algebra/analyze/delta_check.h): each view
// is proved equivalent to recompute-diff on every enumerated tiny instance,
// and refutations print a minimized counterexample. A `mutate` directive
// corrupts the next view's term plans with a named, deliberately-unsound
// rewrite — the negative corpus that well-formedness checking alone accepts.
//
// With --physical each accepted view instead prints the table's *lowered*
// physical plans (algebra/exec/physical.h): the base evaluation plan and
// every Δ-rewrite union term without σ_alive, with the chosen kernel per
// operator and a note explaining each statically elided sort, each
// adaptive check-then-sort and each fused scan, and under each term one
// line per leaf its Δ bounds (view/term_bounds.h). Goldens over this
// output pin kernel selection and bound shapes byte-exactly.
//
// Corpus format, one directive per line (# starts a comment):
//   view NAME xpath id|idval|idcont XPATH-EXPRESSION
//   view NAME pattern PATTERN-DSL
//   mutate MUTATION-NAME            (--prove-delta only; applies to the
//                                    next view directive)
//
// Exit codes: 0 every view accepted, 1 at least one view rejected,
// 2 usage / unreadable file / malformed directive.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/analyze/delta_check.h"
#include "algebra/exec/physical.h"
#include "pattern/from_xpath.h"
#include "view/lattice.h"
#include "view/terms.h"
#include "view/view_def.h"
#include "view/view_plans.h"

namespace xvm {
namespace {

/// Indents every line of a (possibly multi-line) diagnostic by two spaces.
std::string Indent(const std::string& text) {
  std::string out = "  ";
  for (char c : text) {
    out += c;
    if (c == '\n') out += "  ";
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
    out.pop_back();
  }
  return out;
}

StatusOr<ViewDefinition> CompileDirective(const std::string& name,
                                          const std::string& kind,
                                          const std::string& rest) {
  if (kind == "pattern") {
    return ViewDefinition::Create(name, rest);
  }
  if (kind == "xpath") {
    std::istringstream in(rest);
    std::string annot, expr;
    in >> annot;
    std::getline(in, expr);
    while (!expr.empty() && expr.front() == ' ') expr.erase(expr.begin());
    ResultAnnotation result;
    if (annot == "id") {
      result = ResultAnnotation::kId;
    } else if (annot == "idval") {
      result = ResultAnnotation::kIdVal;
    } else if (annot == "idcont") {
      result = ResultAnnotation::kIdCont;
    } else {
      return Status::InvalidArgument("unknown result annotation '" + annot +
                                     "' (want id|idval|idcont)");
    }
    XVM_ASSIGN_OR_RETURN(TreePattern pattern,
                         PatternFromXPathString(expr, result));
    return ViewDefinition::FromPattern(name, std::move(pattern));
  }
  return Status::InvalidArgument("unknown view kind '" + kind +
                                 "' (want xpath|pattern)");
}

/// Proves one view directive Δ-equivalent (--prove-delta mode); returns
/// true iff the proof succeeded.
bool ProveView(const std::string& name, const std::string& kind,
               const std::string& rest, DeltaPlanMutation mutation) {
  auto def = CompileDirective(name, kind, rest);
  if (!def.ok()) {
    std::cout << "view " << name << ": REJECTED (compile)\n"
              << Indent(def.status().message()) << "\n";
    return false;
  }
  DeltaCheckBounds bounds;
  bounds.max_doc_nodes = def->pattern().size() <= 3 ? 3 : 2;
  auto result = ProveDeltaEquivalence(*def, bounds, mutation);
  if (!result.ok()) {
    std::cout << "view " << name << ": REJECTED (prove error)\n"
              << Indent(result.status().message()) << "\n";
    return false;
  }
  if (!result->equivalent) {
    std::cout << "view " << name << ": REJECTED (delta-equivalence)\n"
              << Indent(result->ToString()) << "\n";
    return false;
  }
  std::cout << "view " << name << ": delta-equivalence PROVED\n"
            << Indent(result->ToString()) << "\n";
  return true;
}

/// Builds the term-plan table of one view directive over the snowcap
/// lattice AddView would materialize; its node sets derive from the
/// pattern alone, so no document or store is needed. Prints the rejection
/// and returns nullopt when the directive fails to compile or the table
/// fails analysis.
std::optional<ViewPlans> TableFor(const std::string& name,
                                  const std::string& kind,
                                  const std::string& rest,
                                  std::optional<ViewDefinition>* def) {
  auto compiled = CompileDirective(name, kind, rest);
  if (!compiled.ok()) {
    std::cout << "view " << name << ": REJECTED (compile)\n"
              << Indent(compiled.status().message()) << "\n";
    return std::nullopt;
  }
  def->emplace(std::move(compiled).value());
  ViewPlans plans(**def, ViewLattice(&(*def)->pattern(),
                                     LatticeStrategy::kSnowcaps));
  if (!plans.status().ok()) {
    std::cout << "view " << name << ": REJECTED (plan analysis)\n"
              << Indent(plans.status().message()) << "\n";
    return std::nullopt;
  }
  return plans;
}

/// Dumps the lowered physical plans of one view directive (--physical
/// mode): the base plan, then each union term as the insert side runs it
/// (the delete side only adds a σ_alive over the same kernel choices).
/// Returns true iff the view's table was built.
bool PhysicalView(const std::string& name, const std::string& kind,
                  const std::string& rest) {
  std::optional<ViewDefinition> def;
  std::optional<ViewPlans> plans = TableFor(name, kind, rest, &def);
  if (!plans) return false;
  auto dump = [&](const std::string& title, const PhysicalPlan& phys) {
    std::cout << "view " << name << " " << title << " (sorts elided "
              << phys.sorts_elided_static << ", scans fused "
              << phys.scans_fused << "):\n"
              << Indent(phys.ToString()) << "\n";
  };
  const TermSpace& terms = plans->view();
  dump("base", terms.base);
  for (size_t i = 0; i < terms.size(); ++i) {
    const TermEntry& term = terms.Term(i, /*with_region=*/false);
    dump("term delta=" + NodeSetToString(def->pattern(), term.delta_set) +
             (term.snowcap >= 0 ? " [snowcap R-part]" : ""),
         term.physical);
    const std::string bounds = term.bounds.Describe(def->pattern());
    if (!bounds.empty()) std::cout << Indent(bounds) << "\n";
  }
  return true;
}

/// Lints one view directive; returns true iff the view was accepted.
bool LintView(const std::string& name, const std::string& kind,
              const std::string& rest) {
  std::optional<ViewDefinition> def;
  std::optional<ViewPlans> plans = TableFor(name, kind, rest, &def);
  if (!plans) return false;
  std::cout << plans->Describe(*def);
  return true;
}

enum class Mode { kLint, kProve, kPhysical };

int Run(const std::vector<std::string>& files, Mode mode) {
  size_t views = 0;
  size_t rejected = 0;
  DeltaPlanMutation pending_mutation = DeltaPlanMutation::kNone;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "planlint: cannot open " << path << "\n";
      return 2;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      std::istringstream tok(line);
      std::string word;
      if (!(tok >> word) || word[0] == '#') continue;
      if (word == "mutate") {
        std::string mname;
        if (mode != Mode::kProve || !(tok >> mname)) {
          std::cerr << "planlint: " << path << ":" << lineno
                    << ": mutate directive requires --prove-delta and a "
                       "mutation name\n";
          return 2;
        }
        auto mutation = ParseDeltaPlanMutation(mname);
        if (!mutation.ok()) {
          std::cerr << "planlint: " << path << ":" << lineno << ": "
                    << mutation.status().message() << "\n";
          return 2;
        }
        pending_mutation = *mutation;
        continue;
      }
      std::string name, kind, rest;
      if (word != "view" || !(tok >> name >> kind)) {
        std::cerr << "planlint: " << path << ":" << lineno
                  << ": malformed directive (want: view NAME xpath|pattern "
                     "...)\n";
        return 2;
      }
      std::getline(tok, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
      ++views;
      bool ok = mode == Mode::kProve
                    ? ProveView(name, kind, rest, pending_mutation)
                    : mode == Mode::kPhysical ? PhysicalView(name, kind, rest)
                                              : LintView(name, kind, rest);
      pending_mutation = DeltaPlanMutation::kNone;
      if (!ok) ++rejected;
    }
  }
  std::cout << "planlint: " << views << " view(s), " << rejected
            << " rejected\n";
  return rejected == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xvm

int main(int argc, char** argv) {
  xvm::Mode mode = xvm::Mode::kLint;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--prove-delta") {
      mode = xvm::Mode::kProve;
    } else if (arg == "--physical") {
      mode = xvm::Mode::kPhysical;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) {
    std::cerr << "usage: planlint [--prove-delta|--physical] <views-file>...\n";
    return 2;
  }
  return xvm::Run(files, mode);
}
