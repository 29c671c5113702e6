#!/usr/bin/env python3
"""Execution-layering lint for the xvm codebase.

All plan execution goes through the physical executor
(src/algebra/exec/): pattern evaluation and view maintenance obtain a
lowered PhysicalPlan and call ExecutePhysicalPlan. Hand-rolled operator
pipelines — the pre-executor EvalNodeRec style of calling join/sort/scan
kernels directly — silently bypass fact-driven kernel selection, the
__exec__ metrics and the executor's invariant audits, so this lint
forbids direct calls to the relational kernels outside src/algebra/,
the one layer that owns them: the kernels themselves, the analyzer, the
symbolic-execution oracle and the executor.

Forbidden call names (harvested from src/algebra/operators.h):
  StructuralJoin SortBy DupElimWithCounts

A second rule keeps plan construction in one place. Every term plan
maintenance runs is built and lowered once, when the view is created, by
its term-plan table (src/view/view_plans.cc); outside src/algebra/ only
that module may call BuildTermPlan (src/algebra/analyze/build_plan.h) or
LowerPlan (src/algebra/exec/physical.h), and LowerPlan also from
src/pattern/compile.cc, the one-shot pattern evaluators.

Every forbidden name must still be declared in its header: a name the
header no longer declares fails the lint, so the lists cannot go stale.

tests/ and bench/ are exempt: property tests and benchmarks compare the
executor against these kernels on purpose. A deliberate production use
must carry `// NOLINT(xvm-exec): <reason>` on the same line.

Exit code 1 on any violation, reported as file:line: [rule] message.
Textual by design, like tools/lint_status.py: no compiler dependency,
runs in milliseconds as a ctest test.
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "examples", "tools")
ALLOWED_PREFIXES = (
    os.path.join("src", "algebra") + os.sep,
)
SUPPRESS = "NOLINT(xvm-exec)"

OPERATORS_HEADER = os.path.join("src", "algebra", "operators.h")
FORBIDDEN = (
    "StructuralJoin",
    "SortBy",
    "DupElimWithCounts",
)

CALL_RE = re.compile(
    r"(?<![\w:.>])(" + "|".join(FORBIDDEN) + r")\s*\("
)

# Plan construction: name -> (declaring header, files allowed to call it
# outside src/algebra/).
VIEW_PLANS = os.path.join("src", "view", "view_plans.cc")
PLAN_BUILDERS = {
    "BuildTermPlan": (os.path.join("src", "algebra", "analyze", "build_plan.h"),
                      (VIEW_PLANS,)),
    "LowerPlan": (os.path.join("src", "algebra", "exec", "physical.h"),
                  (VIEW_PLANS, os.path.join("src", "pattern", "compile.cc"))),
}
PLAN_CALL_RE = re.compile(r"(?<![\w:.>])(" + "|".join(PLAN_BUILDERS) +
                          r")\s*\(")


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving newlines
    and column positions, so the call regex never matches inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_source_files(root):
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, filenames in os.walk(base):
            for f in sorted(filenames):
                if f.endswith((".h", ".cc")):
                    yield os.path.join(dirpath, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/, tests/, ...)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    violations = []
    declared_in = [(OPERATORS_HEADER, name) for name in FORBIDDEN]
    declared_in += [(hdr, name) for name, (hdr, _) in PLAN_BUILDERS.items()]
    for rel_header, name in declared_in:
        header = os.path.join(root, rel_header)
        try:
            with open(header, encoding="utf-8") as f:
                declared = strip_comments_and_strings(f.read())
        except OSError as e:
            print(f"{header}: unreadable: {e}", file=sys.stderr)
            return 2
        if not re.search(r"\b" + name + r"\s*\(", declared):
            violations.append(
                (rel_header, 1, "stale-forbidden-name",
                 f"tools/lint_exec.py lists '{name}', which {rel_header} no "
                 f"longer declares — drop it from tools/lint_exec.py")
            )

    scanned = 0
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        if rel.startswith(ALLOWED_PREFIXES):
            continue
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except OSError as e:
            print(f"{path}: unreadable: {e}", file=sys.stderr)
            return 2
        scanned += 1
        raw_lines = raw.split("\n")
        code = strip_comments_and_strings(raw)
        for m in CALL_RE.finditer(code):
            lineno = code.count("\n", 0, m.start()) + 1
            line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            if SUPPRESS in line:
                continue
            violations.append(
                (rel, lineno, "direct-kernel-call",
                 f"direct call to algebra kernel '{m.group(1)}(...)' outside "
                 f"src/algebra/ — route execution through the physical "
                 f"executor (algebra/exec/), or justify with "
                 f"NOLINT(xvm-exec)")
            )
        for m in PLAN_CALL_RE.finditer(code):
            name = m.group(1)
            if rel in PLAN_BUILDERS[name][1]:
                continue
            lineno = code.count("\n", 0, m.start()) + 1
            violations.append(
                (rel, lineno, "plan-outside-table",
                 f"call to '{name}(...)' outside the term-plan table — read "
                 f"the plan from the view's ViewPlans (view/view_plans.h)"))

    for rel, lineno, rule, msg in sorted(violations):
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"lint_exec: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_exec: OK ({scanned} files outside the execution layer)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
