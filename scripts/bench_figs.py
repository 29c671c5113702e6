#!/usr/bin/env python3
"""Paper-figure trajectory: the headline rows of every bench_fig* binary.

    python3 scripts/bench_figs.py --build build --label change --out BENCH_figs.json
    python3 scripts/bench_figs.py --build build --diff BENCH_figs.json

Runs every build/bench/bench_fig* binary once at a fixed document scale
(XVM_SCALE=0.1), XVM_REPS=3 and one propagation worker; each bench
generates its documents from its own fixed seed. Every table row a bench
prints becomes one entry, keyed by figure and row label, with its numeric
columns.

--out appends the run under --label to the JSON file's "runs" list
(replacing a run with the same label), so the file keeps a trajectory of
labelled runs. --diff compares a fresh run with the last run in the file and
prints, per figure, the median ratio of the timing columns and every row
whose non-timing columns (node and tuple counts) differ. It only reports:
its exit code is 0 whatever the numbers are.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

NUM = re.compile(r"^-?\d+(\.\d+)?(e[-+]?\d+)?x?$")
SCALE = 0.1  # large enough that the figures' ms-scale cells are not all noise


def is_timing(column):
    """Timing-derived columns: durations (Figs. 29-32 name theirs
    *_eval_R, *_update_U, *_total), rates and speed-up ratios."""
    return (column.endswith(("ms", "_s", "us", "_R", "_U", "_total"))
            or column == "s" or "per_s" in column
            or column in ("speedup", "ratio", "gap"))


def number(tok):
    return float(tok[:-1] if tok.endswith("x") else tok)


def parse(text):
    """Figure -> row label -> {column: value} for every table row."""
    figs = {}
    fig = None
    header = None
    section = ""
    for line in text.splitlines():
        banner = re.match(r"^==== (.+) ====$", line)
        if banner:
            fig = banner.group(1)
            figs.setdefault(fig, {})
            header, section = None, ""
            continue
        if fig is None:
            continue
        toks = line.split()
        if not toks:
            header = None
            continue
        sub = re.match(r"^-+ (.+?) -+$", line.strip())
        if sub:
            section = sub.group(1) + " / "
            header = None
            continue
        # "label   12.345 ms" summary lines carry their unit last.
        unit = None
        if len(toks) > 2 and toks[-1] in ("ms", "us", "s") and NUM.match(toks[-2]):
            unit = toks.pop()
        nums = 0
        while nums < len(toks) and NUM.match(toks[len(toks) - 1 - nums]):
            nums += 1
        if nums == 0:
            if len(toks) >= 2:
                header = toks
            continue
        if nums == len(toks):
            nums -= 1  # a numeric first column ("doc_kb") labels the row
        key = section + " ".join(toks[:len(toks) - nums])
        values = [number(t) for t in toks[len(toks) - nums:]]
        if unit is not None:
            figs[fig][key] = {unit: values[-1]}
        elif header is not None and len(header) == nums + 1:
            figs[fig][key] = dict(zip(header[1:], values))
    return {f: rows for f, rows in figs.items() if rows}


def run(build, scale=SCALE):
    bench_dir = Path(build) / "bench"
    bins = sorted(p for p in bench_dir.glob("bench_fig*") if os.access(p, os.X_OK))
    if not bins:
        sys.exit(f"bench_figs: no bench_fig* binaries under {bench_dir}")
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, XVM_SCALE=str(scale), XVM_REPS="3",
                   XVM_WORKERS="1",
                   XVM_METRICS_JSON=str(Path(tmp) / "metrics.json"))
        for b in bins:
            out = subprocess.run([str(b.resolve())], cwd=tmp, env=env,
                                 capture_output=True, text=True, timeout=1800,
                                 check=True)
            for fig, rows in parse(out.stdout).items():
                figures[f"{b.name}: {fig}"] = rows
    return figures


def diff(old, new):
    for fig in sorted(set(old) | set(new)):
        a, b = old.get(fig, {}), new.get(fig, {})
        ratios = []
        changed = []
        for key in sorted(set(a) | set(b)):
            ra, rb = a.get(key), b.get(key)
            if ra is None or rb is None:
                changed.append(f"    {key}: only in {'new' if ra is None else 'old'}")
                continue
            for col in sorted(set(ra) | set(rb)):
                va, vb = ra.get(col), rb.get(col)
                if is_timing(col):
                    if va and vb is not None:
                        ratios.append(vb / va)
                elif va != vb:
                    changed.append(f"    {key} {col}: {va} -> {vb}")
        med = f"{statistics.median(ratios):.2f}x" if ratios else "n/a"
        print(f"{fig}: timing median new/old {med} over {len(ratios)} cells")
        for line in changed:
            print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build")
    parser.add_argument("--label")
    parser.add_argument("--out")
    parser.add_argument("--diff")
    args = parser.parse_args()
    if not args.out and not args.diff:
        parser.error("need --out or --diff")
    figures = run(args.build)
    if args.diff:
        try:
            runs = json.loads(Path(args.diff).read_text())["runs"]
        except (OSError, ValueError, KeyError) as err:
            print(f"bench_figs: cannot read {args.diff}: {err}")
            return
        last = runs[-1]
        if last.get("scale") != SCALE:
            print(f"bench_figs: note: {args.diff} was run at scale "
                  f"{last.get('scale')}, this run at {SCALE}")
        print(f"bench_figs: this tree vs '{last.get('label')}' in {args.diff}")
        diff(last["figures"], figures)
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {"runs": []}
        data["runs"] = [r for r in data["runs"] if r.get("label") != args.label]
        data["runs"].append({"label": args.label, "scale": SCALE,
                             "reps": 3, "workers": 1, "figures": figures})
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
