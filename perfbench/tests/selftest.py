#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at a tiny document size.

    python3 perfbench/tests/selftest.py

For every workload it runs the benchmark once untraced and once traced on a
64 KB document for one second, and checks that

  * both runs exit 0 with "correct": true, which covers the traced replica
    matching the ViewManager run, every bulk_churn cycle returning the live
    node count to its start, views matching recomputation and recovered
    snapshots matching the live ones;
  * the metric names and units each run prints are exactly the end_to_end
    (untraced) or per_layer (traced) entries of BENCHMARK.json;
  * bulk_churn completed at least one whole round of cycles;

and that the benchmark, copied alone next to BENCHMARK.json without the
source tree, exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
DOC_KB = "64"
BULK_ROUND = 13  # statements in one round of bulk_churn's seven cycles


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = run([sys.executable, str(RUN), "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace",
                        str(trace), "--doc-kb", DOC_KB], ROOT)
            result = result_of(done) if done.returncode == 0 else None
            if result is None:
                errors.append(f"{label}: exit {done.returncode}\n"
                              f"{done.stderr[-2000:]}")
                continue
            if result.get("correct") is not True:
                errors.append(f"{label}: correct is not true")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                errors.append(f"{label}: metrics differ from BENCHMARK.json;"
                              f" missing {missing}, not listed {extra},"
                              f" unit mismatch {units}")
            if workload == "bulk_churn" and result["attempted"] < BULK_ROUND:
                errors.append(f"{label}: fewer than one round of cycles")
            print(f"ok   {label}: {result['attempted']} statements")

    # Alone, without the source tree, the benchmark must refuse quickly.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run([sys.executable, str(bare / "perfbench" / "run.py"),
                "--workload", "point_mix", "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("bare copy: expected a non-zero exit and no result")
    else:
        print(f"ok   bare copy exits {done.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
