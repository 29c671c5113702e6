#!/usr/bin/env python3
"""End-to-end maintenance benchmark: one command per workload run.

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from the source tree this directory sits in (the
first run configures and compiles; later runs only check that the build is
current), then runs one seeded workload and relays its output. The last line
of stdout is the JSON result: with --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer ones. The exit code is non-zero when a
correctness check fails, the build fails, or the source tree is missing.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "perfbench-run"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
WORKLOADS = ("point_mix", "bulk_churn", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no xvm source tree around {HERE} (need CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "xvm_e2e",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return BUILD_DIR / "xvm_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--doc-kb", type=int, default=0,
                        help="override the workload's document size "
                             "(self-test only; not a measured setting)")
    args = parser.parse_args()

    binary = build()
    work_dir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-dir", str(TRACE_DIR)]
    if args.doc_kb > 0:
        cmd += ["--doc-kb", str(args.doc_kb)]
    # The engine reads XVM_* variables (cache gate, invariant auditing, ...);
    # drop them so every run measures the compiled defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XVM_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
                              env=env, check=False)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited {done.returncode} without a result")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
