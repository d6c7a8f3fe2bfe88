#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

Usage (from the repository root):

    python3 xsbench/run.py --workload proxy|churn --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/xsbench (CMake + Ninja, Release) and is
incremental, so only the first run in a checkout compiles. Build output
goes to stderr. On success the last line of stdout is the benchmark's JSON
result; with --trace 1 the recorded spans are also written as a Chrome
trace-event file under .bench_build/xsbench/traces/. Any failure (missing
sources, build error, crash, malformed result) exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "xsbench"
BINARY = BUILD_DIR / "xsbench"
BUILD_JOBS = "4"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(env):
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no X-Search sources at {ROOT / 'src'}")
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=120, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, timeout=700, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["proxy", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD_DIR / "tmp"))
    try:
        build(env)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 120, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run.py: last output line is not JSON", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"run.py: unexpected result keys {sorted(result)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
