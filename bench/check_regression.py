#!/usr/bin/env python3
"""Perf-regression gate over BENCH_micro.json and BENCH_fig5.json.

Compares the current run against a committed baseline
(bench/baselines/BENCH_micro.baseline.json or BENCH_fig5.baseline.json)
and fails when any gated stage regresses beyond the threshold. A microbench
stage is gated on its us_per_op. A fig5 row is gated on its p99_ms and
named by its system and sweep labels, e.g. "xsearch-fleet/workers=2/batch=1";
only the rows the baseline holds are gated.

Raw microsecond comparisons across machines gate nothing but CPU models,
so the comparator normalizes first: it computes the median speed ratio
(current/baseline) across all stages and judges each stage against
baseline * median * (1 + threshold). A uniformly slower runner moves the
median and passes; ONE stage regressing (the thing a bad commit does)
stands out against the others and fails. An absolute mode (--absolute)
exists for same-machine A/B runs.

Exit status: 0 clean, 1 regression (or malformed input).

Usage:
  check_regression.py BASELINE CURRENT [--threshold 0.25] [--absolute]
                      [--inject STAGE=FACTOR] [--summary PATH]

--inject multiplies STAGE's current value by FACTOR before comparing —
the CI self-test proving the gate is live: injecting a slowdown past the
threshold into any stage MUST make this script fail.

--summary appends the markdown table to PATH (defaults to
$GITHUB_STEP_SUMMARY when set, so the job summary shows the pre/post
table).
"""

import argparse
import json
import os
import statistics
import sys


# The sweep-label keys a fig5 row may carry, in the order fig5 writes them.
FIG5_LABELS = ("mode", "offered_rps", "sessions", "workers", "batch", "phase")


def fig5_row_name(row):
    labels = [f"{key}={row[key]}" for key in FIG5_LABELS if key in row]
    return "/".join([row["system"]] + labels)


def load_stages(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "rows" in doc:
        stages = {fig5_row_name(r): float(r["p99_ms"]) for r in doc["rows"]}
    else:
        stages = {s["name"]: float(s["us_per_op"]) for s in doc.get("stages", [])}
    if not stages:
        raise ValueError(f"{path}: no stages")
    return stages


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed normalized regression (0.25 = 25%%)")
    parser.add_argument("--absolute", action="store_true",
                        help="skip machine-speed normalization")
    parser.add_argument("--inject", default=None, metavar="STAGE=FACTOR",
                        help="multiply one current stage by FACTOR (gate self-test)")
    parser.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                        help="append the markdown table to this file")
    args = parser.parse_args()

    try:
        baseline = load_stages(args.baseline)
        current = load_stages(args.current)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"check_regression: {err}", file=sys.stderr)
        return 1

    if args.inject:
        stage, _, factor = args.inject.rpartition("=")
        if stage not in current:
            print(f"check_regression: --inject: unknown stage {stage!r}",
                  file=sys.stderr)
            return 1
        current[stage] *= float(factor)
        print(f"# injected synthetic {factor}x slowdown into {stage!r}")

    shared = [name for name in baseline if name in current]
    missing = [name for name in baseline if name not in current]
    if not shared:
        print("check_regression: no shared stages", file=sys.stderr)
        return 1

    scale = 1.0
    if not args.absolute:
        scale = statistics.median(current[n] / baseline[n] for n in shared)

    bar = scale * (1.0 + args.threshold)
    lines = [
        f"# regression gate (threshold {args.threshold:.0%}, "
        f"machine-speed scale {scale:.2f}x)",
        "",
        "| stage | baseline | current | normalized | verdict |",
        "|---|---|---|---|---|",
    ]
    failed = []
    for name in shared:
        ratio = current[name] / baseline[name]
        normalized = ratio / scale
        ok = ratio <= bar
        if not ok:
            failed.append(name)
        lines.append(
            f"| {name} | {baseline[name]:.4g} | {current[name]:.4g} "
            f"| {normalized:.2f}x | {'ok' if ok else '**REGRESSED**'} |")
    for name in missing:
        failed.append(name)
        lines.append(f"| {name} | {baseline[name]:.4g} | missing | - | **MISSING** |")

    table = "\n".join(lines)
    print(table)
    if args.summary:
        try:
            with open(args.summary, "a") as fh:
                fh.write(table + "\n")
        except OSError as err:
            print(f"check_regression: cannot write summary: {err}", file=sys.stderr)

    if failed:
        print(f"\ncheck_regression: FAILED stages: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("\ncheck_regression: all stages within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
