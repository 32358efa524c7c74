#!/usr/bin/env python3
"""Perf-regression gate over sfs_bench JSON documents.

Diffs a fresh `sfs_bench --filter abl_engine_throughput --timing --repeat N
--json candidate.json` run against the checked-in baseline (BENCH_engine.json
at the repo root) and fails when any cell's best-of-reps ns/event regresses by
more than --tolerance (default 10%).

A "cell" is one timing key of the form `<backend>/t<threads>_p<cpus>/
ns_per_event`; the best (minimum) value across repetitions is compared, which
discards scheduler-noise outliers the same way the recorded baselines do.

Exit codes: 0 ok, 1 regression past tolerance, 2 structural mismatch (missing
file, missing cells, no timing data — e.g. the candidate was run without
--timing).  The full per-cell table is printed in every case, including cells
present only in the candidate (new configs: reported as "new", gated once the
recorded baseline contains them) and cells missing from the candidate.

`--filter REGEX` restricts the comparison to cells whose name matches REGEX
(re.search, so unanchored), applied to BOTH documents symmetrically: a
baseline cell excluded by the filter is not reported missing, and a filtered
candidate cell is neither gated nor appended to the trajectory.  Use it when
the candidate was produced under a reduced matrix (CI smoke runs with
SFS_ENGINE_THROUGHPUT_MAX_THREADS set skip the big parallel cells):

    bench/compare_bench.py --baseline BENCH_engine.json --candidate smoke.json \
        --filter '^timing_wheel'

Optionally appends the candidate's per-cell numbers to the perf trajectory
(BENCH_trajectory.json, a JSON array; one entry per perf-relevant PR):

    bench/compare_bench.py --baseline BENCH_engine.json --candidate fresh.json \
        --append-trajectory BENCH_trajectory.json --label pr6-obs-layer
"""

import argparse
import json
import re
import sys


def load_cells(path):
    """Best (min) ns/event per cell across all runs in an sfs_bench doc."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"compare_bench: cannot read {path}: {err}")
    cells = {}
    for experiment in doc.get("experiments", []):
        for run in experiment.get("runs", []):
            for key, value in run.get("timing", {}).items():
                if key.endswith("/ns_per_event"):
                    cell = key[: -len("/ns_per_event")]
                    cells[cell] = min(cells.get(cell, float("inf")), value)
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON (BENCH_engine.json)")
    parser.add_argument("--candidate", required=True,
                        help="fresh --timing run to gate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed per-cell regression (0.10 = 10%%)")
    parser.add_argument("--filter", metavar="REGEX",
                        help="only compare cells whose name matches REGEX "
                             "(unanchored; applied to baseline and candidate "
                             "alike)")
    parser.add_argument("--append-trajectory", metavar="PATH",
                        help="append the candidate's cells to this JSON array")
    parser.add_argument("--label",
                        help="trajectory entry label (required with "
                             "--append-trajectory)")
    args = parser.parse_args()

    baseline = load_cells(args.baseline)
    candidate = load_cells(args.candidate)
    if not baseline:
        print(f"compare_bench: no ns_per_event cells in {args.baseline}")
        return 2
    if not candidate:
        print(f"compare_bench: no ns_per_event cells in {args.candidate} "
              "(was it run with --timing?)")
        return 2
    if args.filter:
        try:
            pattern = re.compile(args.filter)
        except re.error as err:
            print(f"compare_bench: bad --filter regex: {err}")
            return 2
        baseline = {c: v for c, v in baseline.items() if pattern.search(c)}
        candidate = {c: v for c, v in candidate.items() if pattern.search(c)}
        if not baseline and not candidate:
            print(f"compare_bench: --filter {args.filter!r} matches no cells")
            return 2
    missing = sorted(set(baseline) - set(candidate))
    new_cells = sorted(set(candidate) - set(baseline))

    # Always print the full per-cell table — every cell of either document —
    # so a failing CI log carries the whole picture, not just the first
    # mismatch.  Cells only in the candidate (e.g. a config added this PR) are
    # reported as "new" and gated once they land in the recorded baseline;
    # cells only in the baseline are a structural failure.
    regressions = []
    all_cells = sorted(set(baseline) | set(candidate))
    width = max(len(c) for c in all_cells)
    print(f"{'cell':<{width}}  {'baseline':>10}  {'candidate':>10}  {'delta':>8}")
    for cell in all_cells:
        if cell in missing:
            print(f"{cell:<{width}}  {baseline[cell]:>10.1f}  {'-':>10}  "
                  f"{'':>8}  MISSING FROM CANDIDATE")
            continue
        if cell in new_cells:
            print(f"{cell:<{width}}  {'-':>10}  {candidate[cell]:>10.1f}  "
                  f"{'':>8}  new (not gated)")
            continue
        base, cand = baseline[cell], candidate[cell]
        delta = (cand - base) / base
        flag = "  REGRESSION" if delta > args.tolerance else ""
        print(f"{cell:<{width}}  {base:>10.1f}  {cand:>10.1f}  {delta:>+7.1%}{flag}")
        if delta > args.tolerance:
            regressions.append(cell)

    if missing:
        print(f"\ncompare_bench: candidate is missing {len(missing)} baseline "
              f"cell(s): {', '.join(missing)}")
        return 2

    if args.append_trajectory:
        if not args.label:
            print("compare_bench: --append-trajectory requires --label")
            return 2
        try:
            with open(args.append_trajectory) as f:
                trajectory = json.load(f)
        except (OSError, json.JSONDecodeError):
            trajectory = []
        trajectory = [e for e in trajectory if e.get("label") != args.label]
        trajectory.append({"label": args.label,
                           "cells": {c: candidate[c] for c in sorted(candidate)}})
        with open(args.append_trajectory, "w") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
        print(f"appended '{args.label}' to {args.append_trajectory} "
              f"({len(trajectory)} entries)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} cell(s) regressed more than "
              f"{args.tolerance:.0%}: {', '.join(regressions)}")
        return 1
    extra = f" ({len(new_cells)} new cell(s) not yet gated)" if new_cells else ""
    print(f"\nOK: all {len(baseline)} cells within {args.tolerance:.0%} "
          f"of baseline{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
