#!/usr/bin/env python3
"""Compares two sets of benchmark results saved by `run.py --out FILE`.

    python3 perfbench/compare.py --base base1.json base2.json --new new1.json new2.json

Each side's metric is the median over its files, with the quartile spread
(IQR / median) when a side has several files. An end-to-end metric whose new
median is worse than the base median by more than its BENCHMARK.json bound is
flagged WORSE. Warns when the results' stamps differ: host, build, commit,
seed or benchmark version.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    return docs


def stamp_warnings(docs):
    warnings = []
    keys = sorted({k for d in docs for k in d["stamp"]})
    for key in keys:
        values = {json.dumps(d["stamp"].get(key)) for d in docs}
        if len(values) > 1:
            warnings.append(f"stamps differ in {key}: {', '.join(sorted(values))}")
    workloads = {(d["workload"], d["trace"]) for d in docs}
    if len(workloads) > 1:
        warnings.append(f"results mix workloads/modes: {sorted(workloads)}")
    return warnings


def summary(docs, name):
    values = [d["result"]["metrics"][name]["value"] for d in docs
              if name in d["result"]["metrics"]]
    if not values:
        return None, None
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, None
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / abs(median)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    base, new = load(args.base), load(args.new)
    for warning in stamp_warnings(base + new):
        print(f"WARNING: {warning}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    names = [n for n in base[0]["result"]["metrics"] if n in specs]
    worse = 0
    print(f"{'metric':40} {'base':>14} {'new':>14} {'change':>9}  spread(base/new)")
    for name in names:
        b, b_spread = summary(base, name)
        n, n_spread = summary(new, name)
        if b is None or n is None:
            continue
        m = specs[name]
        change = (n - b) / abs(b) if b else 0.0
        regress = -change if m["better"] == "higher" else change
        flag = ""
        if "bound" in m and regress > m["bound"]:
            flag = f"  WORSE (bound {m['bound']:.0%})"
            worse += 1
        spreads = "/".join("-" if s is None else f"{s:.1%}" for s in (b_spread, n_spread))
        print(f"{name:40} {b:14.6g} {n:14.6g} {change:+9.1%}  {spreads}{flag}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
