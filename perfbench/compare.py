#!/usr/bin/env python3
"""Compare benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py RUNS              # spread of one set
    python3 perfbench/compare.py BASE_RUNS NEW_RUNS  # base vs change

A result set is a directory of <workload>.<seed>.out files, each holding
one run's stdout (collect.py writes them); the last line of each is the
result JSON. Stdlib only.

One set: per (workload, metric), the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(n=4) gives it, and whether it
is within a third of the bound ("steady"), within the bound ("noisy"), or
wider ("too wide").

Two sets: per (workload, metric), the change of the median in the
metric's "worse" direction as a share of the base median, and a verdict:
  regressed   worse by more than the bound
  improved    better by more than the bound
  unchanged   within the bound, and both spreads within the bound
  unresolved  a spread is wider than the bound, unless every run of one
              side beats every run of the other ("better"/"worse (all runs)")
Exits 1 when any row regressed or any run was incorrect.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def load_runs(directory):
    """{workload: {metric: [values]}}, plus the count of incorrect runs."""
    runs, incorrect = {}, 0
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        workload = os.path.basename(path).split(".")[0]
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{path}: no result line", file=sys.stderr)
            incorrect += 1
            continue
        if not result.get("correct") or result.get("failed"):
            print(f"{path}: incorrect ({result.get('failed')} failed)", file=sys.stderr)
            incorrect += 1
        for name, m in result["metrics"].items():
            if m["value"] is not None:
                runs.setdefault(workload, {}).setdefault(name, []).append(float(m["value"]))
    return runs, incorrect


def spread(values):
    """(Q3 - Q1) / median, or None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def fmt(x):
    return "-" if x is None else f"{x:.4g}"


def one_set(runs, meta):
    print(f"{'workload':<15} {'metric':<34} {'n':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  status")
    for workload in sorted(runs):
        for name in sorted(runs[workload]):
            values = runs[workload][name]
            s = spread(values)
            bound = meta.get(name, {}).get("bound")
            status = ""
            if bound is not None and s is not None:
                status = "steady" if s < bound / 3 else "noisy" if s <= bound else "too wide"
            print(f"{workload:<15} {name:<34} {len(values):>3} {fmt(statistics.median(values)):>12} "
                  f"{fmt(s):>8} {fmt(bound):>6}  {status}")
    return 0


def verdict(base, new, bound, lower_is_better):
    """Change in the worse direction (share of base median) and verdict."""
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if lower_is_better else (mb - mn) / mb
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if bound is None:
        return worse, "no bound"
    if any(s > bound for s in spreads):
        better_all = max(new) < min(base) if lower_is_better else min(new) > max(base)
        worse_all = min(new) > max(base) if lower_is_better else max(new) < min(base)
        if better_all:
            return worse, "better (all runs)"
        if worse_all:
            return worse, "worse (all runs)"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if -worse > bound:
        return worse, "improved"
    return worse, "unchanged"


def two_sets(base_runs, new_runs, meta):
    print(f"{'workload':<15} {'metric':<34} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    regressed = False
    for workload in sorted(set(base_runs) & set(new_runs)):
        names = sorted(set(base_runs[workload]) & set(new_runs[workload]))
        for name in names:
            base, new = base_runs[workload][name], new_runs[workload][name]
            m = meta.get(name, {})
            w, v = verdict(base, new, m.get("bound"), m.get("better", "lower") == "lower")
            regressed |= v == "regressed"
            print(f"{workload:<15} {name:<34} {fmt(statistics.median(base)):>12} "
                  f"{fmt(statistics.median(new)):>12} {w:>+9.3f} {fmt(m.get('bound')):>6}  {v}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    meta = load_bench()
    base_runs, bad = load_runs(argv[1])
    if len(argv) == 2:
        status = one_set(base_runs, meta)
    else:
        new_runs, bad_new = load_runs(argv[2])
        bad += bad_new
        status = two_sets(base_runs, new_runs, meta)
    return 1 if bad else status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
