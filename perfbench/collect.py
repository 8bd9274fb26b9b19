#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/collect.py OUT_DIR [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1]

Run from the repository root. Writes OUT_DIR/<workload>.<seed>.out (the
run's stdout) for each pair; compare.py reads such directories. Defaults
come from BENCHMARK.json: every workload, seeds 1-10, its run_seconds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            with open(os.path.join(args.out_dir, f"{workload}.{seed}.out"), "w") as out:
                out.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[:120]}", flush=True)
            failures += proc.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
