#!/usr/bin/env python3
"""Steadiness self-check: two sets of runs of the same code must agree.

    python3 bench/steady.py

Each set runs the benchmark command from BENCHMARK.json once per seed
1..RUNS (the same seeds in both sets), one run at a time, on every
workload and for BENCHMARK.json's ``run_seconds``.  For every workload and
end-to-end metric it prints each set's median and spread (distance between
the first and third quartile, as a share of the median) and names every
pair whose spread exceeds the metric's bound, or whose two medians differ
by more than the bound.  Exits 1 when any pair is named.  The runs are
written to ``bench/out/steady.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Runs per set and workload.
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported wrong answers:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = list(range(1, RUNS + 1))
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = [[run_once(spec["command"], workload, s, seconds) for s in seeds]
                          for _ in range(2)]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"seeds": seeds, "seconds": seconds, "runs": runs}, fh, indent=1)

    named = []
    print(f"{'workload':16s} {'metric':12s} {'median 1':>12s} {'median 2':>12s} "
          f"{'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    for workload, sets in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r[name] for r in runs_] for runs_ in sets]
            med = [statistics.median(v) for v in values]
            spr = [spread(v) for v in values]
            print(f"{workload:16s} {name:12s} {med[0]:12.5g} {med[1]:12.5g} "
                  f"{spr[0]:9.3f} {spr[1]:9.3f} {bound:6.2f}")
            if abs(med[1] - med[0]) > bound * med[0]:
                named.append(f"{workload}/{name}: medians differ by "
                             f"{abs(med[1] - med[0]) / med[0]:.3f} > {bound}")
            if max(spr) > bound:
                named.append(f"{workload}/{name}: spread {max(spr):.3f} > {bound}")
    for line in named:
        print("UNSTEADY", line)
    return 1 if named else 0


if __name__ == "__main__":
    sys.exit(main())
