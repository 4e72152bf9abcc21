#!/usr/bin/env python3
"""Build ``goldens.json``: the answers of every operation at the golden
seed, each accepted only when independent engines agree.

    python3 bench/make_goldens.py

* analyze: full and endpoints oracle methods (hyperperiod budget lifted),
  the unidirectional bound for optimal pairs and an exhaustive simulator
  replay for small pairs must all give the same latency; the verdict
  fields come from the CLI with default flags (for the refused budget pair,
  from the CLI with the budget lifted);
* simulate: every trial row must match the independent replay and the
  collision rate must pass the 3-sigma model check; the golden is the
  trials.csv digest;
* bounds: every checked column must match its closed form; the golden is
  the digest of both CSVs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from ndlab import cli  # noqa: E402
from ndlab.coverage import UNBOUNDED, worst_case_latency_oracle  # noqa: E402


def run_cli(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def analyze_goldens(workdir: str) -> dict:
    out = {}
    ops = workloads.setup_analyze(checks.GOLDEN_SEED, workdir)
    workloads.write_inputs(ops)
    for op in ops:
        spec = op["spec"]
        full = worst_case_latency_oracle(spec, spec, method="full",
                                         max_hyperperiod=checks.REFERENCE_BUDGET)
        full = None if full is UNBOUNDED else full
        latency, problems = checks.reference_latency(op)
        if full != latency:
            problems.append(f"full {full} != endpoints {latency}")
        argv = op["argv"]
        if run_cli(argv) != 0:
            argv = argv + ["--method", "endpoints",
                           "--max-hyperperiod", str(checks.REFERENCE_BUDGET)]
            if run_cli(argv) != 0:
                problems.append("the CLI refuses the pair even with the budget lifted")
        with open(op["out"]) as fh:
            answer = checks.analyze_answer(json.load(fh))
        if answer["oracle_latency_ticks"] != latency:
            problems.append(f"CLI {answer['oracle_latency_ticks']} != engines {latency}")
        if problems:
            sys.exit(f"{op['id']} {op['params']}: {'; '.join(problems)}")
        out[op["id"]] = answer
        print(f"{op['id']:16s} latency={latency} small={op['small']}", flush=True)
    return out


def simulate_goldens(workdir: str) -> dict:
    ops = workloads.setup_collision(checks.GOLDEN_SEED, workdir)
    workloads.write_inputs(ops)
    out = {}
    for op in ops:
        if run_cli(op["argv"]) != 0:
            sys.exit(f"{op['id']}: simulate failed")
        problems = checks.check_simulate(op, None)
        if problems:
            sys.exit(f"{op['id']}: {'; '.join(problems)}")
        out[op["id"]] = checks.digest(os.path.join(op["out_dir"], "trials.csv"))
    z = checks.collision_z([op for op in ops if op["single_beacon"]])
    if abs(z) > 3:
        sys.exit(f"collision rate {z:+.2f} sigma from the model")
    print(f"simulate: {len(out)} configs replayed, collision z = {z:+.2f}")
    return out


def bounds_goldens(workdir: str) -> dict:
    out = {}
    for op in workloads.setup_bounds(checks.GOLDEN_SEED, workdir):
        if any(run_cli(a) != 0 for a in op["argvs"]):
            sys.exit(f"{op['id']}: bounds failed")
        problems = checks.check_bounds(op, None)
        if problems:
            sys.exit(f"{op['id']}: {'; '.join(problems)}")
        out[op["id"]] = [checks.digest(p) for p in op["outs"]]
    print(f"bounds: {len(out)} choices recomputed")
    return out


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=HERE)
    try:
        goldens = {
            "seed": checks.GOLDEN_SEED,
            "analyze": analyze_goldens(workdir),
            "simulate": simulate_goldens(workdir),
            "bounds": bounds_goldens(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.GOLDENS_PATH}")


if __name__ == "__main__":
    main()
