#!/usr/bin/env python3
"""nd-lab benchmark: one closed-loop client driving ``ndlab.cli.main``.

    python3 bench/run.py --workload analyze-corpus --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (see README.md for why each exists):

* ``analyze-corpus``  - ``analyze tx.json rx.json --out ...`` on a seeded
  corpus of 121 protocol pairs from all six generators;
* ``collision-sweep`` - ``simulate cfg.json --out-dir ...`` on the
  criterion-7 collision set-up at S = 2, 5, 10 and on identical Disco
  devices;
* ``bound-curves``    - ``bounds --sweep`` plus ``bounds --deviation`` for
  seeded (omega, alpha) choices.

Operations run in whole rounds (every operation of the workload once)
until at least ``--seconds`` of operation time and 100 operations have
passed.  Every answer is checked (checks.py).  With ``--trace 0`` the last
line of stdout holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  A result file with the run context
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 11
#: The virtual machines this runs on change speed by +-25% over tens of
#: seconds, so every timing is rescaled by a calibration loop timed next to
#: it: value = wall time * CAL_NOMINAL_S / calibration loop time.  The
#: loop took CAL_NOMINAL_S on the 2-core VM the benchmark was defined on in
#: its fast phase.  Raw wall-clock values go to the result file as well.
CAL_NOMINAL_S = 0.003
#: Seconds between calibrations during the timed rounds.
CAL_EVERY_S = 0.1
#: Operations per run at least, so that p90 has ten samples beyond it.
MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}
PER_LAYER = {
    "cli.analyze.self_ms": "ms",
    "cli.simulate.self_ms": "ms",
    "cli.bounds.self_ms": "ms",
    "schedule.load_protocol.ms": "ms",
    "protocols.generate.ms": "ms",
    "coverage.build_coverage_map.ms": "ms",
    "coverage.analyze.ms": "ms",
    "coverage.oracle.ms": "ms",
    "coverage.oracle_full.ms": "ms",
    "coverage.oracle_endpoints.ms": "ms",
    "coverage.oracle.scan_bound_steps": "steps",
    "intervals.normalize.calls": "count",
    "intervals.intersect.calls": "count",
    "intervals.subtract.calls": "count",
    "intervals.shift_mod.calls": "count",
    "intervals.contains.calls": "count",
    "intervals.self_ms": "ms",
    "simulator.us_per_trial.S2": "us",
    "simulator.us_per_trial.S5": "us",
    "simulator.us_per_trial.S10": "us",
    "simulator.us_per_trial.disco": "us",
    "bounds.bound_symmetric.us_per_call": "us",
    "bounds.bound_relaxed.us_per_call": "us",
    "bounds.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}
#: What one unit of work_per_s is, per workload, and the name the
#: workload's own throughput goes by.
WORK_UNIT = {
    "analyze-corpus": ("pairs", "analyze_pairs_per_s"),
    "collision-sweep": ("trials", "simulate_trials_per_s"),
    "bound-curves": ("rows", "bounds_rows_per_s"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORK_UNIT))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# set-up and operations
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, workdir: str, tracer=None):
    """Import the package afresh and generate the workload's inputs; returns
    (operations, start time, end time).  The input files are written after
    the end time: file-system latency on a shared host varies far more than
    the interpreter's speed, and the writes are not the package's work."""
    import tracing
    import workloads

    for name in [m for m in sys.modules if m == "ndlab" or m.startswith("ndlab.")]:
        del sys.modules[name]
    start = time.perf_counter()
    import ndlab.cli  # noqa: F401

    if tracer is not None:
        tracing.patch_generators(tracer)
    try:
        ops = workloads.SETUP[workload](seed, workdir)
    finally:
        if tracer is not None:
            tracer.restore()
    end = time.perf_counter()
    workloads.write_inputs(ops)
    return ops, start, end


def _calibration_loop() -> int:
    """Fixed interpreter work with the same mix as the package's hot loops:
    integer arithmetic, dict and modulo operations."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        k = i % 97
        seen[k] = seen.get(k, 0) + i
        acc += (i * i) % 7
    return acc + len(seen)


class Clock:
    """Rescales wall-clock intervals to the reference speed.  The
    calibration loop runs at least every CAL_EVERY_S, and an interval is
    scaled by the mean of the loops just before and just after it."""

    def __init__(self):
        self.loops: list[tuple[float, float]] = []  # (end time, seconds)

    def calibrate(self) -> None:
        start = time.perf_counter()
        _calibration_loop()
        end = time.perf_counter()
        self.loops.append((end, end - start))

    def tick(self) -> None:
        if not self.loops or time.perf_counter() - self.loops[-1][0] >= CAL_EVERY_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        i = bisect.bisect_right(self.loops, (start, math.inf))
        j = bisect.bisect_right(self.loops, (end, math.inf))
        near = self.loops[max(i - 1, 0):i] + self.loops[j:j + 1]
        return CAL_NOMINAL_S / statistics.mean(d for _, d in near)


def argvs(op: dict) -> list[list[str]]:
    return op["argvs"] if "argvs" in op else [op["argv"]]


def output_paths(op: dict) -> list[str]:
    """The files the operation writes and the checks read."""
    if "out" in op:
        return [op["out"]]
    if "out_dir" in op:
        return [os.path.join(op["out_dir"], "trials.csv")]
    return op["outs"]


def remove_outputs(op: dict) -> None:
    """Delete the outputs a previous operation left, so that an operation
    that writes nothing is checked against a missing file."""
    for path in output_paths(op):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


class Verifier:
    """Checks each operation's output the first time it appears; a later
    identical output (same digest) shares that verdict."""

    def __init__(self, workload: str, seed: int):
        import checks

        self.checks = checks
        self.workload = workload
        self.goldens = checks.load_goldens() if seed == checks.GOLDEN_SEED else None
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def output_key(self, op: dict) -> str:
        try:
            return "".join(self.checks.digest(p) for p in output_paths(op))
        except OSError:
            return "missing"

    def verify(self, op: dict) -> tuple[str, str]:
        key = (op["id"], self.output_key(op))
        if key not in self.verdicts:
            self.verdicts[key] = self._check(op)
        return key

    def _check(self, op: dict) -> list[str]:
        c, g = self.checks, self.goldens
        try:
            if self.workload == "analyze-corpus":
                with open(op["out"]) as fh:
                    report = json.load(fh)
                return c.check_analyze(op, report, None if g is None else g["analyze"][op["id"]])
            if self.workload == "collision-sweep":
                return c.check_simulate(op, None if g is None else g["simulate"][op["id"]])
            return c.check_bounds(op, None if g is None else g["bounds"][op["id"]])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def check_collision_model(self, ops: list[dict]) -> None:
        """The pooled 3-sigma test of the one-beacon configs; a miss marks
        every output it was computed from as wrong."""
        single = [op for op in ops if op.get("single_beacon")]
        if not single:
            return
        try:
            z = self.checks.collision_z(single)
            problem = f"first-collision rate {z:+.2f} sigma from the model" if abs(z) > 3.0 else None
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"first-collision check unreadable: {type(exc).__name__}: {exc}"
        if problem:
            for op in single:
                self.verdicts.setdefault((op["id"], self.output_key(op)), []).append(problem)

    def wrong(self, key) -> bool:
        return bool(self.verdicts.get(key))


def rows_written(op: dict) -> int:
    total = 0
    for path in op["outs"]:
        with open(path) as fh:
            total += sum(1 for _ in fh) - 1
    return total


def run_rounds(cli, ops, seconds, verifier, clock, tracer=None):
    """Whole rounds until ``seconds`` of operation time and MIN_OPS
    operations; returns (samples, rounds).  A sample is (op id, wall
    seconds, exit codes, verdict key, work, calibration scale); a round is
    (wall seconds, calibrated seconds, work).  Traced, each simulate
    operation also records its seconds inside ``simulate_multi``."""
    timed, rounds = [], []
    busy = 0.0
    while busy < seconds or len(timed) < MIN_OPS:
        first = len(timed)
        for op in ops:
            remove_outputs(op)
            clock.tick()
            sim_before = tracer.stats["simulator.simulate_multi"][1] if tracer else 0.0
            with contextlib.redirect_stderr(io.StringIO()) as err:
                start = time.perf_counter()
                if tracer is None:
                    codes = [cli.main(a) for a in argvs(op)]
                else:
                    codes = [tracer.call(f"cli.{a[0]}", cli.main, a) for a in argvs(op)]
                end = time.perf_counter()
            if tracer is not None:
                op.setdefault("sim_s", []).append(
                    tracer.stats["simulator.simulate_multi"][1] - sim_before)
            key = None
            work = 0
            if all(code == 0 for code in codes):
                key = verifier.verify(op)
                if not verifier.wrong(key):
                    work = op["work"] if op["work"] is not None else rows_written(op)
            else:
                op["stderr"] = err.getvalue().strip()
            timed.append((op["id"], start, end, codes, key, work))
            busy += end - start
        if not rounds:
            verifier.check_collision_model(ops)
        rounds.append(len(timed) - first)
    clock.calibrate()
    samples = [(i, end - start, codes, key, work, clock.scale(start, end))
               for i, start, end, codes, key, work in timed]
    out_rounds = []
    pos = 0
    for n in rounds:
        chunk = samples[pos:pos + n]
        pos += n
        out_rounds.append((sum(s[1] for s in chunk), sum(s[1] * s[5] for s in chunk),
                           sum(s[4] for s in chunk)))
    return samples, out_rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def failed_samples(samples, verifier) -> int:
    return sum(1 for s in samples if any(s[2]) or verifier.wrong(s[3]))


def end_to_end(samples, rounds, verifier, setup_times, calibrated=True):
    """The end-to-end metrics as (value, sample count), and how many
    operations lie beyond p90.  Latency quantiles cover answered operations;
    refusals and wrong answers count in failed_frac instead."""
    ok = [s for s in samples if not any(s[2]) and not verifier.wrong(s[3])]
    ok_ms = [s[1] * (s[5] if calibrated else 1.0) * 1e3 for s in ok]
    # with every answer wrong there is no latency; the result says correct: false
    p50 = statistics.median(ok_ms) if ok_ms else 0.0
    p90 = statistics.quantiles(ok_ms, n=10)[8] if len(ok_ms) > 1 else p50
    rates = [work / (cal if calibrated else wall) for wall, cal, work in rounds]
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "work_per_s": (statistics.median(rates), len(rates)),
        "op_ms_p50": (p50, len(ok_ms)),
        "op_ms_p90": (p90, len(ok_ms)),
    }, sum(1 for x in ok_ms if x > p90)


def _per_call(stats, name, factor):
    calls, total, _ = stats.get(name, (0, 0.0, 0.0))
    return total / calls * factor if calls else 0.0


def _ratio(total, n):
    return total / n if n else 0.0


def _intervals_self(stats) -> float:
    return sum(v[2] for n, v in stats.items() if n.startswith("intervals."))


def per_layer(tracer, ops, setup_stats, traced_rounds, plain_rounds, sweep=None):
    """``sweep`` is compare_oracles' (tracer stats, pairs swept), if any."""
    st = tracer.stats
    cli_calls = sum(st[n][0] for n in st if n.startswith("cli."))
    out = {}
    for cmd in ("analyze", "simulate", "bounds"):
        calls, _, self_s = st.get(f"cli.{cmd}", (0, 0.0, 0.0))
        out[f"cli.{cmd}.self_ms"] = self_s / calls * 1e3 if calls else 0.0
    out["schedule.load_protocol.ms"] = _per_call(st, "schedule.load_protocol", 1e3)
    out["protocols.generate.ms"] = setup_stats.get("protocols.generate", (0, 0.0, 0.0))[1] * 1e3
    for name in ("build_coverage_map", "analyze", "oracle", "oracle_full", "oracle_endpoints"):
        out[f"coverage.{name}.ms"] = _per_call(st, f"coverage.{name}", 1e3)
    steps = [op["scan_bound_steps"] for op in ops if "scan_bound_steps" in op]
    out["coverage.oracle.scan_bound_steps"] = statistics.mean(steps) if steps else 0.0
    # per CLI call, plus per swept pair on analyze-corpus (compare_oracles)
    sweep_st, swept = sweep if sweep else ({}, 0)
    for fn in ("normalize", "intersect", "subtract", "shift_mod", "contains"):
        name = f"intervals.{fn}"
        out[f"{name}.calls"] = (_ratio(st.get(name, (0,))[0], cli_calls)
                                + _ratio(sweep_st.get(name, (0,))[0], swept))
    out["intervals.self_ms"] = 1e3 * (_ratio(_intervals_self(st), cli_calls)
                                      + _ratio(_intervals_self(sweep_st), swept))
    groups = {"S2": ["S2"], "S5": ["S5"], "S10": ["S10"], "disco": ["disco3", "disco5"]}
    for label, ids in groups.items():
        sim_s = trials = 0
        for op in ops:
            if op["id"] in ids:
                sim_s += sum(op.get("sim_s", []))
                trials += op["work"] * len(op.get("sim_s", []))
        out[f"simulator.us_per_trial.{label}"] = sim_s / trials * 1e6 if trials else 0.0
    out["bounds.bound_symmetric.us_per_call"] = _per_call(st, "bounds.bound_symmetric", 1e6)
    out["bounds.bound_relaxed.us_per_call"] = _per_call(st, "bounds.bound_relaxed", 1e6)
    bounds_calls = st.get("cli.bounds", (0,))[0]
    b_self = sum(v[2] for n, v in st.items() if n.startswith("bounds."))
    out["bounds.self_ms"] = b_self / bounds_calls * 1e3 if bounds_calls else 0.0
    traced = statistics.median(r[1] for r in traced_rounds)
    plain = statistics.median(r[1] for r in plain_rounds)
    out["trace.overhead_frac"] = traced / plain - 1.0
    return out


def compare_oracles(stats, ops, tracing):
    """Both oracle methods on every pair the CLI analysed, timed apart from
    the CLI path with nothing traced; refused pairs are not timed.

    The CLI's default full method does not reach the endpoints sweep's
    interval calls, so each answered pair then runs one more endpoints
    sweep with the ``intervals`` functions traced.  Returns that sweep's
    tracer stats and the number of pairs it swept."""
    from ndlab.coverage import worst_case_latency_oracle
    from ndlab.errors import HyperperiodTooLarge

    answered = []
    for op in ops:
        for method in ("full", "endpoints"):
            start = time.perf_counter()
            try:
                worst_case_latency_oracle(op["spec"], op["spec"], method=method)
            except (HyperperiodTooLarge, ValueError, TypeError):
                continue
            took = time.perf_counter() - start
            st = stats[f"coverage.oracle_{method}"]
            st[0] += 1
            st[1] += took
            st[2] += took
            if method == "endpoints":
                answered.append(op)
    sweep = tracing.Tracer()
    tracing.patch_intervals(sweep)
    try:
        for op in answered:
            worst_case_latency_oracle(op["spec"], op["spec"], method="endpoints")
    finally:
        sweep.restore()
    return sweep.stats, len(answered)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ndlab", "cli.py")):
        print(f"error: no ndlab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    threads_env = os.environ.pop("ND_LAB_THREADS", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracing

    # one work directory per workload, overwritten by the next run, so that
    # runs do not create and delete hundreds of files each
    workdir = os.path.join(OUT, f"work-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    result = measure(args, workdir, tracing)
    result["context"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "trace": bool(args.trace),
        # the run unsets it; this is the value the caller had set
        "ND_LAB_THREADS": threads_env,
        "seconds": args.seconds,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"nd-lab benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for name, m in result["workload_metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for op_id, problems in sorted(result["problems"].items()):
        print(f"  WRONG {op_id}: {'; '.join(problems)}")
    for op_id, err in sorted(result["refused"].items()):
        print(f"  FAILED {op_id}: {err}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


def measure(args, workdir, tracing) -> dict:
    verifier = Verifier(args.workload, args.seed)
    unit, alias = WORK_UNIT[args.workload]
    clock = Clock()
    raw = {}
    if not args.trace:
        setup_cal, setup_wall = [], []
        for _ in range(SETUP_REPEATS):
            clock.calibrate()
            ops, start, end = set_up(args.workload, args.seed, workdir)
            clock.calibrate()
            setup_cal.append((end - start) * clock.scale(start, end))
            setup_wall.append(end - start)
        cli = sys.modules["ndlab.cli"]
        samples, rounds = run_rounds(cli, ops, args.seconds, verifier, clock)
        e2e, beyond = end_to_end(samples, rounds, verifier, setup_cal)
        metrics = {k: {"value": v, "unit": END_TO_END[k], "samples": n}
                   for k, (v, n) in e2e.items()}
        wall, _ = end_to_end(samples, rounds, verifier, setup_wall, calibrated=False)
        raw = {k: {"value": v, "unit": END_TO_END[k], "samples": n}
               for k, (v, n) in wall.items()}
        work_rate = metrics["work_per_s"]
        extra = {
            alias: {"value": work_rate["value"], "unit": f"{unit}/s",
                    "samples": work_rate["samples"],
                    "work_per_round": rounds[0][2]},
        }
        if args.workload == "analyze-corpus":
            extra["analyze_ms_p50"] = dict(metrics["op_ms_p50"])
            extra["analyze_ms_p90"] = dict(metrics["op_ms_p90"], beyond=beyond)
    else:
        setup_tracer = tracing.Tracer()
        clock.calibrate()
        ops, start, end = set_up(args.workload, args.seed, workdir, setup_tracer)
        clock.calibrate()
        setup_scale = clock.scale(start, end)
        cli = sys.modules["ndlab.cli"]
        half = args.seconds / 2
        samples, plain_rounds = run_rounds(cli, ops, half, verifier, clock)
        tracer = tracing.Tracer()
        tracing.patch_layers(tracer)

        try:
            traced, traced_rounds = run_rounds(cli, ops, half, verifier, clock, tracer)
        finally:
            tracer.restore()
        samples += traced
        sweep = None
        if args.workload == "analyze-corpus":
            sweep = compare_oracles(tracer.stats, ops, tracing)
        layers = per_layer(tracer, ops, setup_tracer.stats,
                           traced_rounds, plain_rounds, sweep)
        # layer times in reference-speed units too, like the end-to-end ones
        scale = statistics.median(s[5] for s in traced)
        for k, u in PER_LAYER.items():
            if u in ("ms", "us"):
                layers[k] *= setup_scale if k == "protocols.generate.ms" else scale
        metrics = {k: {"value": layers[k], "unit": u, "samples": None}
                   for k, u in PER_LAYER.items()}
        tracer.write_spans(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        extra = {}
    failed = failed_samples(samples, verifier)
    problems = {}
    for (op_id, _), found in verifier.verdicts.items():
        if found:
            problems[op_id] = found
    refused = {op["id"]: op["stderr"] for op in ops if op.get("stderr")}
    extra["failed_frac"] = {"value": failed / len(samples), "unit": "ratio",
                            "samples": len(samples)}
    return {
        "workload": args.workload,
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "workload_metrics": extra,
        "wall_clock_metrics": raw,
        "calibration": {"nominal_s": CAL_NOMINAL_S,
                        "median_scale": statistics.median(s[5] for s in samples)},
        "problems": problems,
        "refused": refused,
    }


if __name__ == "__main__":
    sys.exit(main())
