"""Correctness gate for every benchmark operation.

For ``GOLDEN_SEED`` the answers are compared with ``goldens.json``, which
``make_goldens.py`` builds once and only after independent engines agree.
For any other seed the checks do not depend on the seed:

* analyze: the CLI latency must equal the library's endpoints sweep, the
  unidirectional bound for optimal pairs, and an exhaustive simulator
  replay of every phase pair for small pairs;
* simulate: every trial row is replayed from its phases by the code
  below, which shares nothing with the simulator, and the first-beacon
  collision rate of the one-beacon configs must lie within 3 sigma of
  ``bounds.collision_probability``;
* bounds: the eta sweep's symmetric bound and approximation, and every
  deviation-grid row, are recomputed from the closed forms.

Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

GOLDEN_SEED = 0
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: The analyze report fields a golden answer fixes.
ANALYZE_FIELDS = ("oracle_latency_ticks", "unbounded", "deterministic", "redundant",
                  "coverage_lambda", "min_beacons")
#: Lifts the hyperperiod refusal for the reference sweeps, which must answer
#: every pair, the budget pair included.
REFERENCE_BUDGET = 10**12


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_answer(report: dict) -> dict:
    return {k: report.get(k) for k in ANALYZE_FIELDS}


def reference_latency(op: dict) -> tuple[int | None, list[str]]:
    """The pair's worst-case latency by engines other than the CLI's default
    full sweep, with the problems found when they disagree."""
    from ndlab import bounds
    from ndlab.coverage import UNBOUNDED, worst_case_latency_oracle
    from ndlab.schedule import reception_duty_cycle, transmission_duty_cycle
    from ndlab.simulator import exhaustive_pair_worst_case

    spec = op["spec"]
    got = worst_case_latency_oracle(spec, spec, method="endpoints",
                                    max_hyperperiod=REFERENCE_BUDGET)
    latency = None if got is UNBOUNDED else got
    problems = []
    if op["gen"] == "optimal":
        bound = bounds.bound_unidirectional(
            reception_duty_cycle(spec.receptions),
            transmission_duty_cycle(spec.beacons),
            spec.beacons.beacon_duration,
        )
        if latency != bound:
            problems.append(f"endpoints {latency} != unidirectional bound {bound}")
    if op["small"]:
        replay = exhaustive_pair_worst_case(spec, spec)
        if replay != latency:
            problems.append(f"endpoints {latency} != exhaustive replay {replay}")
    return latency, problems


def check_analyze(op: dict, report: dict, expected: dict | None) -> list[str]:
    """``expected`` is the golden answer, or None to check against the
    reference engines."""
    answer = analyze_answer(report)
    if expected is not None:
        return [f"{k}: {answer[k]!r} != golden {expected[k]!r}"
                for k in ANALYZE_FIELDS if answer[k] != expected[k]]
    latency, problems = reference_latency(op)
    if answer["oracle_latency_ticks"] != latency:
        problems.append(f"latency {answer['oracle_latency_ticks']} != reference {latency}")
    if answer["unbounded"] != (latency is None):
        problems.append("unbounded flag disagrees with the latency")
    if answer["deterministic"] != (not report.get("uncovered")):
        problems.append("deterministic flag disagrees with the uncovered spans")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _emissions(spec, phase: int, horizon: int) -> list[int]:
    b = spec.beacons
    out = []
    for tau in b.emission_times:
        out.extend(range((tau - phase - 1) % b.period + 1, horizon + 1, b.period))
    return sorted(out)


def _on_air(spec, phase: int, t: int, width: int) -> bool:
    """Whether a beacon of ``spec`` (at ``phase``, repeating forever)
    overlaps the global interval [t, t + width)."""
    b = spec.beacons
    w = b.beacon_duration
    # a start s overlaps when t - w < s < t + width
    return any((tau - phase - (t - w + 1)) % b.period < width + w - 1
               for tau in b.emission_times)


def _hears(spec, phase: int, t: int, omega: int) -> bool:
    c = spec.receptions
    u = (phase + t) % c.period
    if not any((u - w.start) % c.period < w.duration for w in c.windows):
        return False
    b, r = spec.beacons, spec.radio
    if not b.emission_times:
        return True
    v = (phase + t) % b.period
    deaf = r.d_oRxTx + b.beacon_duration + r.d_oTxRx
    return not any((v - (tau - r.d_oRxTx)) % b.period < deaf for tau in b.emission_times)


def replay_trial(devices, phases, horizon: int):
    """(latency, first beacon collided, failed) of one multi-device trial
    under pure ALOHA, for ideal-semantics devices with repeating beacons."""
    joiner = devices[0]
    omega = joiner.beacons.beacon_duration
    emissions = _emissions(joiner, phases[0], horizon)
    if not emissions:
        return None, False, True

    def collided(t):
        return any(_on_air(d, ph, t, omega)
                   for d, ph in zip(devices[1:], phases[1:]) if d.beacons.emission_times)

    first = collided(emissions[0])
    for t in emissions:
        if _hears(devices[1], phases[1], t, omega) and not collided(t):
            return t, first, False
    return None, first, True


def read_trials(out_dir: str) -> list[list[str]]:
    with open(os.path.join(out_dir, "trials.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return rows


def check_simulate(op: dict, expected_digest: str | None) -> list[str]:
    problems = []
    trials_path = os.path.join(op["out_dir"], "trials.csv")
    if expected_digest is not None and digest(trials_path) != expected_digest:
        problems.append("trials.csv differs from the golden digest")
    rows = read_trials(op["out_dir"])
    if rows[0] != ["trial_id", "phases", "latency_ticks", "collided_first", "failed"]:
        return problems + [f"unexpected header {rows[0]}"]
    if len(rows) - 1 != op["work"]:
        problems.append(f"{len(rows) - 1} trial rows, expected {op['work']}")
    devices = op["devices"]
    periods = [d.device_period for d in devices]
    for row in rows[1:]:
        phases = [int(x) for x in row[1].split(";")]
        if len(phases) != len(devices) or any(not 0 <= p < q for p, q in zip(phases, periods)):
            problems.append(f"trial {row[0]}: phases {row[1]} out of range")
            continue
        lat, first, failed = replay_trial(devices, phases, op["horizon"])
        got = (None if row[2] == "" else int(row[2]), row[3] == "1", row[4] == "1")
        if got != (lat, first, failed):
            problems.append(f"trial {row[0]}: got {got}, replay {(lat, first, failed)}")
        if len(problems) > 5:
            break
    return problems


def collision_z(ops: list[dict]) -> float:
    """Pooled z-score of the first-beacon collision counts of the one-beacon
    configs against the pure-ALOHA model."""
    from ndlab import bounds
    from ndlab.schedule import transmission_duty_cycle

    seen = expected = var = 0.0
    for op in ops:
        rows = read_trials(op["out_dir"])[1:]
        p = bounds.collision_probability(
            op["senders"], transmission_duty_cycle(op["devices"][0].beacons))
        seen += sum(row[3] == "1" for row in rows)
        expected += len(rows) * p
        var += len(rows) * p * (1 - p)
    return (seen - expected) / math.sqrt(var)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def _sweep_problems(path: str, sweep: str, omega: int, alpha: Fraction) -> list[str]:
    lo, hi, step = (Fraction(x) for x in sweep.split("=")[1].split(":"))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    n = int((hi - lo) / step) + 1
    if len(rows) != n:
        return [f"sweep has {len(rows)} rows, expected {n}"]
    for i, row in enumerate(rows):
        eta = lo + i * step
        if float(row[0]) != float(eta):
            return [f"row {i}: eta {row[0]} != {float(eta)}"]
        best = None
        for k, branch in ((math.ceil(2 / eta), "ceil"), (math.floor(2 / eta), "floor")):
            den = eta * k - 1
            if k >= 1 and den > 0:
                lat = Fraction(k * k) * omega * alpha / den
                if best is None or lat < best[0]:
                    best = (lat, k, branch)
        want = ["", "", "", ""] if best is None else [
            repr(float(best[0])), str(best[1]), best[2], repr(float(Fraction(1, best[1])))]
        if row[1:5] != want:
            return [f"row {i}: symmetric columns {row[1:5]} != {want}"]
        approx = float(4 * alpha * omega / (eta * eta))
        if float(row[5]) != approx:
            return [f"row {i}: approximation {row[5]} != {approx}"]
    return []


def _deviation_problems(path: str, omega: int, do_tx: int, do_rx: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) < 4:
        return [f"deviation grid has only {len(rows)} rows"]
    for i, row in enumerate(rows):
        beta, gamma, ideal, relaxed, dev = (float(x) for x in row)
        k = round(1 / gamma)
        want_ideal = k * omega / beta
        # contained beacons, switching overheads, first beacon counted
        want_relaxed = (do_tx + omega + beta * (do_rx + omega)) * k / beta + omega
        want = (want_ideal, want_relaxed, (want_relaxed - want_ideal) / want_ideal)
        if not all(_close(a, b) for a, b in zip((ideal, relaxed, dev), want)):
            return [f"row {i}: {row[2:]} != recomputed {want}"]
    return []


def check_bounds(op: dict, expected: list[str] | None) -> list[str]:
    sweep_out, dev_out = op["outs"]
    problems = []
    if expected is not None:
        got = [digest(sweep_out), digest(dev_out)]
        if got != expected:
            problems.append("bounds CSV differs from the golden digest")
    sweep = op["argvs"][0][2]
    problems += _sweep_problems(sweep_out, sweep, op["omega"], Fraction(op["alpha"]))
    problems += _deviation_problems(dev_out, op["omega"], op["doTx"], op["doRx"])
    return problems
