"""Seeded inputs for the three benchmark workloads.

Every ``setup_*`` function takes the workload seed and a directory and
returns a description of the operations to run, with the text of the input
files the CLI will read (``files``); ``write_inputs`` writes them.  Nothing
is timed here; ``run.py`` times the calls.

The ``ndlab`` modules are imported inside the functions, not at module
level, so that each measured set-up includes the import of the package.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import ceil, lcm

# ---------------------------------------------------------------------------
# analyze-corpus
# ---------------------------------------------------------------------------

#: Pairs per generator; each generator gets one pair per cost level.
CORPUS_LEVELS = 20
#: Target cost of one default-flag ``analyze`` call, low and high level, in
#: ms on the reference machine.  Levels are spaced evenly in log scale, so
#: the per-pair latencies spread over two decades.
COST_LO_MS, COST_HI_MS = 1.0, 80.0
#: Per-generator cost of one unit of the work proxy below, in microseconds,
#: fitted once from full-method oracle timings on the reference machine.
#: They only place the pairs on the cost levels; any error shows up as
#: spread around a level, never as a wrong answer.
_US_PER_UNIT = {
    "optimal": 0.30,
    "pi0m": 0.25,
    "disco": 0.10,
    "searchlight": 0.17,
    "uconnect": 0.18,
    "diffcode": 0.26,
}
_DISCO_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (5, 7), (2, 7))
_DIFF_SIZES = {7: 3, 13: 4, 21: 5, 31: 6}  # elements of the built-in sets
_UCONNECT_PRIMES = (3, 5, 7)

#: pi0m(99, 1000): its lcm of 99,999,000 ticks is above the default 10^7
#: hyperperiod budget, so ``analyze`` refuses it (exit 3) although the
#: endpoints sweep answers 100000 in well under a millisecond.  It stays in
#: every corpus so that lifting the refusal shows as a lower failed share.
BUDGET_PAIR = ("pi0m-budget", "pi0m", {"m": 99, "d": 1000, "omega": 1, "delta": 1})


def _cost_levels():
    ratio = COST_HI_MS / COST_LO_MS
    return [COST_LO_MS * ratio ** (i / (CORPUS_LEVELS - 1)) for i in range(CORPUS_LEVELS)]


_SLOTTED = {
    # generator -> structures (parameters, beacons m, slots per period),
    # sorted by beacon count so that larger levels get more beacons
    "disco": sorted(
        (({"p1": a, "p2": b}, 2 * (a + b - 1), a * b) for a, b in _DISCO_PAIRS),
        key=lambda s: s[1],
    ),
    "searchlight": [
        ({"t": t}, 4 * ceil(t / 2), ceil(t / 2) * t) for t in range(3, 11)
    ],
    "uconnect": [({"p": p}, 2 * (p + (p + 1) // 2), p * p) for p in _UCONNECT_PRIMES],
    "diffcode": [({"modulus": t}, 2 * _DIFF_SIZES[t], t) for t in sorted(_DIFF_SIZES)],
}


def _pick_params(gen: str, level: int, rng: random.Random) -> dict:
    """Parameters of one corpus pair.

    The level fixes the structure (more beacons at higher levels) and the
    time scale, chosen so that the full oracle's work, m * t_c * mean scan
    length, lands near the level's cost.  The mean scan is about m/2
    beacons for the slotted designs and the optimal pair, and about (m+1)/2
    beacon periods for pi0m.  The seed draws the beacon length, a +-3%
    jitter of the time scale and pi0m's delta: the answers change with the
    seed while the work per level, and so the timings, stay put.
    """
    frac = level / (CORPUS_LEVELS - 1)
    units = _cost_levels()[level] * 1000.0 / _US_PER_UNIT[gen]
    units *= rng.uniform(0.97, 1.03)
    omega = rng.randint(1, 4)
    if gen == "optimal":
        k = 2 + round(14 * frac)
        lam = max(omega, round(units / (k * k * (1 + k / 2))))
        return {"k": k, "beta": f"{omega}/{lam}", "omega": omega}
    if gen == "pi0m":
        # lcm = d * t_c / gcd(d, delta) grows like units^2 / (m+1)^3, so
        # larger levels need more scan intervals to stay inside the 10^7
        # hyperperiod budget; only BUDGET_PAIR is meant to exceed it.
        m_lo = max(3, ceil((4 * units * units / 5e6) ** (1 / 3)))
        m_hi = max(m_lo, min(99, int((units / 3) ** 0.5) - 1))
        m = round((m_lo * m_hi) ** 0.5)
        d = max(omega + 2, round(units / ((m + 1) * (1 + (m + 1) / 2))))
        return {"m": m, "d": d, "omega": omega, "delta": rng.randint(1, min(3, d - 1))}
    options = _SLOTTED[gen]
    params, m, slots = options[min(len(options) - 1, int(frac * len(options)))]
    slot = max(2 * omega, round(units / (m * (1 + m / 2)) / slots))
    return dict(params, slot=slot, omega=omega)


def build_protocol(gen: str, params: dict):
    """The ProtocolSpec a corpus entry describes."""
    from ndlab import protocols as pr

    p = params
    if gen == "optimal":
        return pr.gen_optimal_unidirectional(p["k"], Fraction(p["beta"]), p["omega"])
    if gen == "pi0m":
        return pr.gen_pi0m(p["m"], p["d"], p["omega"], delta=p["delta"])
    if gen == "disco":
        return pr.gen_disco(p["p1"], p["p2"], p["slot"], p["omega"])
    if gen == "searchlight":
        return pr.gen_searchlight_striped(p["t"], p["slot"], p["omega"])
    if gen == "uconnect":
        return pr.gen_uconnect(p["p"], p["slot"], p["omega"])
    if gen == "diffcode":
        return pr.gen_diffcode(pr.builtin_difference_set(p["modulus"]), p["slot"], p["omega"])
    raise ValueError(f"unknown generator {gen!r}")


def corpus_entries(seed: int) -> list[tuple[str, str, dict]]:
    """(id, generator, parameters) for every pair of the seed's corpus."""
    rng = random.Random(f"analyze-corpus:{seed}")
    entries = []
    for gen in _US_PER_UNIT:
        for level in range(CORPUS_LEVELS):
            entries.append((f"{gen}-{level:02d}", gen, _pick_params(gen, level, rng)))
    entries.append(BUDGET_PAIR)
    rng.shuffle(entries)
    return entries


#: Pairs whose phase grid is at most this many (transmitter, receiver)
#: phase pairs are also replayed exhaustively by the simulator.
EXHAUSTIVE_MAX_PHASE_PAIRS = 40_000


def setup_analyze(seed: int, workdir: str) -> list[dict]:
    """Write one protocol JSON per corpus pair; the pair is the protocol
    analysed against a copy of itself (transmitter and receiver)."""
    from ndlab.schedule import protocol_to_json

    ops = []
    for pid, gen, params in corpus_entries(seed):
        spec = build_protocol(gen, params)
        path = os.path.join(workdir, f"{pid}.json")
        b, c = spec.beacons, spec.receptions
        hyper = lcm(b.period, c.period)
        ops.append(
            {
                "id": pid,
                "gen": gen,
                "params": params,
                "files": {path: json.dumps(protocol_to_json(spec))},
                "argv": ["analyze", path, path, "--out", os.path.join(workdir, f"{pid}.out.json")],
                "out": os.path.join(workdir, f"{pid}.out.json"),
                "spec": spec,
                # the beacon steps after which the offsets repeat, as the
                # oracle's own scan bound: count * lcm / t_b
                "scan_bound_steps": b.count * hyper // b.period,
                "small": b.period * c.period <= EXHAUSTIVE_MAX_PHASE_PAIRS,
                "work": 1,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# collision-sweep
# ---------------------------------------------------------------------------

#: Trials per ``simulate`` call.
SIM_TRIALS = 1000
#: Criterion-7 set-up: one-beacon senders at beta = 1/200 with omega = 100
#: ticks, and an always-on receiver.
C7_OMEGA, C7_PERIOD, C7_HORIZON = 100, 20_000, 200_000
C7_SENDERS = (2, 5, 10)
#: Identical Disco devices that all send and listen, so every receiver can
#: be deaf during its own beacons.
DISCO_DEVICES = (3, 5)
DISCO_ARGS = (3, 5, 100, 10)  # p1, p2, slot ticks, omega


def collision_devices(senders: int):
    from ndlab.schedule import (
        BeaconSchedule,
        ProtocolSpec,
        RadioModel,
        ReceptionSchedule,
        ReceptionWindow,
    )

    def sender():
        return ProtocolSpec(
            BeaconSchedule((0,), C7_OMEGA, period=C7_PERIOD),
            ReceptionSchedule((ReceptionWindow(0, 1),), C7_PERIOD),
            RadioModel(omega=C7_OMEGA),
        )

    receiver = ProtocolSpec(
        BeaconSchedule((), C7_OMEGA, period=None),
        ReceptionSchedule((ReceptionWindow(0, C7_PERIOD),), C7_PERIOD),
        RadioModel(omega=C7_OMEGA),
    )
    return [sender(), receiver] + [sender() for _ in range(senders - 1)]


def setup_collision(seed: int, workdir: str) -> list[dict]:
    from ndlab.protocols import gen_disco
    from ndlab.schedule import protocol_to_json

    rng = random.Random(f"collision-sweep:{seed}")
    configs = []
    for s in C7_SENDERS:
        configs.append((f"S{s}", collision_devices(s), C7_HORIZON, s))
    for n in DISCO_DEVICES:
        configs.append((f"disco{n}", [gen_disco(*DISCO_ARGS)] * n, None, n))
    ops = []
    for name, devices, horizon, senders in configs:
        doc = {
            "devices": [protocol_to_json(d) for d in devices],
            "trials": SIM_TRIALS,
            "seed": rng.getrandbits(32),
        }
        if horizon is not None:
            doc["horizon"] = horizon
        path = os.path.join(workdir, f"{name}.json")
        out_dir = os.path.join(workdir, name)
        ops.append(
            {
                "id": name,
                "files": {path: json.dumps(doc)},
                "argv": ["simulate", path, "--out-dir", out_dir],
                "out_dir": out_dir,
                "devices": devices,
                "horizon": horizon or 4 * max(d.device_period for d in devices),
                "senders": senders,
                "single_beacon": name.startswith("S"),
                "work": SIM_TRIALS,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# bound-curves
# ---------------------------------------------------------------------------

#: (omega, alpha, overheads) choices per seed; each is one operation: a
#: 1000-point eta sweep plus a relaxed-vs-ideal deviation grid.
BOUND_CHOICES = 8
ETA_SWEEP = "eta=0.001:1.0:0.001"
_ALPHAS = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")


def setup_bounds(seed: int, workdir: str) -> list[dict]:
    import ndlab.cli  # noqa: F401 - the set-up includes the import

    rng = random.Random(f"bound-curves:{seed}")
    ops = []
    for i in range(BOUND_CHOICES):
        omega = rng.randint(8, 200)
        alpha = rng.choice(_ALPHAS)
        do_tx = rng.randint(0, 200)
        do_rx = rng.randint(0, 200)
        sweep_out = os.path.join(workdir, f"sweep{i}.csv")
        dev_out = os.path.join(workdir, f"dev{i}.csv")
        ops.append(
            {
                "id": f"curves{i}",
                "omega": omega,
                "alpha": alpha,
                "doTx": do_tx,
                "doRx": do_rx,
                "argvs": [
                    ["bounds", "--sweep", ETA_SWEEP, "--alpha", alpha,
                     "--omega-us", str(omega), "--out", sweep_out],
                    ["bounds", "--deviation", "--omega-us", str(omega),
                     "--doTx-us", str(do_tx), "--doRx-us", str(do_rx), "--out", dev_out],
                ],
                "outs": [sweep_out, dev_out],
                "work": None,  # rows, counted from the output files
            }
        )
    return ops


def write_inputs(ops: list[dict]) -> None:
    for op in ops:
        for path, text in op.get("files", {}).items():
            with open(path, "w") as fh:
                fh.write(text)


SETUP = {
    "analyze-corpus": setup_analyze,
    "collision-sweep": setup_collision,
    "bound-curves": setup_bounds,
}
