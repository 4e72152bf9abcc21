"""Shared schedule builders for the test suite."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from ndlab import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
)


def listener(windows, period, omega=1, repetitive=True, alpha=1, semantics=Semantics.IDEAL):
    """Receive-only device."""
    return ProtocolSpec(
        BeaconSchedule((), omega, period=None),
        ReceptionSchedule(tuple(ReceptionWindow(a, d) for a, d in windows), period, repetitive),
        RadioModel(alpha=Fraction(alpha), omega=omega, semantics=semantics),
    )


def beaconer(times, t_b, omega=1, alpha=1, semantics=Semantics.IDEAL):
    """Transmit-only device (a token one-tick window keeps the model whole)."""
    return ProtocolSpec(
        BeaconSchedule(tuple(times), omega, period=t_b),
        ReceptionSchedule((ReceptionWindow(0, 1),), period=max(2, omega + 1)),
        RadioModel(alpha=Fraction(alpha), omega=omega, semantics=semantics),
    )


def random_reception(rng: random.Random, t_max: int = 24) -> ReceptionSchedule:
    t_c = rng.randrange(4, t_max)
    wins = []
    cursor = 0
    for _ in range(rng.randrange(1, 4)):
        if cursor >= t_c - 1:
            break
        a = rng.randrange(cursor, t_c - 1)
        b = rng.randrange(a + 1, t_c + 1)
        wins.append(ReceptionWindow(a, b - a))
        cursor = b
    if not wins:
        wins = [ReceptionWindow(0, max(1, t_c // 2))]
    return ReceptionSchedule(tuple(wins), period=t_c)


def random_beacons(rng: random.Random, omega: int = 1, t_max: int = 30) -> BeaconSchedule:
    m = rng.randrange(1, 5)
    t_b = rng.randrange(max(2, 2 * m * omega), max(2, 2 * m * omega) + t_max)
    while True:
        times = sorted(rng.sample(range(t_b), m))
        try:
            return BeaconSchedule(tuple(times), omega, period=t_b)
        except ValueError:
            continue


def random_protocol(rng: random.Random, omega: int = 1) -> ProtocolSpec:
    return ProtocolSpec(
        random_beacons(rng, omega),
        random_reception(rng),
        RadioModel(omega=omega),
    )


def absolute_first_hit(beacon_times, rec: ReceptionSchedule, phi1: int, copies: int = 200):
    """Independent latency oracle: materialize window occurrences on an
    absolute axis (no modular reduction) and scan the beacons in order.
    Returns the emission offset of the first received beacon, or None."""
    t0 = beacon_times[0]
    occurrences = []
    for m in range(copies):
        base = m * rec.period
        for w in rec.windows:
            occurrences.append((base + w.start, base + w.end))
    for tau in beacon_times:
        pos = phi1 + (tau - t0)
        for a, b in occurrences:
            if a <= pos < b:
                return tau - t0
            if a > pos:
                break
    return None


#: (dotted field, value) edits that turn a valid protocol document into one
#: the loader must refuse with ValueError instead of coercing.
MALFORMED_PROTOCOL_EDITS = (
    ("beacons.times", [0, 100.7]),
    ("beacons.times", ["0", 100]),
    ("beacons.times", "0,100"),
    ("beacons.omega", 1.9),
    ("beacons.omega", True),
    ("beacons.period", "400"),
    ("beacons.period", 400.0),
    ("receptions.period", False),
    ("receptions.repetitive", "false"),
    ("receptions.repetitive", 0),
    ("receptions.repetitive", None),
    ("receptions.windows", [{"start": 0, "d": 100.0}]),
    ("receptions.windows", [[0, 100]]),
    ("radio.alpha", [1.5, 1]),
    ("radio.alpha", [1, 0]),
    ("radio.alpha", [1, 1, 1]),
    ("radio.d_oTx", "5"),
    ("radio.d_oRxTx", True),
    ("radio", [1, 0]),
    ("tick_ns", 1000.0),
)


def with_field(doc: dict, dotted: str, value) -> dict:
    """A deep copy of ``doc`` with the field at ``dotted`` set to ``value``."""
    out = copy.deepcopy(doc)
    *parents, last = dotted.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[last] = value
    return out
