"""Shared schedule builders and reference closed forms for the test suite."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

from ndlab import (
    BeaconSchedule,
    DomainError,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
)
from ndlab.bounds import MutualExclusiveBound, SymmetricBound
from ndlab.schedule import rat


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


def _beacon_starts(beacons: BeaconSchedule, lo: int, hi: int) -> list[int]:
    """Sorted device-time beacon starts in [lo, hi); a repetitive schedule
    is unrolled one period at a time, backwards and forwards from 0."""
    taus = beacons.emission_times
    if not beacons.repetitive:
        return [s for s in taus if lo <= s < hi]
    base = 0
    while taus and base + taus[-1] >= lo:
        base -= beacons.period
    out = []
    while taus and base + taus[0] < hi:
        out += [base + tau for tau in taus if lo <= base + tau < hi]
        base += beacons.period
    return out


def per_tick_pair(e: ProtocolSpec, f: ProtocolSpec, self_blocking: bool, horizon: int):
    """Independent per-tick reference for f hearing e, with no modulo and no
    simulator internals.  Returns latency(phase_e, phase_f): the first
    global tick t in [1, horizon] at which e starts a beacon that f hears,
    or None, for phases below the devices' periods.

    Every schedule is unrolled onto an absolute tick axis of f's device
    time.  A beacon of omega ticks starting at x is received when x lies in
    a window occurrence; under CONTAINED it must not start in the
    occurrence's last omega ticks either.  With self_blocking, f is deaf
    while any of its own beacons, padded by d_oRxTx ahead and d_oTxRx
    behind, overlaps the beacon's start (IDEAL) or its whole length
    (CONTAINED).
    """
    omega, r = e.beacons.beacon_duration, f.radio
    contained = r.semantics is Semantics.CONTAINED
    tail = omega if contained else 0  # last window ticks a beacon may not start in
    need = omega if contained else 1  # beacon ticks that must miss an own beacon
    span = f.device_period + horizon + 1
    heard = [False] * span
    for base in range(0, span, f.receptions.period):
        for w in f.receptions.windows:
            for x in range(base + w.start, min(base + w.end - tail, span)):
                heard[x] = True
    if self_blocking:
        busy = [False] * (span + need)
        pad = f.beacons.beacon_duration + r.d_oTxRx
        for s in _beacon_starts(f.beacons, -pad, span + need + r.d_oRxTx):
            for y in range(max(0, s - r.d_oRxTx), min(s + pad, span + need)):
                busy[y] = True
        heard = [ok and not any(busy[x : x + need]) for x, ok in enumerate(heard)]
    starts = _beacon_starts(e.beacons, 1, e.device_period + horizon + 1)

    def latency(phase_e: int, phase_f: int):
        for s in starts:
            if s > phase_e + horizon:
                break
            if s > phase_e and heard[phase_f + s - phase_e]:
                return s - phase_e
        return None

    return latency


#: (dotted field, value) edits that turn a valid protocol document into one
#: the loader must refuse with ValueError instead of coercing or ignoring.
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
    ("bogus", 1),
    ("beacons.bogus", 1),
    ("beacons.Omega", 1),
    ("receptions.bogus", None),
    ("receptions.windows", [{"start": 0, "d": 100, "bogus": 1}]),
    ("radio.d_oTX", 0),
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


# ---------------------------------------------------------------------------
# reference closed forms: the bounds written as Fraction expressions, against
# which the library's integer-ratio evaluations must agree exactly
# ---------------------------------------------------------------------------

def ref_bound_unidirectional(gamma, beta, omega) -> Fraction:
    gamma, beta, omega = rat(gamma), rat(beta), rat(omega)
    if not 0 < gamma <= 1:
        raise DomainError("gamma must lie in (0, 1]")
    if beta <= 0:
        raise DomainError("beta must be positive")
    return Fraction(math.ceil(1 / gamma)) * omega / beta


def _ref_k_latency(k, eta, omega, alpha):
    den = eta * k - 1
    if k < 1 or den <= 0:
        return None
    return Fraction(k * k) * omega * alpha / den


def ref_bound_symmetric(eta, omega, alpha) -> SymmetricBound:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    two = 2 / eta
    k_floor = math.floor(two)
    if k_floor < 1:
        raise DomainError("eta > 2 leaves no room for a reception phase")
    k_ceil = math.ceil(two)
    a = _ref_k_latency(k_ceil, eta, omega, alpha)
    b = _ref_k_latency(k_floor, eta, omega, alpha)
    if a is not None and (b is None or a <= b):
        return SymmetricBound(a, k_ceil, "ceil", Fraction(1, k_ceil))
    return SymmetricBound(b, k_floor, "floor", Fraction(1, k_floor))


def ref_bound_symmetric_approx(eta, omega, alpha) -> Fraction:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    return 4 * alpha * omega / (eta * eta)


def ref_bound_mutual_exclusive(eta, omega, alpha) -> MutualExclusiveBound:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    inv = 1 / eta
    k_floor = math.floor(inv)
    if k_floor < 1:
        raise DomainError("eta > 1 leaves no valid split")
    best = None
    for k, branch in ((math.ceil(inv), "ceil"), (k_floor, "floor")):
        den = eta * k - Fraction(1, 2)
        if k >= 1 and den > 0:
            val = Fraction(k * k) * omega * alpha / den
            if best is None or val < best[0]:
                best = (val, k, branch)
    if best is None:
        raise DomainError("no feasible branch")
    return MutualExclusiveBound(*best)


def ref_bound_relaxed(gamma, beta, omega, radio: RadioModel, count_first_beacon=False) -> Fraction:
    gamma, beta, omega = rat(gamma), rat(beta), rat(omega)
    if not 0 < gamma <= 1:
        raise DomainError("gamma must lie in (0, 1]")
    if (1 / gamma).denominator != 1:
        raise DomainError("relaxed bound assumes gamma = 1/k")
    if beta <= 0:
        raise DomainError("beta must be positive")
    contained = radio.semantics is Semantics.CONTAINED
    numerator = radio.d_oTx + omega + beta * (radio.d_oRx + (omega if contained else 0))
    latency = numerator / (beta * gamma)
    if count_first_beacon:
        latency += omega
    return latency


def ref_bound_slotted_full_duplex(eta, omega, alpha) -> Fraction:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    return omega * (1 + 2 * alpha + alpha * alpha) / (eta * eta)


def ref_bound_slotted_two_beacon(eta, omega, alpha) -> Fraction:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    return omega * (Fraction(1, 2) + 2 * alpha + 2 * alpha * alpha) / (eta * eta)
