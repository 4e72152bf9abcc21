"""Event-driven discovery simulation with a pure-ALOHA collision model.

An independent replay engine: it never consults the coverage machinery, so
agreement between the two is a meaningful check.  One overlap rule decides
both collision and self-deafness: transmissions of different devices that
overlap in time destroy each other for every receiver, and a device that
transmits while scanning cannot hear while its own turnaround-padded beacon
overlaps the remote one.  A device with a finite beacon list is deaf only
during those padded beacons and hears again after its last one.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product, repeat
from math import inf, lcm
from typing import Sequence

from . import intervals as iv
from .errors import DomainError
from .schedule import (
    ProtocolSpec,
    Semantics,
    effective_window_spans,
    reception_duty_cycle,
    transmission_duty_cycle,
)


class OffsetSampling(Enum):
    UNIFORM_RANDOM = "uniform_random"
    EXHAUSTIVE_TICKS = "exhaustive_ticks"


@dataclass(frozen=True)
class SimConfig:
    """devices[0] is the joining transmitter, devices[1] the receiver that
    should discover it; any further devices are interfering senders."""

    devices: tuple[ProtocolSpec, ...]
    trials: int = 1
    seed: int = 0
    horizon: int | None = None
    offset_sampling: OffsetSampling = OffsetSampling.UNIFORM_RANDOM
    latency_budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        if len(self.devices) < 2:
            raise ValueError("need at least a transmitter and a receiver")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # every latency is at least one tick, so a smaller budget fails all
        if self.latency_budget is not None and self.latency_budget < 1:
            raise ValueError("latency_budget must be >= 1")
        if self.horizon is not None:
            if self.horizon < max(d.device_period for d in self.devices):
                raise ValueError("horizon must cover the largest device period")


@dataclass(frozen=True)
class SimOutcome:
    phases: tuple[tuple[int, ...], ...]
    latencies: tuple[int | None, ...]
    first_beacon_collided: tuple[bool, ...]
    covering_beacon_collided: tuple[bool | None, ...]
    failed: tuple[bool, ...]
    latency_budget: int | None

    @property
    def trials(self) -> int:
        return len(self.latencies)

    @property
    def failure_rate(self) -> Fraction:
        return Fraction(sum(self.failed), self.trials)

    @property
    def first_collision_rate(self) -> Fraction:
        return Fraction(sum(self.first_beacon_collided), self.trials)


# ---------------------------------------------------------------------------
# one device's timeline, compiled once per call
# ---------------------------------------------------------------------------

class _CompiledDevice:
    """The phase-free part of a device's timeline.  A phase only shifts it,
    so every trial of a call shares one instance and supplies the phase."""

    def __init__(self, spec: ProtocolSpec):
        b = spec.beacons
        self.spec = spec
        self.omega = b.beacon_duration
        self.taus = b.emission_times
        self.t_b = b.period if b.repetitive else None
        self.t_c = spec.receptions.period

    def overlapping(self, width: int, before: int = 0, after: int = 0) -> list[int]:
        """Edge list of the device times x at which [x, x + width) overlaps
        a beacon widened by ``before`` ticks ahead and ``after`` behind: in
        [0, t_b) for a repetitive schedule, absolute for a finite one."""
        spans = [(tau - before - width + 1, tau + self.omega + after) for tau in self.taus]
        t_b = self.t_b
        return iv.edges(iv.normalize(spans) if t_b is None else iv.shift_mod(spans, 0, t_b))

    def jammer(self, width: int):
        """overlaps(phase, t): whether any of this device's beacons overlaps
        the global interval [t, t + width); a repetitive schedule runs
        forever, a finite one is silent after its last beacon."""
        busy, t_b = self.overlapping(width), self.t_b
        if t_b is None:
            return lambda phase, t: bisect_right(busy, phase + t) & 1
        return lambda phase, t: bisect_right(busy, (phase + t) % t_b) & 1

    def listener(self, tx_omega: int, self_blocking: bool):
        """(hears, deaf): hears(phase, t) says whether a remote beacon of
        tx_omega ticks starting at global t is received.  With self_blocking
        the jammer's overlap rule gives the device times deaf at which an
        own beacon, padded by the turnarounds, overlaps that beacon's start
        (IDEAL) or all of it (CONTAINED); a finite beacon list deafens only
        there, so the device hears again after its last beacon."""
        spec, r = self.spec, self.spec.radio
        eff = iv.edges(effective_window_spans(spec.receptions, r.semantics, tx_omega))
        width = tx_omega if r.semantics is Semantics.CONTAINED else 1
        deaf = self.overlapping(width, r.d_oRxTx, r.d_oTxRx) if self_blocking else []
        t_c, t_b = self.t_c, self.t_b
        if not deaf:
            hears = lambda phase, t: bisect_right(eff, (phase + t) % t_c) & 1
        elif t_b is None:
            hears = lambda phase, t: (
                bisect_right(eff, (phase + t) % t_c) & 1 and not bisect_right(deaf, phase + t) & 1
            )
        else:
            hears = lambda phase, t: (
                bisect_right(eff, (phase + t) % t_c) & 1
                and not bisect_right(deaf, (phase + t) % t_b) & 1
            )
        return hears, deaf


# ---------------------------------------------------------------------------
# one scan: the joiner's emissions against the receiver and the interferers
# ---------------------------------------------------------------------------

def _trial_runner(
    joiner: _CompiledDevice,
    receiver: _CompiledDevice,
    interferers: Sequence[_CompiledDevice],
    horizon: int | None = None,
    budget: int | None = None,
    self_blocking: bool = True,
):
    """run(phase_joiner, phase_receiver, interferer_phases=()) plays one
    trial and returns (latency, first beacon collided, covering beacon
    collided, failed).  Every interferer must send.

    A trial builds the joiner's emission offsets with one bisect_right
    rotation of its taus, reduced modulo t_b and sorted once per call, at
    p, the phase modulo t_b: the taus above p, then those at or below it
    one period later, less p, are the emissions in (0, t_b], and the scan
    steps through them by t_b.  A finite joiner keeps the taus above its
    phase and has no later period.  With no interferers no collision test
    runs.

    The joiner's emissions, hears (the receiver's t_c, and its t_b when its
    own repeating beacons deafen it) and each repetitive interferer's
    overlaps repeat with their periods, so every test at t + cycle, their
    lcm, repeats the one at t.  A finite interferer is silent once its last
    beacon ends, and a receiver deafened by a finite beacon list hears again
    at the last edge of its deaf list, so a repetitive joiner's scan stops
    one cycle past the latest of its first emission and those ends: a first
    success comes within it.  A finite joiner has no cycle and is scanned to
    its last beacon.  A horizon only cuts the scan shorter.
    """
    hears, deaf = receiver.listener(joiner.omega, self_blocking)
    jams = [d.jammer(joiner.omega) for d in interferers]
    jammed = bool(jams)
    periods = [receiver.t_c] + [d.t_b for d in interferers if d.t_b is not None]
    if deaf and receiver.t_b is not None:
        periods.append(receiver.t_b)
    # the device time at which a finite receiver's own beacons stop deafening it
    deaf_end = deaf[-1] if deaf and receiver.t_b is None else None
    t_b = joiner.t_b
    # a repetitive schedule may start at or past its period: reduce its taus
    # (distinct, as they span less than a period) into [0, t_b)
    taus = joiner.taus if t_b is None else tuple(sorted(tau % t_b for tau in joiner.taus))
    m = len(taus)
    # the taus, then the taus one period later: rotating at k takes ring[k:k + m]
    ring = taus if t_b is None else taus + tuple(tau + t_b for tau in taus)
    n = len(ring)
    reach = inf if t_b is None else lcm(t_b, *periods) - 1
    # (index, end of the last beacon at phase 0) of each finite interferer
    quiet = [(k, d.taus[-1] + d.omega) for k, d in enumerate(interferers) if d.t_b is None]
    end = inf if horizon is None else horizon

    def collided(phases: Sequence[int], t: int) -> bool:
        for overlaps, phase in zip(jams, phases):
            if overlaps(phase, t):
                return True
        return False

    def run(phase_joiner: int, phase_receiver: int, interferer_phases: Sequence[int] = ()):
        p = phase_joiner if t_b is None else phase_joiner % t_b
        k = bisect_right(taus, p)
        if k == n:
            return None, False, None, True
        first = ring[k] - p
        if first > end:
            return None, False, None, True
        first_collided = jammed and collided(interferer_phases, first)
        last = first if deaf_end is None else max(first, deaf_end - phase_receiver)
        for j, quiet_at in quiet:
            if quiet_at - interferer_phases[j] > last:
                last = quiet_at - interferer_phases[j]
        last += reach
        if last > end:
            last = end

        covering_collided = None
        emitted = ring[k : k + m]
        for base in (-p,) if t_b is None else range(-p, last - p, t_b):
            for t in emitted:
                t += base
                if t > last:
                    break
                if not hears(phase_receiver, t):
                    continue
                hit = jammed and (first_collided if t == first else collided(interferer_phases, t))
                if covering_collided is None:
                    covering_collided = hit
                if not hit:
                    return t, first_collided, covering_collided, budget is not None and t > budget
        return None, first_collided, covering_collided, True

    return run


# ---------------------------------------------------------------------------
# pairwise simulation
# ---------------------------------------------------------------------------

def simulate_pair(
    e: ProtocolSpec,
    f: ProtocolSpec,
    phase_e: int = 0,
    phase_f: int = 0,
    self_blocking: bool = True,
) -> tuple[int | None, int | None]:
    """Replay both devices from the in-range instant at the given phases.

    Returns (latency of f hearing e, latency of e hearing f); None when a
    direction never succeeds.  Each direction is one scan of _trial_runner
    with no interferers, so it stops one joint cycle past its first
    emission or, if later, past the end of a finite receiver's deafness.
    """
    dev_e, dev_f = _CompiledDevice(e), _CompiledDevice(f)
    ef = _trial_runner(dev_e, dev_f, (), self_blocking=self_blocking)
    fe = _trial_runner(dev_f, dev_e, (), self_blocking=self_blocking)
    return ef(phase_e, phase_f)[0], fe(phase_f, phase_e)[0]


def exhaustive_pair_worst_case(
    e: ProtocolSpec,
    f: ProtocolSpec,
    self_blocking: bool = False,
):
    """Worst f-hears-e latency over every pair of device phases.

    Without self-blocking that direction only depends on the transmitter
    phase modulo its beacon period and the receiver phase modulo its
    reception period, so those grids are swept.  None when some phase pair
    never discovers.
    """
    p_e = e.beacons.period if (e.beacons.repetitive and not self_blocking) else e.device_period
    p_f = f.receptions.period if not self_blocking else f.device_period
    run = _trial_runner(_CompiledDevice(e), _CompiledDevice(f), (), self_blocking=self_blocking)
    worst = 0
    for pe, pf in product(range(p_e), range(p_f)):
        lat = run(pe, pf)[0]
        if lat is None:
            return None
        worst = max(worst, lat)
    return worst


# ---------------------------------------------------------------------------
# multi-device simulation
# ---------------------------------------------------------------------------

def _derive_seed(seed: int, trial: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % (1 << 64)


def _draw_phases(rng: random.Random, seed: int, periods: Sequence[int]) -> tuple[int, ...]:
    """``random.Random(seed).randrange(p)`` for each period in turn, drawn on
    ``rng`` after reseeding it.  For p >= 1 CPython's ``randrange(p)`` takes
    ``getrandbits(p.bit_length())`` until the value falls below p; calling
    that directly skips the argument checks and one generator per trial.
    The one reseed per trial is the floor of a trial's cost."""
    rng.seed(seed)
    bits = rng.getrandbits
    phases = []
    for p in periods:
        k = p.bit_length()
        r = bits(k)
        while r >= p:
            r = bits(k)
        phases.append(r)
    return tuple(phases)


def simulate_multi(cfg: SimConfig) -> SimOutcome:
    """Seeded multi-device trials; identical config and seed give an
    identical outcome.  Trials run serially: the engine is pure Python and
    bound by the interpreter lock, so threads cannot speed it up.

    Every device after the joiner that sends interferes, the receiver
    included.  A trial stops one joint cycle past its first emission, or
    past the end of a finite interferer's last beacon or of a finite
    receiver's deafness if that is later; a finite joiner is scanned to its
    last beacon (see _trial_runner).  The horizon only cuts it shorter.
    """
    if cfg.offset_sampling is OffsetSampling.EXHAUSTIVE_TICKS:
        if len(cfg.devices) != 2:
            raise ValueError("exhaustive phase sweep supports exactly two devices")
        e, f = cfg.devices
        phases = tuple(product(range(e.device_period), range(f.device_period)))
    else:
        periods = [d.device_period for d in cfg.devices]
        rng = random.Random()
        phases = tuple(
            _draw_phases(rng, _derive_seed(cfg.seed, i), periods) for i in range(cfg.trials)
        )

    devices = [_CompiledDevice(spec) for spec in cfg.devices]
    senders = [i for i in range(1, len(devices)) if devices[i].taus]
    run = _trial_runner(
        devices[0], devices[1], [devices[i] for i in senders], cfg.horizon, cfg.latency_budget
    )
    cols = list(zip(*phases))
    interfering = zip(*(cols[i] for i in senders)) if senders else repeat(())
    lat, first, cover, failed = zip(*map(run, cols[0], cols[1], interfering))
    return SimOutcome(phases, lat, first, cover, failed, cfg.latency_budget)


# ---------------------------------------------------------------------------
# self-blocking of a device that both sends and listens
# ---------------------------------------------------------------------------

def self_blocking_probability(p: ProtocolSpec) -> Fraction:
    """Fraction of discovery attempts a device loses to its own beacons
    interrupting its reception windows: beta/omega times the blocked span
    per beacon (turnarounds plus the beacon itself)."""
    beta = transmission_duty_cycle(p.beacons)
    if beta == 0:
        return Fraction(0)
    gamma = reception_duty_cycle(p.receptions)
    if (1 / gamma).denominator != 1:
        raise DomainError("blocked-fraction analysis assumes gamma = 1/k")
    r = p.radio
    return beta * (r.d_oTxRx + r.d_oRxTx + r.omega) / r.omega


def measured_blocked_fraction(p: ProtocolSpec) -> Fraction:
    """Directly measured share of reception time the device's own
    transmissions make deaf, over one full period of its joint schedule."""
    if p.beacons.count == 0:
        return Fraction(0)
    if not p.beacons.repetitive:
        raise ValueError("measurement needs a repetitive beacon schedule")
    period = p.device_period
    t_b, t_c = p.beacons.period, p.receptions.period
    windows = [(a + k, b + k) for k in range(0, period, t_c) for a, b in p.receptions.spans()]
    own = _CompiledDevice(p).overlapping(1, p.radio.d_oRxTx, p.radio.d_oTxRx)
    blocked = [(a + k, b + k) for k in range(0, period, t_b) for a, b in zip(own[::2], own[1::2])]
    lost = iv.measure(iv.intersect(windows, blocked))
    return Fraction(lost, iv.measure(windows))
