"""Event-driven discovery simulation with a pure-ALOHA collision model.

An independent replay engine: it never consults the coverage machinery, so
agreement between the two is a meaningful check.  Transmissions of
different devices that overlap in time destroy each other for every
receiver; a device that transmits while scanning cannot hear for the
turnaround-padded duration of its own beacon.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Sequence

from . import intervals as iv
from .coverage import effective_window_spans
from .errors import DomainError
from .schedule import ProtocolSpec, Semantics, reception_duty_cycle, transmission_duty_cycle


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
        b, r = spec.beacons, spec.radio
        self.spec = spec
        self.omega = b.beacon_duration
        self.taus = b.emission_times
        self.t_b = b.period if b.repetitive else None
        self.t_c = spec.receptions.period
        self.contained = r.semantics is Semantics.CONTAINED
        # own transmissions block reception from turnaround-before to
        # turnaround-after the beacon
        if self.taus and self.t_b is not None:
            spans = [(tau - r.d_oRxTx, tau + self.omega + r.d_oTxRx) for tau in self.taus]
            self.blocked = iv.shift_mod(spans, 0, self.t_b)
        else:
            self.blocked = ()

    def emissions(self, phase: int, t_max: int):
        """Global emission start times in (0, t_max], lazily and sorted."""
        if self.t_b is None:
            yield from (tau - phase for tau in self.taus if 0 < tau - phase <= t_max)
            return
        if not self.taus:
            return
        firsts = sorted((tau - phase - 1) % self.t_b + 1 for tau in self.taus)
        for base in range(0, t_max, self.t_b):
            for t in firsts:
                if base + t > t_max:
                    return
                yield base + t

    def jammer(self, width: int):
        """overlaps(phase, t): whether any of this device's beacons (running
        forever) overlaps the global interval [t, t + width).  The device
        must have beacons."""
        span = width + self.omega - 1  # number of overlapping start ticks
        # a beacon at global s overlaps when 0 <= s + omega - 1 - t < span,
        # so only the first such mark at or after t needs a look
        marks = [tau + self.omega - 1 for tau in self.taus]  # sorted, as the taus are
        t_b = self.t_b
        if t_b is None:
            marks.append(float("inf"))
            return lambda phase, t: marks[bisect_left(marks, phase + t)] - phase - t < span
        if span >= t_b:
            return lambda phase, t: True
        marks = sorted(x % t_b for x in marks)
        marks.append(marks[0] + t_b)  # the next period's first mark

        def overlaps(phase: int, t: int) -> bool:
            q = (phase + t) % t_b
            return marks[bisect_left(marks, q)] - q < span

        return overlaps

    def listener(self, tx_omega: int, self_blocking: bool):
        """hears(phase, t): whether a remote beacon of tx_omega ticks starting
        at global t is received."""
        spec = self.spec
        if not spec.receptions.repetitive:
            raise ValueError("the simulator needs a repetitive reception schedule")
        eff = iv.edges(effective_window_spans(spec.receptions, spec.radio.semantics, tx_omega))
        t_c, t_b = self.t_c, self.t_b
        if not (self_blocking and self.blocked):
            return lambda phase, t: bisect_right(eff, (phase + t) % t_c) & 1
        # under CONTAINED the whole beacon [v, v + tx_omega) must miss the
        # blocked spans, so a blocked [a, b) deafens every v in [a - tx_omega + 1, b)
        reach = tx_omega - 1 if self.contained else 0
        deaf = iv.edges(iv.shift_mod([(a - reach, b) for a, b in self.blocked], 0, t_b))
        return lambda phase, t: (
            bisect_right(eff, (phase + t) % t_c) & 1
            and not bisect_right(deaf, (phase + t) % t_b) & 1
        )


def _first_heard(emissions, hears, phase: int):
    return next((t for t in emissions if hears(phase, t)), None)


# ---------------------------------------------------------------------------
# pairwise simulation
# ---------------------------------------------------------------------------

def simulate_pair(
    e: ProtocolSpec,
    f: ProtocolSpec,
    phase_e: int = 0,
    phase_f: int = 0,
    horizon: int | None = None,
    self_blocking: bool = True,
) -> tuple[int | None, int | None]:
    """Replay both devices from the in-range instant at the given phases.

    Returns (latency of f hearing e, latency of e hearing f); None when a
    direction does not succeed within the horizon.
    """
    if horizon is None:
        horizon = 2 * lcm(e.device_period, f.device_period)
    dev_e, dev_f = _CompiledDevice(e), _CompiledDevice(f)
    lat_ef = _first_heard(
        dev_e.emissions(phase_e, horizon), dev_f.listener(dev_e.omega, self_blocking), phase_f
    )
    lat_fe = _first_heard(
        dev_f.emissions(phase_f, horizon), dev_e.listener(dev_f.omega, self_blocking), phase_e
    )
    return lat_ef, lat_fe


def exhaustive_pair_worst_case(
    e: ProtocolSpec,
    f: ProtocolSpec,
    horizon: int | None = None,
    self_blocking: bool = False,
):
    """Worst f-hears-e latency over every pair of device phases.

    Without self-blocking that direction only depends on the transmitter
    phase modulo its beacon period and the receiver phase modulo its
    reception period, so those grids are swept.  None when some phase pair
    never discovers within the horizon.
    """
    worst = 0
    p_e = e.beacons.period if (e.beacons.repetitive and not self_blocking) else e.device_period
    p_f = f.receptions.period if not self_blocking else f.device_period
    if horizon is None:
        horizon = 2 * lcm(e.device_period, f.device_period)
    dev_e = _CompiledDevice(e)
    hears = _CompiledDevice(f).listener(dev_e.omega, self_blocking)
    for pe in range(p_e):
        emissions = list(dev_e.emissions(pe, horizon))
        if not emissions:
            return None
        for pf in range(p_f):
            lat = _first_heard(emissions, hears, pf)
            if lat is None:
                return None
            worst = max(worst, lat)
    return worst


# ---------------------------------------------------------------------------
# multi-device simulation
# ---------------------------------------------------------------------------

def _derive_seed(seed: int, trial: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % (1 << 64)


def _trial_runner(cfg: SimConfig, horizon: int):
    """Compile the devices once; the returned run(phases) plays one trial."""
    devices = [_CompiledDevice(spec) for spec in cfg.devices]
    joiner = devices[0]
    hears = devices[1].listener(joiner.omega, self_blocking=True)
    # the receiver's own beacons also collide with the joiner's
    jammers = [(i, d.jammer(joiner.omega)) for i, d in enumerate(devices) if i and d.taus]
    budget = cfg.latency_budget

    def collided(phases: Sequence[int], t: int) -> bool:
        return any(overlaps(phases[i], t) for i, overlaps in jammers)

    def run(phases: Sequence[int]):
        emissions = joiner.emissions(phases[0], horizon)
        first = next(emissions, None)
        if first is None:
            return None, False, None, True
        first_collided = collided(phases, first)

        latency = None
        covering_collided = None
        for t in chain((first,), emissions):
            if not hears(phases[1], t):
                continue
            hit = first_collided if t == first else collided(phases, t)
            if covering_collided is None:
                covering_collided = hit
            if not hit:
                latency = t
                break

        failed = latency is None or (budget is not None and latency > budget)
        return latency, first_collided, covering_collided, failed

    return run


def simulate_multi(cfg: SimConfig) -> SimOutcome:
    """Seeded multi-device trials; identical config and seed give an
    identical outcome.  Trials run serially: the engine is pure Python and
    bound by the interpreter lock, so threads cannot speed it up."""
    import random

    if cfg.offset_sampling is OffsetSampling.EXHAUSTIVE_TICKS:
        if len(cfg.devices) != 2:
            raise ValueError("exhaustive phase sweep supports exactly two devices")
        e, f = cfg.devices
        horizon = cfg.horizon or 2 * lcm(e.device_period, f.device_period)
        phases = tuple(product(range(e.device_period), range(f.device_period)))
    else:
        horizon = cfg.horizon or 4 * max(d.device_period for d in cfg.devices)
        periods = [d.device_period for d in cfg.devices]
        phases = []
        for i in range(cfg.trials):
            rng = random.Random(_derive_seed(cfg.seed, i))
            phases.append(tuple(rng.randrange(p) for p in periods))
        phases = tuple(phases)

    run = _trial_runner(cfg, horizon)
    lat, first, cover, failed = zip(*map(run, phases))
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
    if not p.receptions.repetitive:
        raise ValueError("measurement needs a repetitive reception schedule")
    period = p.device_period
    t_b, t_c = p.beacons.period, p.receptions.period
    r = p.radio
    windows = []
    for m in range(period // t_c):
        for w in p.receptions.windows:
            windows.append((w.start + m * t_c, w.end + m * t_c))
    windows = iv.normalize(windows)
    blocked = []
    for n in range(period // t_b):
        for tau in p.beacons.emission_times:
            s = tau + n * t_b
            blocked.append((s - r.d_oRxTx, s + r.omega + r.d_oTxRx))
    blocked = iv.shift_mod(blocked, 0, period)
    lost = iv.measure(iv.intersect(windows, blocked))
    return Fraction(lost, iv.measure(windows))
