"""Event-driven discovery simulation with a pure-ALOHA collision model.

An independent replay engine: it never consults the coverage machinery, so
agreement between the two is a meaningful check; both read the model's
rule of where a beacon lands, effective_window_spans(joiner, receiver).
One overlap rule decides both collision and self-deafness: overlapping
beacons of different devices, the receiver's own included, destroy each
other, and a self-blocking receiver cannot hear while its own
turnaround-padded beacon overlaps the remote one (a full-duplex receiver's
beacons do neither).  Every beacon list repeats with its period; a device
with no beacons is silent.  A trial yields its latency and first-beacon
collision; SimOutcome decides failure.

Each call sets its devices up once, from their ProtocolSpecs.  simulate_multi
spreads its trials over the CPUs and itself plays any range a forked child
does not send back in full, so no outcome or exception depends on the split.
"""

from __future__ import annotations

import _random
import gc
import marshal
import os
import threading
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, product
from math import inf, lcm
from typing import Sequence

from . import intervals as iv
from .errors import DomainError
from .schedule import (
    ProtocolSpec,
    Semantics,
    effective_window_spans,
    reception_duty_cycle,
    require_one_tick,
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
        require_one_tick(self.devices)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # trial seeds are derived modulo 2**64, so a seed outside would replay another
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
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
    latency_budget: int | None

    @property
    def trials(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> tuple[bool, ...]:
        """Per trial: it never discovered, or discovered past the budget."""
        budget = self.latency_budget
        return tuple(lat is None or (budget is not None and lat > budget) for lat in self.latencies)

    @property
    def failure_rate(self) -> Fraction:
        return Fraction(sum(self.failed), self.trials)

    @property
    def first_collision_rate(self) -> Fraction:
        return Fraction(sum(self.first_beacon_collided), self.trials)


# ---------------------------------------------------------------------------
# one device's timeline: a phase only shifts it, so one set-up serves a call
# ---------------------------------------------------------------------------

def _overlapping(spec: ProtocolSpec, width: int, before: int = 0, after: int = 0) -> list[int]:
    """Edge list of the device times x in [0, t_b) at which [x, x + width)
    overlaps a beacon widened by ``before`` ticks ahead and ``after``
    behind; empty for a silent device."""
    b = spec.beacons
    spans = [(tau - before - width + 1, tau + b.beacon_duration + after) for tau in b.emission_times]
    return iv.edges(iv.shift_mod(spans, 0, b.period))


def _listener(joiner: ProtocolSpec, receiver: ProtocolSpec, self_blocking: bool):
    """hears(phase, t): whether ``receiver`` receives a beacon of ``joiner``
    starting at global t.  With self_blocking the interferers' overlap rule
    makes it deaf while an own beacon, padded by the turnarounds, overlaps
    that beacon's start (IDEAL) or all of it (CONTAINED); a silent device
    is never deaf."""
    r = receiver.radio
    eff = iv.edges(effective_window_spans(joiner, receiver))
    width = joiner.beacons.beacon_duration if r.semantics is Semantics.CONTAINED else 1
    deaf = _overlapping(receiver, width, r.d_oRxTx, r.d_oTxRx) if self_blocking else []
    t_c, t_b = receiver.receptions.period, receiver.beacons.period
    if not deaf:
        return lambda phase, t: bisect_right(eff, (phase + t) % t_c) & 1
    return lambda phase, t: (
        bisect_right(eff, (phase + t) % t_c) & 1
        and not bisect_right(deaf, (phase + t) % t_b) & 1
    )


# ---------------------------------------------------------------------------
# one scan: the joiner's emissions against the receiver and the interferers
# ---------------------------------------------------------------------------

def _trial_runner(
    devices: Sequence[ProtocolSpec],
    horizon: int | None = None,
    self_blocking: bool = True,
):
    """(run, most): run(phases) plays one trial, phases[i] the phase of
    devices[i]: index 0 joins, index 1 receives, and later indices
    interfere.  It returns (latency, first beacon collided); the latency is
    None when no emission is heard without a collision, as for a silent
    joiner.  most is the most emissions one trial may test: 0 for a silent
    joiner.  Every interferer that sends jams; with self_blocking a
    receiver that sends is deafened by its own beacons and also jams, at
    its own phase.  All the devices must share one tick size.

    A trial builds the joiner's emission offsets with one bisect_right
    rotation of its taus, reduced modulo t_b and sorted once per call, at
    p, the phase modulo t_b: the taus above p, then those at or below it
    one period later, less p, are the emissions in (0, t_b], and the scan
    steps through them by t_b.  With no jammer no collision test runs.

    The joiner's emissions, hears (the receiver's t_c, and its t_b when it
    sends and self-blocks) and each jammer's overlaps repeat with their
    periods, so every test at t + cycle, their lcm, repeats the one at t.
    So the scan reaches one cycle less a tick past the joiner's first
    emission: a first success comes within it.  A horizon only cuts it
    shorter, so a trial tests the emissions within min(reach, horizon) of
    the first, m a period: most.
    """
    require_one_tick(devices)
    joiner, receiver = devices[0], devices[1]
    b = joiner.beacons
    own = self_blocking and receiver.beacons.count > 0
    hears = _listener(joiner, receiver, own)
    # per jammer, its index in the phase tuple, the edges of the device
    # times at which one of its beacons overlaps the joiner's, and its
    # beacon period
    jams = [
        (i, _overlapping(d, b.beacon_duration), d.beacons.period)
        for i, d in enumerate(devices)
        if i > 1 and d.beacons.count or i == 1 and own
    ]
    if not b.count:
        return (lambda phases: (None, False)), 0
    t_b = b.period
    # a schedule may start at or past its period: reduce its taus (distinct,
    # as they span less than a period) into [0, t_b)
    taus = tuple(sorted(tau % t_b for tau in b.emission_times))
    m = len(taus)
    # the taus, then the taus one period later: rotating at k takes ring[k:k + m]
    ring = taus + tuple(tau + t_b for tau in taus)
    reach = lcm(t_b, receiver.receptions.period, *(t_i for _, _, t_i in jams)) - 1
    end = inf if horizon is None else horizon
    most = m * (min(reach, end) // t_b + 1)

    def collided(phases: Sequence[int], t: int) -> bool:
        for i, busy, t_i in jams:
            if bisect_right(busy, (phases[i] + t) % t_i) & 1:
                return True
        return False

    def run(phases: Sequence[int]):
        p = phases[0] % t_b
        k = bisect_right(taus, p)
        first = ring[k] - p
        if first > end:
            return None, False
        first_collided = collided(phases, first) if jams else False
        last = first + reach
        if last > end:
            last = end

        phase_receiver = phases[1]
        emitted = ring[k : k + m]
        for base in range(-p, last - p, t_b):
            for t in emitted:
                t += base
                if t > last:
                    break
                if hears(phase_receiver, t) and not (
                    jams and (first_collided if t == first else collided(phases, t))
                ):
                    return t, first_collided
        return None, first_collided

    return run, most


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
    """Replay both devices from the in-range instant at the given phases:
    the one per-phase replay of a pair, where the coverage oracle sweeps
    all phases at once.

    Returns (latency of f hearing e, latency of e hearing f); None when a
    direction never succeeds.  Each direction is one two-device scan of
    _trial_runner, as in simulate_multi, so it stops one joint cycle past
    its first emission.
    """
    ef = _trial_runner((e, f), self_blocking=self_blocking)[0]
    fe = _trial_runner((f, e), self_blocking=self_blocking)[0]
    return ef((phase_e, phase_f))[0], fe((phase_f, phase_e))[0]


def exhaustive_pair_worst_case(e: ProtocolSpec, f: ProtocolSpec):
    """Worst f-hears-e latency over every pair of device phases, with a
    full-duplex receiver: the question the coverage oracle answers.

    That direction only depends on the transmitter phase modulo its beacon
    period and the receiver phase modulo its reception period, so those
    grids are swept.  None when some phase pair never discovers, as for a
    silent transmitter.  The half-duplex grid is simulate_multi's
    ``exhaustive_ticks`` mode on the two devices.
    """
    run = _trial_runner((e, f), self_blocking=False)[0]
    if not e.beacons.count:
        return None
    worst = 0
    for phases in product(range(e.beacons.period), range(f.receptions.period)):
        lat = run(phases)[0]
        if lat is None:
            return None
        worst = max(worst, lat)
    return worst


# ---------------------------------------------------------------------------
# multi-device simulation
# ---------------------------------------------------------------------------

def _phase_sampler(seed: int, periods: Sequence[int]):
    """draw(trial): the trial's phases, ``rng.randrange(p)`` for each period
    p in turn on ``rng = random.Random(s)``, where the trial's own seed s is
    ``(seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % 2**64``.

    For p >= 1 CPython's ``randrange(p)`` takes ``getrandbits(p.bit_length())``
    until the value falls below p.  draw reseeds one C generator, the base
    class of random.Random whose seed the Python wrapper only forwards an
    int to, and calls that loop directly with each period's bit length taken
    once.  The reseed, about 6 us of a criterion-7 trial's 9 (medians of 6.5
    and 6.1 us over 21 runs of 2000 reseeds, Linux 6.18, 2 cores, Python
    3.11), is the floor of a trial's cost on one CPU; simulate_multi shares
    that floor across CPUs, and a trial's phases depend on its seed and
    index alone, wherever it is drawn."""
    gen = _random.Random()
    reseed, bits = gen.seed, gen.getrandbits
    sizes = [(p, p.bit_length()) for p in periods]
    base = seed * 0x9E3779B97F4A7C15 + 1

    def draw(trial: int) -> tuple[int, ...]:
        reseed((base + trial * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF)
        phases = []
        for p, k in sizes:
            r = bits(k)
            while r >= p:
                r = bits(k)
            phases.append(r)
        return tuple(phases)

    return draw


#: The fewest trials a range gets.  One fork, marshal and collect costs
#: about 2 ms in a 29 MB process (medians of 2.4 and 1.7 ms over 200
#: calls, Linux 6.18, 2 cores, Python 3.11), and about 1 ms more goes to
#: copy-on-write faults while parent and child both run.  The cheapest
#: criterion-7 trial takes about 9 us (medians of 10.9 and 8.5 us over 15
#: one-CPU runs of 1000 trials), so a range of 400 trials, about 3.6 ms,
#: still pays for its move to another CPU.
_MIN_RANGE_TRIALS = 400


def _split(n: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges of n trials, one per CPU this process may
    run on and none shorter than _MIN_RANGE_TRIALS.  One range when the
    platform cannot fork or report its CPUs, or another thread is alive (a
    forked child would inherit its locks held)."""
    calls = ("fork", "sched_getaffinity")
    if not all(hasattr(os, f) for f in calls) or threading.active_count() > 1:
        return [(0, n)]
    k = max(1, min(len(os.sched_getaffinity(0)), n // _MIN_RANGE_TRIALS))
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def _fork(play, lo: int, hi: int):
    """(pid, read end) of a child that sends ``play(lo, hi)`` as one
    marshal payload, or nothing when play raises; None when pipe() or
    fork() fails.  The child always leaves through os._exit."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            # a collection would touch, and so copy, every page of the
            # parent's heap; the child's own garbage is freed by refcount
            gc.disable()
            os.close(r)
            payload = marshal.dumps(play(lo, hi))
            with open(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _collect(child):
    """The columns a child sent, None when it sent no full payload."""
    with child[1] as fh:
        data = fh.read()
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):  # nothing sent, or cut short
        return None


def _play_split(n: int, play) -> list[tuple]:
    """The columns of ``play(0, n)``, played over _split(n): one forked
    child per range after the first while this process plays the first,
    then each child's columns in trial order.  A range whose pipe or fork
    fails, or whose child raises or sends no full payload, is played here,
    so neither the columns nor an exception depends on the split: a range
    that raises wherever it is played raises here, with this process's
    traceback.  Every child is reaped before this returns or raises; one
    still running when an exception unwinds is killed first.

    A bare fork, not a process pool: the child inherits ``play`` with the
    devices' set-up and starts within about a millisecond, where a pool
    costs about as much to start per call as a 1000-trial run, and one
    kept between calls would leave processes running."""
    ranges = _split(n)
    if len(ranges) == 1:
        return list(play(0, n))
    children = []
    try:
        for lo, hi in ranges[1:]:
            children.append(_fork(play, lo, hi))
        parts = [play(*ranges[0])]
        for (lo, hi), child in zip(ranges[1:], children):
            part = None if child is None else _collect(child)
            parts.append(play(lo, hi) if part is None else part)
    finally:
        for child in children:
            if child is not None:
                pid, fh = child
                if not fh.closed:
                    import signal  # here alone: it adds 1 ms to this module's import

                    fh.close()
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
    return [tuple(chain.from_iterable(col)) for col in zip(*parts)]


#: The most trials one call plays, random draws or the phase pairs of an
#: ``exhaustive_ticks`` grid.  A trial's outcome takes about 365 bytes while
#: the columns are built, so this many hold about 365 MB; more are refused
#: before anything is allocated.
_MAX_TRIALS = 10**6

#: The most emissions one call may test, summed over its trials' scans.  An
#: emission test takes about 0.2 to 0.4 us (one bisect, plus one per
#: interferer; Linux 6.18, 2 cores, Python 3.11), so a call at the budget
#: scans for about 20 to 40 s on one CPU.  The largest call of the test
#: suite tests 2.5 * 10**6 emissions, criterion 7 10**5 and a benchmark
#: operation 14 000.
_MAX_SCANNED_EMISSIONS = 10**8


def simulate_multi(cfg: SimConfig) -> SimOutcome:
    """Seeded multi-device trials; identical config and seed give an
    identical outcome, bit for bit, on any number of CPUs.

    A trial's phases come from its own seed (see _phase_sampler), or in
    ``exhaustive_ticks`` mode from its index in the phase grid, so any
    contiguous range of trials can be played alone.  The trials are split
    into one range per available CPU, each at least _MIN_RANGE_TRIALS long;
    a forked child plays each range after the first (see _play_split).

    The work is bounded before anything is allocated: more trials than
    _MAX_TRIALS, random draws or the pairs of an ``exhaustive_ticks`` grid,
    raise DomainError, and so do trials whose scans together may test more
    than _MAX_SCANNED_EMISSIONS emissions.

    _trial_runner plays each trial's phase tuple, in config order, and
    decides once which phases jam (every interferer that sends, and a
    self-blocking receiver that sends), how far a trial scans and so the
    most emissions it may test, the figure the budget charges.  A range
    yields three columns: the phases, latencies and first-beacon
    collisions.
    """
    if cfg.offset_sampling is OffsetSampling.EXHAUSTIVE_TICKS:
        if len(cfg.devices) != 2:
            raise ValueError("exhaustive phase sweep supports exactly two devices")
        p_e, p_f = (d.device_period for d in cfg.devices)
        n = p_e * p_f
        if n > _MAX_TRIALS:
            raise DomainError(f"exhaustive phase grid of {n} pairs exceeds {_MAX_TRIALS}")
        # the grid index i is the phase pair divmod(i, p_f), in product order
        phase_of = lambda i: divmod(i, p_f)
    else:
        n = cfg.trials
        if n > _MAX_TRIALS:
            raise DomainError(f"{n} random trials exceed {_MAX_TRIALS}")
        phase_of = _phase_sampler(cfg.seed, [d.device_period for d in cfg.devices])

    run, scan = _trial_runner(cfg.devices, cfg.horizon)
    if n * scan > _MAX_SCANNED_EMISSIONS:
        raise DomainError(
            f"{n} trials of up to {scan} emissions each exceed"
            f" {_MAX_SCANNED_EMISSIONS} emissions"
        )

    def play(lo: int, hi: int) -> tuple:
        phases = tuple(map(phase_of, range(lo, hi)))
        return (phases, *zip(*map(run, phases)))

    phases, lat, first = _play_split(n, play)
    return SimOutcome(phases, lat, first, cfg.latency_budget)


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
    r, omega = p.radio, p.beacons.beacon_duration
    return beta * (r.d_oTxRx + r.d_oRxTx + omega) / omega


def measured_blocked_fraction(p: ProtocolSpec) -> Fraction:
    """Directly measured share of reception time the device's own
    transmissions make deaf, over one full period of its joint schedule."""
    if p.beacons.count == 0:
        return Fraction(0)
    period = p.device_period
    t_b, t_c = p.beacons.period, p.receptions.period
    windows = [(a + k, b + k) for k in range(0, period, t_c) for a, b in p.receptions.spans()]
    own = _overlapping(p, 1, p.radio.d_oRxTx, p.radio.d_oTxRx)
    blocked = [(a + k, b + k) for k in range(0, period, t_b) for a, b in zip(own[::2], own[1::2])]
    lost = iv.measure(iv.intersect(windows, blocked))
    return Fraction(lost, iv.measure(windows))
