"""Shared schedule builders and reference closed forms for the test suite."""

from __future__ import annotations

import copy
import math
import random
from bisect import bisect_right
from fractions import Fraction

from ndlab import (
    BeaconSchedule,
    DomainError,
    InfeasibleError,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    worst_case_latency_oracle,
)
from ndlab.bounds import (
    AsymmetricBound,
    ChannelConstrainedBound,
    MutualExclusiveBound,
    SymmetricBound,
    bound_unidirectional,
)
from ndlab.protocols import gen_optimal_unidirectional
from ndlab.schedule import (
    protocol_to_json,
    rat,
    reception_duty_cycle,
    transmission_duty_cycle,
)
from ndlab.simulator import _overlapping


def listener(windows, period, omega=1, alpha=1, semantics=Semantics.IDEAL):
    """Receive-only device."""
    return ProtocolSpec(
        BeaconSchedule((), omega, period=None),
        ReceptionSchedule(tuple(ReceptionWindow(a, d) for a, d in windows), period),
        RadioModel(alpha=Fraction(alpha), omega=omega, semantics=semantics),
    )


def receive_only(receptions: ReceptionSchedule) -> ProtocolSpec:
    """Receive-only device with the given reception schedule."""
    return ProtocolSpec(BeaconSchedule((), 1), receptions, RadioModel())


def beaconer(times, t_b, omega=1, alpha=1, semantics=Semantics.IDEAL):
    """Transmit-only device (a token one-tick window keeps the model whole)."""
    return ProtocolSpec(
        BeaconSchedule(tuple(times), omega, period=t_b),
        ReceptionSchedule((ReceptionWindow(0, 1),), period=max(2, omega + 1)),
        RadioModel(alpha=Fraction(alpha), omega=omega, semantics=semantics),
    )


def c7_devices(s: int) -> tuple[ProtocolSpec, ...]:
    """Criterion-7 collision set-up: one-beacon senders at beta = 1/200 with
    omega = 100 ticks, and an always-on receiver in second place."""
    sender = ProtocolSpec(
        BeaconSchedule((0,), 100, period=20000),
        ReceptionSchedule((ReceptionWindow(0, 1),), 20000),
        RadioModel(omega=100),
    )
    receiver = ProtocolSpec(
        BeaconSchedule((), 100, period=None),
        ReceptionSchedule((ReceptionWindow(0, 20000),), 20000),
        RadioModel(omega=100),
    )
    return (sender, receiver) + (sender,) * (s - 1)


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


def slots_overlap_all_rotations(active, period_slots: int) -> bool:
    """Whether two copies of a slot schedule share an active slot under
    every integer rotation."""
    act = set(active)
    return all(any((s + r) % period_slots in act for s in act) for r in range(period_slots))


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
    """Sorted device-time beacon starts in [lo, hi), the schedule unrolled
    one period at a time, backwards and forwards from 0."""
    taus = beacons.emission_times
    base = 0
    while taus and base + taus[-1] >= lo:
        base -= beacons.period
    out = []
    while taus and base + taus[0] < hi:
        out += [base + tau for tau in taus if lo <= base + tau < hi]
        base += beacons.period
    return out


def _heard_ticks(omega: int, f: ProtocolSpec, self_blocking: bool, span: int) -> bytearray:
    """heard[x]: whether f hears a beacon of omega ticks that starts at its
    device tick x, for x in [0, span); one byte a tick, so a horizon of
    tens of millions of ticks stays within tens of MB.

    A beacon starting at x is received when x lies in a window occurrence;
    under CONTAINED it must not start in the occurrence's last omega ticks
    either.  With self_blocking, f is deaf while any of its own beacons,
    padded by d_oRxTx ahead and d_oTxRx behind, overlaps the beacon's start
    (IDEAL) or its whole length (CONTAINED).
    """
    r = f.radio
    contained = r.semantics is Semantics.CONTAINED
    tail = omega if contained else 0  # last window ticks a beacon may not start in
    need = omega if contained else 1  # beacon ticks that must miss an own beacon
    heard = bytearray(span)
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
        heard = bytearray(ok and not any(busy[x : x + need]) for x, ok in enumerate(heard))
    return heard


def per_tick_pair(e: ProtocolSpec, f: ProtocolSpec, horizon: int):
    """Independent per-tick reference for a full-duplex f hearing e, with no
    modulo and no simulator internals.  Returns latency(phase_e, phase_f):
    the first global tick t in [1, horizon] at which e starts a beacon
    that f hears (see _heard_ticks), or None, for phases below the devices'
    periods.  Every schedule is unrolled onto an absolute tick axis of f's
    device time.  For a self-blocking f, per_tick_trial((e, f), horizon)
    is the reference.
    """
    span = f.device_period + horizon + 1
    heard = _heard_ticks(e.beacons.beacon_duration, f, False, span)
    starts = _beacon_starts(e.beacons, 1, e.device_period + horizon + 1)

    def latency(phase_e: int, phase_f: int):
        for s in starts:
            if s > phase_e + horizon:
                break
            if s > phase_e and heard[phase_f + s - phase_e]:
                return s - phase_e
        return None

    return latency


def per_tick_trial(devices, horizon: int, budget: int | None = None):
    """Independent per-tick reference for one multi-device trial, with no
    modulo and no simulator internals.  devices[0] joins, devices[1]
    receives and every later device that sends interferes.  Returns
    trial(phases) -> (latency, first collided, failed) for phases below the
    devices' periods, with the emissions at global ticks [1, horizon].

    Every device is unrolled onto an absolute tick axis of its own device
    time.  The receiver hears as in _heard_ticks, deafened by its own
    padded beacons.  An emission at t collides when any tick of it, [t, t +
    omega), meets a tick on which another sending device transmits, and
    the receiver counts as such a device too.  So joiner
    ``beaconer([0], 10, omega=3)`` against an always-listening receiver
    with a 1-tick beacon at 1 every 10 ticks never discovers at phases
    (0, 0): the receiver's beacon at 11 misses the start tick of the
    emission at 10, so it is not deaf, but it collides with that emission
    and with every later one.  The latency is the first emission heard
    without a collision; a trial fails without a latency or with one above
    the budget.
    """
    e, f = devices[0], devices[1]
    omega = e.beacons.beacon_duration
    heard = _heard_ticks(omega, f, True, f.device_period + horizon + 1)
    sending = []
    for i, d in enumerate(devices[1:], 1):
        if d.beacons.count:
            span = d.device_period + horizon + omega
            busy = [False] * span
            width = d.beacons.beacon_duration
            for s in _beacon_starts(d.beacons, -width, span):
                for y in range(max(0, s), min(s + width, span)):
                    busy[y] = True
            sending.append((i, busy))
    starts = _beacon_starts(e.beacons, 1, e.device_period + horizon + 1)

    def trial(phases):
        emissions = [s - phases[0] for s in starts if phases[0] < s <= phases[0] + horizon]
        if not emissions:
            return None, False, True

        def collided(t):
            return any(any(busy[phases[i] + t : phases[i] + t + omega]) for i, busy in sending)

        first = collided(emissions[0])
        for t in emissions:
            if heard[phases[1] + t] and not collided(t):
                return t, first, budget is not None and t > budget
        return None, first, True

    return trial


def jammer(spec: ProtocolSpec, width: int):
    """overlaps(phase, t): whether any beacon of the device overlaps the
    global interval [t, t + width), the simulator's collision test for one
    interferer."""
    busy, t_b = _overlapping(spec, width), spec.beacons.period
    return lambda phase, t: bisect_right(busy, (phase + t) % t_b) & 1


def first_collision_rate(joiner: ProtocolSpec, interferers) -> Fraction:
    """Exact chance that the joiner's first beacon collides when each
    interferer's phase is uniform, from the schedule fields alone.

    A joiner beacon of omega ticks starting at t and an interferer beacon
    of w ticks starting at tau overlap when t - tau lies in [1 - omega,
    w - 1].  So B_i, the interferer phases modulo its period t_b at which
    it overlaps a given joiner beacon, are its beacon spans widened by
    omega - 1 ticks ahead, taken modulo t_b, and the phases are independent:
    the rate is 1 - prod(1 - B_i / t_b), whatever the joiner's phase.
    """
    omega = joiner.beacons.beacon_duration
    clear = Fraction(1)
    for d in interferers:
        b = d.beacons
        hit = {
            (tau + x) % b.period
            for tau in b.emission_times
            for x in range(1 - omega, b.beacon_duration)
        }
        clear *= 1 - Fraction(len(hit), b.period)
    return 1 - clear


def per_tick_max_gap(e: ProtocolSpec, f: ProtocolSpec):
    """Independent reference for the worst-case latency of f hearing e, by
    brute force over one joint cycle, with no coverage internals.

    For each receiver offset it lists the start times of e's beacons over
    one lcm of the two periods that land where f hears them, and takes the
    largest cyclic gap between consecutive heard beacons: the worst
    in-range instant falls just after a heard beacon.  A beacon starting at
    x is heard when x lies in a window, and under CONTAINED not in the
    window's last omega ticks.  Returns None if some offset hears nothing.
    """
    b, r = e.beacons, f.receptions
    tail = b.beacon_duration if f.radio.semantics is Semantics.CONTAINED else 0
    heard = [False] * r.period
    for w in r.windows:
        for x in range(w.start, w.end - tail):
            heard[x] = True
    cycle = math.lcm(b.period, r.period)
    starts = [base + tau for base in range(0, cycle, b.period) for tau in b.emission_times]
    worst = 0
    for phi in range(r.period):
        hits = [s for s in starts if heard[(phi + s) % r.period]]
        if not hits:
            return None
        gaps = [y - x for x, y in zip(hits, hits[1:])] + [hits[0] + cycle - hits[-1]]
        worst = max(worst, *gaps)
    return worst


def fewest_covering_points(circle: int, step: int, d: int):
    """The least n for which the points k * step mod circle, k < n, leave no
    circular gap longer than d, or None when no n does.

    The gap process in division form.  Between rounds the gaps take two
    lengths: the longest, x (cx gaps), and y (cy gaps); one point leaves
    one gap, the whole circle, and the point at ``step`` splits it first.
    By the three-distance theorem each new point splits one gap of length
    x into y and x - y, so the longest gap stays x until a round of cx
    points has split them all.  Rounds repeat with x - y, x - 2y, ... while
    that exceeds y, so one division counts them, and the lengths follow
    Euclid's algorithm on (circle, step).  When y divides x, the points
    close up into equal gaps y after q - 1 rounds and gain no more.
    """
    x, cx, y, cy = circle, 1, step % circle, 0
    while x > d:
        if not y:  # the points repeat: no gap gets shorter than x
            return None
        q, r = divmod(x, y)
        rounds = -(-(x - d) // y)  # rounds until the longest gap is at most d
        if rounds < q:
            return cx + cy + rounds * cx
        if not r:  # after q - 1 rounds every gap is y > d, and stays so
            return None
        x, cx, y, cy = y, cy + q * cx, r, cx
    return cx + cy


def three_gap_worst_case(e: ProtocolSpec, f: ProtocolSpec):
    """Independent closed-form reference for the worst-case latency of f
    hearing e when e sends one beacon per period t_b and the ticks at which
    f hears a beacon start form one arc of d ticks on its circle of t_c
    offsets; no lcm, no sweep and no coverage internals.

    Beacon k lands at offset phi + k t_b modulo t_c, so the worst case is
    t_b * n for the fewest n consecutive beacons that every offset hears
    at least once: fewest_covering_points(t_c, t_b, d).  A beacon starting
    at x is heard as in per_tick_max_gap, and pieces that touch, across
    0 and t_c too, are one arc.  Returns None when some offset never
    hears a beacon; raises ValueError on a pair of another shape.
    """
    b, r = e.beacons, f.receptions
    if b.count != 1:
        raise ValueError("three_gap_worst_case needs one beacon per period")
    tail = b.beacon_duration if f.radio.semantics is Semantics.CONTAINED else 0
    arcs = []
    for w in r.windows:
        a, z = w.start, w.end - tail
        if a >= z:
            continue
        if arcs and arcs[-1][1] == a:
            arcs[-1][1] = z
        else:
            arcs.append([a, z])
    if len(arcs) > 1 and arcs[0][0] == 0 and arcs[-1][1] == r.period:
        arcs[0][0] = arcs.pop()[0] - r.period
    if not arcs:
        return None
    if len(arcs) > 1:
        raise ValueError(f"heard ticks form {len(arcs)} arcs, not one")
    n = fewest_covering_points(r.period, b.period, arcs[0][1] - arcs[0][0])
    return None if n is None else b.period * n


def small_scope_pairs(n: int):
    """Every small pair (e, f): e sends one or two beacons, anywhere in a
    period t_b of 2 to ``n`` ticks and at least omega apart around it; f
    listens in one or two windows, with a gap between them, in a period
    t_c of 2 to ``n`` ticks; omega is 1 or 2, under IDEAL and CONTAINED.
    Whether f hears e depends only on e's beacons and f's windows, so the
    rest of each device is fixed."""
    windows = [
        (spans, t_c)
        for t_c in range(2, n + 1)
        for a in range(t_c)
        for b in range(a + 1, t_c + 1)
        for spans in [[(a, b - a)]] + [
            [(a, b - a), (c, d - c)] for c in range(b + 1, t_c) for d in range(c + 1, t_c + 1)
        ]
    ]
    for omega in (1, 2):
        beacons = [
            (times, t_b)
            for t_b in range(2, n + 1)
            for first in range(t_b)
            for times in [(first,)] + [(first, t) for t in range(first + 1, t_b)]
            if min(b - a for a, b in zip(times, times[1:] + (times[0] + t_b,))) >= omega
        ]
        for semantics in (Semantics.IDEAL, Semantics.CONTAINED):
            for times, t_b in beacons:
                e = beaconer(times, t_b, omega=omega)
                for spans, t_c in windows:
                    yield e, listener(spans, t_c, omega=omega, semantics=semantics)


def small_scope_agreement(n: int) -> tuple[int, int, int, int]:
    """Check the oracle, by either method, against per_tick_max_gap on every
    small_scope_pairs(n) pair, and against three_gap_worst_case on every
    pair with one beacon and one window; check that no pair that discovers
    beats bound_unidirectional(gamma_f, beta_e, omega), the paper's "no ND
    protocol can beat" claim for one-way discovery; raise AssertionError at
    the first failure.

    Returns the number of pairs, of UNBOUNDED ones, of one-beacon,
    one-window ones and of ones whose latency equals the one-way bound.
    Run it from the repository root as
    ``PYTHONPATH=src:tests python -c "from helpers import
    small_scope_agreement as a; print(a(8))"``.
    """
    pairs = unbounded = simple = at_bound = 0
    for e, f in small_scope_pairs(n):
        got = worst_case_latency_oracle(e, f)
        want = per_tick_max_gap(e, f)
        assert got == want == worst_case_latency_oracle(e, f, "full"), (e, f, got, want)
        if e.beacons.count == len(f.receptions.windows) == 1:
            assert got == three_gap_worst_case(e, f), (e, f, got)
            simple += 1
        if got is not None:
            gamma, beta = reception_duty_cycle(f.receptions), transmission_duty_cycle(e.beacons)
            bound = bound_unidirectional(gamma, beta, e.beacons.beacon_duration)
            assert got >= bound, (e, f, got, bound)
            at_bound += got == bound
        pairs += 1
        unbounded += got is None
    return pairs, unbounded, simple, at_bound


# ---------------------------------------------------------------------------
# tightness witnesses: schedules whose oracle latency equals a bound exactly
# ---------------------------------------------------------------------------

def asymmetric_witness(k_e: int, k_f: int, omega: int, alpha) -> tuple[ProtocolSpec, ProtocolSpec]:
    """A pair at total duty cycles 2/k_e and 2/k_f whose two-way latency is
    bound_asymmetric's A * k_e * k_f, with A = alpha * omega whole ticks.

    e beacons once per A k_e ticks and listens A k_f ticks per A k_e k_f,
    so alpha * beta_e = gamma_e = 1/k_e; f is the mirror image.  f's
    window is as long as e's beacon period, so each of f's periods holds
    exactly one heard beacon of e, and the other way round.
    """
    a = alpha * omega
    if Fraction(a).denominator != 1:
        raise ValueError(f"alpha * omega = {a} is not a whole tick count")
    a = int(a)
    radio = RadioModel(alpha=Fraction(alpha), omega=omega)
    cycle = a * k_e * k_f

    def device(k_own: int, k_other: int) -> ProtocolSpec:
        return ProtocolSpec(
            BeaconSchedule((0,), omega, period=a * k_own),
            ReceptionSchedule((ReceptionWindow(0, a * k_other),), cycle),
            radio,
        )

    return device(k_e, k_f), device(k_f, k_e)


def channel_constrained_witness(eta, beta_m, omega: int, alpha) -> ProtocolSpec:
    """A device that, against itself, attains the case-2 value of
    bound_channel_constrained(eta, beta_m, omega, alpha): the optimal
    unidirectional schedule beaconing at beta_m and listening 1/k of the
    time, k = ceil(1 / (eta - alpha * beta_m)), so its duty cycle is at
    most eta and its latency k * omega / beta_m."""
    k = math.ceil(1 / (rat(eta) - rat(alpha) * rat(beta_m)))
    radio = RadioModel(alpha=Fraction(alpha), omega=omega)
    return gen_optimal_unidirectional(k, beta_m, omega, radio)


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
    ("receptions.repetitive", False),
    ("beacons.period", None),
    ("beacons", {"times": [], "omega": 1, "period": 0}),
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


def one_shot(p: ProtocolSpec) -> dict:
    """The document of ``p`` with its reception windows marked as not
    repeating, which the loader refuses."""
    return with_field(protocol_to_json(p), "receptions.repetitive", False)


# ---------------------------------------------------------------------------
# reference closed forms: the bounds written as Fraction expressions, against
# which the library's integer-ratio evaluations must agree exactly
# ---------------------------------------------------------------------------

def _ref_positive(omega, alpha=1) -> None:
    if omega <= 0:
        raise DomainError("omega must be positive")
    if alpha <= 0:
        raise DomainError("alpha must be positive")


def ref_bound_unidirectional(gamma, beta, omega) -> Fraction:
    gamma, beta, omega = rat(gamma), rat(beta), rat(omega)
    if not 0 < gamma <= 1:
        raise DomainError("gamma must lie in (0, 1]")
    if beta <= 0:
        raise DomainError("beta must be positive")
    _ref_positive(omega)
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
    _ref_positive(omega, alpha)
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
    _ref_positive(omega, alpha)
    return 4 * alpha * omega / (eta * eta)


def ref_bound_channel_constrained(eta, beta_m, omega, alpha) -> ChannelConstrainedBound:
    """The symmetric bound while its beacon rate fits under the cap beta_m
    (ties included); past it, the unidirectional bound of beacons at the
    cap heard by a receiver that listens with the rest of the budget, at
    most all the time."""
    eta, beta_m, omega, alpha = rat(eta), rat(beta_m), rat(omega), rat(alpha)
    _ref_positive(omega, alpha)
    if beta_m <= 0:
        raise DomainError("beta_m must be positive")
    listening = eta - alpha * beta_m
    if listening <= 0:
        raise InfeasibleError("duty cycle too small to afford beta_m plus listening")
    sym = ref_bound_symmetric(eta, omega, alpha)
    if listening <= sym.gamma_o:
        return ChannelConstrainedBound(sym.latency, 1, sym.gamma_o)
    latency = ref_bound_unidirectional(min(listening, Fraction(1)), beta_m, omega)
    return ChannelConstrainedBound(latency, 2, sym.gamma_o)


def ref_bound_asymmetric(eta_e, eta_f, omega, alpha) -> AsymmetricBound:
    """Each device spends half its budget on listening and half, at alpha
    times the cost, on beacons; a direction then takes omega over the
    sender's beacon rate times the listener's reception rate, and the two
    directions agree."""
    eta_e, eta_f, omega, alpha = rat(eta_e), rat(eta_f), rat(omega), rat(alpha)
    if eta_e <= 0 or eta_f <= 0:
        raise DomainError("duty cycles must be positive")
    _ref_positive(omega, alpha)
    gamma_e, gamma_f = eta_e / 2, eta_f / 2
    beta_e, beta_f = gamma_e / alpha, gamma_f / alpha
    latency = omega / (beta_e * gamma_f)
    assert latency == omega / (beta_f * gamma_e)
    # the split is reachable exactly when both reception rates are 1/k
    tight = gamma_e.numerator == 1 and gamma_f.numerator == 1
    return AsymmetricBound(latency, tight, beta_e, gamma_e, beta_f, gamma_f)


def ref_bound_mutual_exclusive(eta, omega, alpha) -> MutualExclusiveBound:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    _ref_positive(omega, alpha)
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
    _ref_positive(omega)
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
    _ref_positive(omega, alpha)
    return omega * (1 + 2 * alpha + alpha * alpha) / (eta * eta)


def ref_bound_slotted_two_beacon(eta, omega, alpha) -> Fraction:
    eta, omega, alpha = rat(eta), rat(omega), rat(alpha)
    if eta <= 0:
        raise DomainError("eta must be positive")
    _ref_positive(omega, alpha)
    return omega * (Fraction(1, 2) + 2 * alpha + 2 * alpha * alpha) / (eta * eta)
