"""Coverage maps, determinism analysis and the brute-force latency oracle.

A coverage map holds, for each beacon of a sequence, the initial offsets
of the transmitter's first beacon within the receiver's period at which
that beacon lands inside a reception window.  Reception windows always
repeat every period, so each beacon's offsets wrap around it.  ``analyze``
reads determinism, redundancy, total coverage and the fewest beacons that
could cover a period from it.

The worst-case latency oracle sweeps coverage endpoints forward from the
transmitter's beacon 0 (``method="endpoints"``, the default).  The worst
in-range instant falls just after a heard beacon, so the sweep measures,
for every receiver offset, the wait from each heard beacon of the first
period to the next heard one: m + S beacon steps for m beacons per period
and a longest wait of S steps.  Its one state is a set of sorted pending
runs of offsets, edited in place and tagged with the beacon they were
last heard at, or -1 while not heard since beacon 0; one rule proves
UNBOUNDED: a run still pending a whole scan limit past the beacon after
its tag.  A beacon step places each window with one modulo and
splits it only where it wraps past the reception period.  A per-tick
sweep (``method="full"``, slow and obviously correct) is kept as the
independent reference engine; the two must always agree and the tests
enforce that.  Both charge the hyperperiod budget on the joint time a scan
from any starting beacon looks at.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from . import intervals as iv
from .errors import HyperperiodTooLarge, MisalignedPeriods
from .schedule import (
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ceil_div,
    effective_window_spans,
)


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


#: Returned when some alignment of the two devices never discovers.
UNBOUNDED = _Sentinel("UNBOUNDED")

DEFAULT_HYPERPERIOD_BUDGET = 10_000_000


@dataclass(frozen=True)
class CoverageMap:
    """Per-beacon covered offset sets over one receiver period."""

    period: int
    per_beacon: tuple[tuple[tuple[int, int], ...], ...]
    window_coverage: int  # ticks one beacon can cover (effective window sum)

    def write_csv(self, fh) -> None:
        """The map as CSV on ``fh``, a text file opened with ``newline=""``."""
        w = csv.writer(fh)
        w.writerow(["beacon_index", "interval_start", "interval_end"])
        w.writerows(
            (i, a, b) for i, spans in enumerate(self.per_beacon) for a, b in spans
        )


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    uncovered: tuple[tuple[int, int], ...]
    redundant: bool
    coverage_lambda: int
    min_beacons: int | None


def build_coverage_map(
    beacon_times: Sequence[int],
    receptions: ReceptionSchedule,
    radio: RadioModel,
) -> CoverageMap:
    """Covered offsets for each beacon of a finite sequence.

    Beacon 0 covers the window spans themselves; every later beacon covers
    the same spans shifted left by its distance to beacon 0, wrapped around
    the period, since the windows repeat every period.  No beacons give a
    map with no beacon sets.
    """
    times = sorted(beacon_times)
    base = effective_window_spans(receptions, radio.semantics, radio.omega)
    period = receptions.period
    return CoverageMap(
        period=period,
        per_beacon=tuple(iv.shift_mod(base, (t - times[0]) % period, period) for t in times),
        window_coverage=iv.measure(base),
    )


def analyze(cov: CoverageMap) -> DeterminismReport:
    """Determinism, redundancy and total coverage of a map.

    ``min_beacons`` is ceil(period / window sum): each beacon covers at
    most the window sum, so fewer can never cover the period (necessary,
    not sufficient).  It is None when no window can hold a whole beacon.
    """
    return _report(cov.per_beacon, cov.period, cov.window_coverage)


def _report(span_sets, period: int, cover: int) -> DeterminismReport:
    """Determinism verdicts on per-beacon covered offset sets over one
    period; ``cover`` is the most offsets a single beacon can cover."""
    covered = iv.union(*span_sets)
    uncovered = iv.complement(covered, period)
    coverage_lambda = sum(iv.measure(spans) for spans in span_sets)
    return DeterminismReport(
        deterministic=not uncovered,
        uncovered=uncovered,
        # the sets' measures add up past their union exactly when some
        # tick lies in two of them
        redundant=coverage_lambda > iv.measure(covered),
        coverage_lambda=coverage_lambda,
        min_beacons=ceil_div(period, cover) if cover else None,
    )


# ---------------------------------------------------------------------------
# worst-case latency oracle
# ---------------------------------------------------------------------------

def _oracle_setup(e: ProtocolSpec, f: ProtocolSpec, max_hyperperiod: int):
    """Sweep inputs.  A scan looks at shifts below ``limit``: the lcm, where
    offsets repeat, capped by the budget; ``overrun`` is raised when a scan
    reaches a limit the budget set, since only the lcm proves UNBOUNDED.  A
    budget of 0 scans the first in-range beacon alone; a negative one is
    refused."""
    if max_hyperperiod < 0:
        raise ValueError(f"max_hyperperiod must be >= 0, got {max_hyperperiod}")
    b = e.beacons
    if b.count == 0:
        return None  # a silent device is never discovered
    if not b.repetitive:
        raise ValueError("the oracle needs a repetitive beacon schedule")
    t_c = f.receptions.period
    hyper = lcm(b.period, t_c)
    eff = effective_window_spans(f.receptions, f.radio.semantics, b.beacon_duration)
    limit = min(hyper, max_hyperperiod + 1)
    overrun = HyperperiodTooLarge(hyper, max_hyperperiod) if limit < hyper else None
    return t_c, eff, b.gaps(), limit, overrun


def _first_hit_steps(edges, t_c, gaps, j, phi, limit):
    """Scan beacons j, j+1, ... until one lands in the windows ``edges``
    (beacon j+i lands at phi plus the accumulated gaps, wrapped into the
    receiver period); return its emission offset, or None at shift ``limit``."""
    m = len(gaps)
    shift = 0
    pos = phi
    while shift < limit:
        if bisect_right(edges, pos) & 1:
            return shift
        shift += gaps[j % m]
        j += 1
        pos = (phi + shift) % t_c
    return None


def worst_case_latency_oracle(
    e: ProtocolSpec,
    f: ProtocolSpec,
    method: str = "endpoints",
    max_hyperperiod: int = DEFAULT_HYPERPERIOD_BUDGET,
):
    """Exact worst-case discovery latency of ``f`` hearing ``e``.

    Sweeps every alignment of the two periodic schedules and every in-range
    instant.  A beacon whose transmission starts exactly at the in-range
    instant is already in flight and does not count, which makes the
    discrete maximum equal the continuous-time supremum.  Latency is
    counted up to the start of the first received beacon.

    ``method="full"`` is the per-tick reference sweep.  A scan looks at
    most ``max_hyperperiod`` ticks past the first in-range beacon and raises
    HyperperiodTooLarge only when the worst case lies further, or when
    proving UNBOUNDED would (that takes one whole lcm of the periods); a
    pair too sparse to cover every offset within that span is not swept.

    Returns ticks, or UNBOUNDED when some alignment never discovers.
    """
    setup = _oracle_setup(e, f, max_hyperperiod)
    if setup is None:
        return UNBOUNDED
    t_c, eff, gaps, limit, overrun = setup
    cover = iv.measure(eff)
    if cover == 0:
        return UNBOUNDED
    sweep = {"full": _oracle_full, "endpoints": _oracle_endpoints}.get(method)
    if sweep is None:
        raise ValueError(f"unknown oracle method: {method!r}")
    # covering all t_c offsets takes ceil(t_c / cover) beacons or more, and
    # the last of them lies at least (that many - 1) * min(gaps) past the first
    too_far = (ceil_div(t_c, cover) - 1) * min(gaps) >= limit
    worst = UNBOUNDED if too_far else sweep(t_c, eff, gaps, limit)
    if worst is UNBOUNDED and overrun is not None:
        raise overrun
    return worst


def _oracle_full(t_c, eff, gaps, limit):
    edges = iv.edges(eff)
    m = len(gaps)
    best = 0
    for j in range(m):
        wait = gaps[(j - 1) % m]
        worst = 0
        for phi in range(t_c):
            hit = _first_hit_steps(edges, t_c, gaps, j, phi, limit)
            if hit is None:
                return UNBOUNDED
            if hit > worst:
                worst = hit
        if wait + worst > best:
            best = wait + worst
    return best


def _hear(starts, ends, tags, x, y, tag):
    """Offsets [x, y) hear a beacon: close the pending runs there and return
    the oldest tag among them, or None when no pending offset lies there.
    The runs are ``[starts[i], ends[i])``, sorted, disjoint and tagged with
    the beacon they were last heard at (-1: not heard since beacon 0).  A
    ``tag`` other than None restarts all of [x, y) as one run heard at
    ``tag``."""
    lo = bisect_right(ends, x)
    hi = bisect_left(starts, y, lo)
    oldest = None
    if lo < hi:
        oldest = tags[lo] if hi - lo == 1 else min(tags[lo:hi])
        if starts[lo] < x and ends[lo] > y:  # [x, y) splits one run in two
            starts.insert(lo + 1, y)
            ends.insert(lo, x)
            tags.insert(lo, oldest)
            lo = hi = lo + 1  # head and tail kept; the gap between is empty
        else:
            if starts[lo] < x:  # the first run keeps its head
                ends[lo] = x
                lo += 1
            if ends[hi - 1] > y:  # the last run keeps its tail
                starts[hi - 1] = y
                hi -= 1
    # the runs lo .. hi-1 lie inside [x, y): close them, then restart [x, y)
    if tag is None:
        del starts[lo:hi], ends[lo:hi], tags[lo:hi]
    else:
        starts[lo:hi] = (x,)
        ends[lo:hi] = (y,)
        tags[lo:hi] = (tag,)
    return oldest


def _oracle_endpoints(t_c, eff, gaps, limit):
    # Exact because the worst start comes just after a heard beacon: a start
    # one beacon earlier waits for the same next hit plus one more gap, and
    # shifting the offset by t_b maps beacon k + m onto beacon k.  So one
    # forward sweep from beacon 0 measures, for every offset, the wait from
    # each heard beacon among 0 .. m-1 to the next heard one.  The pending
    # runs (see _hear) are the only sweep state: every offset starts in one
    # run tagged -1, "not heard since beacon 0"; beacons 0 .. m-1 restart
    # the runs they hear with their own index, later ones only close them.
    # Closing a run tagged h at ``shift`` records the wait shift - at[h + 1].
    # For h = -1 that is the wait from an in-range instant at beacon 0, a
    # real latency and so never above the worst case.  A run tagged h still
    # pending ``limit`` past at[h + 2] is a failed scan from beacon h + 1
    # (beacon 0 for h = -1).  The first-hit latency is piecewise constant
    # between shifted window endpoints, so the runs find the exact maximum;
    # a step places each window piece with one modulo and splits it only
    # where it wraps past t_c.
    pieces = [(a, min(b - a, t_c)) for a, b in eff]  # a full period covers all
    m = len(gaps)
    at = [0, 0]  # at[h + 1]: beacon h's emission offset; at[0] serves tag -1
    for g in gaps:
        at.append(at[-1] + g)
    starts, ends, tags = [0], [t_c], [-1]
    best = 0
    shift = 0
    k = 0
    while k < m or tags:
        # min(tags) is O(runs); as at[h + 2] >= 0, no run fails before limit
        if shift >= limit and shift - at[min(tags) + 2] >= limit:
            return UNBOUNDED
        tag = k if k < m else None
        for a, length in pieces:
            x = (a - shift) % t_c
            y = x + length
            if y > t_c:
                parts = ((0, y - t_c), (x, t_c))
            else:
                parts = ((x, y),)
            for x, y in parts:
                h = _hear(starts, ends, tags, x, y, tag)
                if h is not None and shift - at[h + 1] > best:
                    best = shift - at[h + 1]
        shift += gaps[k % m]
        k += 1
    return best


def pairwise_latency(
    e: ProtocolSpec,
    f: ProtocolSpec,
    phase_e: int,
    phase_f: int,
    max_hyperperiod: int = DEFAULT_HYPERPERIOD_BUDGET,
):
    """Discovery latency for one concrete pair of device phases.

    ``phase_x`` is how far device x already is into its own schedule at the
    instant the two radios come into range.  Returns ticks, or None when no
    beacon ever lands, as ``simulate_pair`` does; the budget is charged as
    in worst_case_latency_oracle.
    """
    setup = _oracle_setup(e, f, max_hyperperiod)
    if setup is None:
        return None
    t_c, eff, gaps, limit, overrun = setup
    if iv.measure(eff) == 0:
        return None
    b = e.beacons
    # first emission strictly after the in-range instant
    first = None
    for idx, tau in enumerate(b.emission_times):
        t = (tau - phase_e - 1) % b.period + 1
        if first is None or t < first[0]:
            first = (t, idx)
    t0, j = first
    phi = (phase_f + t0) % t_c
    hit = _first_hit_steps(iv.edges(eff), t_c, gaps, j, phi, limit)
    if hit is None:
        if overrun is not None:
            raise overrun
        return None
    return t0 + hit


# ---------------------------------------------------------------------------
# correlated beacon/window pairs (mutually exclusive one-way discovery)
# ---------------------------------------------------------------------------

def _anchored_zeta(p: ProtocolSpec) -> set[int]:
    """Offsets of each beacon behind each window end, modulo the period."""
    t = p.receptions.period
    out = set()
    for tau in p.beacons.emission_times:
        for w in p.receptions.windows:
            out.add((tau - w.end) % t)
    return out


def check_correlated_quadruple(
    e: ProtocolSpec, f: ProtocolSpec, zeta: int
) -> DeterminismReport:
    """Determinism of one-way discovery for two devices whose beacons keep a
    fixed distance ``zeta`` behind a window of their own schedule.

    Locking beacons to windows makes the two directions mirror images of a
    single relative alignment, so it is enough that the offsets where f's
    beacons hit e's windows and the reflected offsets where e's beacons hit
    f's windows jointly cover one period.  Offsets are reported as the
    position of f's period origin inside e's period.
    """
    t = e.receptions.period
    for p, name in ((e, "e"), (f, "f")):
        if p.receptions.period != t or p.beacons.period != t:
            raise MisalignedPeriods("all four sequences must share one period")
        if p.beacons.count == 0:
            raise ValueError(f"device {name} has no beacons")
        if zeta % t not in _anchored_zeta(p):
            raise ValueError(f"device {name} has no beacon at zeta after a window end")

    from_f, from_e = _quadruple_images(e, f)
    # from_f[0] is a rotation of e's effective windows
    return _report(from_f + from_e, t, iv.measure(from_f[0]))


def _quadruple_images(e: ProtocolSpec, f: ProtocolSpec):
    """Per beacon, the alignments at which f's beacons hit e and e's hit f."""
    t = e.receptions.period
    eff_e = effective_window_spans(e.receptions, e.radio.semantics, f.radio.omega)
    eff_f = effective_window_spans(f.receptions, f.radio.semantics, e.radio.omega)
    # f's beacon at tau lands in e's window [a, b) when the alignment theta
    # lies in [a - tau, b - tau); e's beacon at tau lands in f's window when
    # theta lies in the reflection [tau - b + 1, tau - a + 1).
    from_f = [iv.shift_mod(eff_e, tau % t, t) for tau in f.beacons.emission_times]
    from_e = [iv.reflect_mod(eff_f, tau, t) for tau in e.beacons.emission_times]
    return from_f, from_e

