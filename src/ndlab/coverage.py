"""Coverage maps, determinism analysis and the brute-force latency oracle.

Every entry point takes the pair (e, f), the transmitter and the receiver,
and trims f's windows by e's beacon length through
``effective_window_spans(e, f)``.  The map of ``build_coverage_map(e, f)``
holds, for each beacon of one period of e's beacon list, the initial
offsets of e's first beacon within f's period at which that beacon lands
inside one of f's windows.  Beacon lists and reception windows always
repeat with their periods, so each beacon's offsets wrap around the
reception period.  ``analyze`` reads determinism, redundancy, total
coverage and the fewest beacons that could cover a period from it.

The worst-case latency oracle decides by residues, with no lcm and no
budget, whether some alignment never discovers, and sweeps only a pair
whose every offset hears, forward from the transmitter's beacon 0
(``method="endpoints"``, the default).  The worst in-range instant falls
just after a heard beacon, so the sweep measures, for every receiver
offset, the wait from each heard beacon of the first period to the next
heard one: m + S beacon steps for m beacons per period and a longest
wait of S steps.  Its one state is a set of sorted pending runs of
offsets, edited in place and tagged with the beacon they were last heard
at.

One engine per role: the endpoints sweep gives the answer; the per-tick
sweep (``method="full"``, slow and obviously correct) is its reference,
and the two must always agree; ``simulator.simulate_pair``, which imports
nothing from here, is the one replay of a single pair of device phases.
Both sweeps charge the hyperperiod budget on the joint time a scan from
any starting beacon looks at; a refusal means only that the worst case
lies past it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter

from . import intervals as iv
from .errors import HyperperiodTooLarge, MisalignedPeriods
from .schedule import (
    ProtocolSpec,
    ceil_div,
    effective_window_spans,
    require_one_tick,
    write_csv,
)


#: The oracle's answer when some alignment of the two devices never
#: discovers: None, as every replay engine answers.
UNBOUNDED = None

DEFAULT_HYPERPERIOD_BUDGET = 10_000_000


@dataclass(frozen=True)
class CoverageMap:
    """Per-beacon covered offset sets over one receiver period."""

    period: int
    per_beacon: tuple[tuple[tuple[int, int], ...], ...]
    window_coverage: int  # ticks one beacon can cover (effective window sum)

    def write_csv(self, fh) -> None:
        """The map as CSV on ``fh``, a text file opened with ``newline=""``:
        one row of ints per covered span, none for a silent transmitter."""
        write_csv(
            ("beacon_index", "interval_start", "interval_end"),
            ((i, a, b) for i, spans in enumerate(self.per_beacon) for a, b in spans),
            fh,
        )


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    uncovered: tuple[tuple[int, int], ...]
    redundant: bool
    coverage_lambda: int
    min_beacons: int | None


def build_coverage_map(e: ProtocolSpec, f: ProtocolSpec) -> CoverageMap:
    """Covered offsets of ``f``'s period for each beacon of one period of
    ``e``'s emissions, as ``f`` hears them (see effective_window_spans).

    Beacon 0 covers the window spans themselves; every later beacon covers
    the same spans shifted left by its distance to beacon 0, wrapped around
    the period, since the windows repeat every period.  A silent ``e``
    gives a map with no beacon sets.
    """
    times = e.beacons.emission_times
    base = effective_window_spans(e, f)
    period = f.receptions.period
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
    covered = iv.union(*cov.per_beacon)
    uncovered = iv.complement(covered, cov.period)
    coverage_lambda = sum(iv.measure(spans) for spans in cov.per_beacon)
    return DeterminismReport(
        deterministic=not uncovered,
        uncovered=uncovered,
        # the sets' measures add up past their union exactly when some
        # tick lies in two of them
        redundant=coverage_lambda > iv.measure(covered),
        coverage_lambda=coverage_lambda,
        min_beacons=ceil_div(cov.period, cov.window_coverage) if cov.window_coverage else None,
    )


# ---------------------------------------------------------------------------
# worst-case latency oracle
# ---------------------------------------------------------------------------

def worst_case_latency_oracle(
    e: ProtocolSpec,
    f: ProtocolSpec,
    method: str = "endpoints",
    max_hyperperiod: int = DEFAULT_HYPERPERIOD_BUDGET,
) -> int | None:
    """Exact worst-case discovery latency of ``f`` hearing ``e``.

    Sweeps every alignment of the two periodic schedules and every in-range
    instant.  A beacon whose transmission starts exactly at the in-range
    instant is already in flight and does not count, which makes the
    discrete maximum equal the continuous-time supremum.  Latency is
    counted up to the start of the first received beacon.

    ``method="full"`` is the per-tick reference sweep.  A pair in which
    some alignment never discovers is answered before any sweep.  A scan
    looks at most ``max_hyperperiod`` ticks past the first in-range beacon,
    and HyperperiodTooLarge means only that the worst case lies further; a
    pair too sparse to cover every offset within that span is not swept.
    A budget of 0 scans the first in-range beacon alone.  An unknown method
    or a negative budget is refused before anything else, then two devices
    that disagree on tick size.

    Returns ticks, or None (``UNBOUNDED``) when some alignment never
    discovers.
    """
    sweep = {"full": _oracle_full, "endpoints": _oracle_endpoints}.get(method)
    if sweep is None:
        raise ValueError(f"unknown oracle method: {method!r}")
    if max_hyperperiod < 0:
        raise ValueError(f"max_hyperperiod must be >= 0, got {max_hyperperiod}")
    require_one_tick((e, f))
    b = e.beacons
    eff = effective_window_spans(e, f)
    t_c = f.receptions.period
    if not b.count or not _every_offset_hears(eff, b.emission_times, gcd(b.period, t_c)):
        return None
    gaps = b.gaps()
    limit = max_hyperperiod + 1  # a scan looks at shifts below limit
    # covering all t_c offsets takes ceil(t_c / cover) beacons or more, and
    # the last of them lies at least (that many - 1) * min(gaps) past the first
    too_far = (ceil_div(t_c, iv.measure(eff)) - 1) * min(gaps) >= limit
    if too_far or (worst := sweep(t_c, eff, gaps, limit)) is None:
        raise HyperperiodTooLarge(lcm(b.period, t_c), max_hyperperiod)
    return worst


def _every_offset_hears(eff, times, g):
    # The beacon at tau lands, over its repeats, on the whole class of
    # phi + tau mod g: offset phi hears it when phi mod g lies in a window
    # shifted back by tau.  The arcs, sorted by start, must cover that circle.
    if any(z - a >= g for a, z in eff):
        return True
    residues = {tau % g for tau in times}
    arcs = sorted([((a - r) % g, z - a) for a, z in eff for r in residues], key=itemgetter(0))
    reach = max([0] + [x + n - g for x, n in arcs])  # what wraps past g
    for x, n in arcs:
        if x > reach:
            return False
        if x + n > reach:
            reach = x + n
    return reach >= g


def _oracle_full(t_c, eff, gaps, limit):
    # For each first in-range beacon j and each receiver offset phi it
    # lands at, scan beacons j, j+1, ... tick-exactly (beacon k lands at phi
    # plus the gaps summed since j, wrapped into the receiver period) until
    # one lands in a window; one scan reaching shift ``limit`` fails.
    edges = iv.edges(eff)
    m = len(gaps)
    best = 0
    for j in range(m):
        wait = gaps[(j - 1) % m]
        worst = 0
        for phi in range(t_c):
            shift, k, pos = 0, j, phi
            while not bisect_right(edges, pos) & 1:
                shift += gaps[k % m]
                if shift >= limit:
                    return None
                k += 1
                pos = (phi + shift) % t_c
            if shift > worst:
                worst = shift
        if wait + worst > best:
            best = wait + worst
    return best


def _hear(starts, ends, tags, x, y, tag):
    """Offsets [x, y) hear a beacon: close the pending runs there and return
    the oldest tag among them, or None when no pending offset lies there.
    The runs are ``[starts[i], ends[i])``, sorted, disjoint and tagged with
    the beacon they were last heard at.  A ``tag`` other than None restarts
    all of [x, y) as one run heard at ``tag``."""
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
    # each heard beacon among 0 .. m-1 to the next heard one.  Its only
    # state is the pending runs (see _hear), none at first: beacons 0 .. m-1
    # restart the runs they hear with their own index, later ones only close
    # them, and all close, as every offset hears.  Closing one tagged h at
    # ``shift`` records the wait shift - at[h]; one pending ``limit`` past
    # at[h + 1] is a failed scan from beacon h + 1.  The first-hit latency is
    # piecewise constant between shifted window endpoints, so the runs find
    # the exact maximum; a step places each window with one modulo.
    pieces = [(a, b - a) for a, b in eff]
    m = len(gaps)
    at = [0, *accumulate(gaps)]  # at[h]: beacon h's emission offset
    starts, ends, tags = [], [], []
    best = shift = k = 0
    while k < m or tags:
        # min(tags) is O(runs); as at[h + 1] >= 0, no run fails before limit
        if shift >= limit and tags and shift - at[min(tags) + 1] >= limit:
            return None
        tag = k if k < m else None
        for a, length in pieces:
            x = (a - shift) % t_c
            y = x + length
            parts = ((0, y - t_c), (x, t_c)) if y > t_c else ((x, y),)
            for x, y in parts:
                h = _hear(starts, ends, tags, x, y, tag)
                if h is not None and shift - at[h] > best:
                    best = shift - at[h]
        shift += gaps[k % m]
        k += 1
    return best


# ---------------------------------------------------------------------------
# either-way discovery of two devices with one common period
# ---------------------------------------------------------------------------

def check_correlated_quadruple(e: ProtocolSpec, f: ProtocolSpec) -> DeterminismReport:
    """Determinism of either-way discovery for two devices whose beacons
    and windows all repeat with one common period.

    A pair is discovered at an alignment when either device hears the
    other, so it is deterministic exactly when the alignments at which f's
    beacons hit e's windows and those at which e's beacons hit f's windows
    jointly cover one period.  With one common period both sets are fixed
    per beacon, so no anchor between beacons and windows is needed.
    Offsets are the position of f's period origin inside e's period, and
    ``coverage_lambda`` sums the images of both devices' beacons.  Each
    image covers one device's effective window sum, so ``min_beacons``
    divides the period by the larger of the two sums, in either argument
    order, and is None when neither device has an effective window.
    """
    t = e.receptions.period
    for p, name in ((e, "e"), (f, "f")):
        if p.receptions.period != t or p.beacons.period != t:
            raise MisalignedPeriods("all four sequences must share one period")
        if p.beacons.count == 0:
            raise ValueError(f"device {name} has no beacons")

    from_f, from_e = _quadruple_images(e, f)
    # from_f[0] is a rotation of e's effective windows, from_e[0] a
    # reflection of f's
    widest = max(iv.measure(from_f[0]), iv.measure(from_e[0]))
    return analyze(CoverageMap(t, tuple(from_f + from_e), widest))


def _quadruple_images(e: ProtocolSpec, f: ProtocolSpec):
    """Per beacon, the alignments at which f's beacons hit e and e's hit f."""
    t = e.receptions.period
    eff_e = effective_window_spans(f, e)
    eff_f = effective_window_spans(e, f)
    # f's beacon at tau lands in e's window [a, b) when the alignment theta
    # lies in [a - tau, b - tau); e's beacon at tau lands in f's window when
    # theta lies in the reflection [tau - b + 1, tau - a + 1).
    from_f = [iv.shift_mod(eff_e, tau % t, t) for tau in f.beacons.emission_times]
    from_e = [iv.reflect_mod(eff_f, tau, t) for tau in e.beacons.emission_times]
    return from_f, from_e

