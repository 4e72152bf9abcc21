"""Coverage maps, determinism analysis and the brute-force latency oracle.

A coverage map answers, for every initial offset of a transmitter's first
in-range beacon within the receiver's period, which beacon (if any) is the
first to land inside a reception window.  From it we get determinism,
redundancy, total coverage and worst-case discovery latency.

The worst-case latency oracle sweeps coverage endpoints, cutting each
shifted window out of the edge list of the not yet covered offsets
(``method="endpoints"``, the default).  A per-tick sweep
(``method="full"``, slow and obviously correct) is kept as the independent
reference engine; the two must always agree and the tests enforce that.
Both charge the hyperperiod budget on the joint time a scan looks at.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from . import intervals as iv
from .errors import HyperperiodTooLarge, InfeasibleError, MisalignedPeriods
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


#: Returned when an offset is never covered by any beacon of the sequence.
NOT_COVERED = _Sentinel("NOT_COVERED")
#: Returned when some alignment of the two devices never discovers.
UNBOUNDED = _Sentinel("UNBOUNDED")

DEFAULT_HYPERPERIOD_BUDGET = 10_000_000


@dataclass(frozen=True)
class CoverageMap:
    """Per-beacon covered offset sets over one receiver period."""

    period: int
    per_beacon: tuple[tuple[tuple[int, int], ...], ...]
    beacon_offsets: tuple[int, ...]  # emission time of beacon i minus beacon 0's
    window_coverage: int  # ticks one beacon can cover (effective window sum)
    repetitive: bool

    def csv_rows(self):
        for i, spans in enumerate(self.per_beacon):
            for a, b in spans:
                yield (i, a, b)

    def write_csv(self, fh) -> None:
        """The map as CSV on ``fh``, a text file opened with ``newline=""``."""
        w = csv.writer(fh)
        w.writerow(["beacon_index", "interval_start", "interval_end"])
        w.writerows(self.csv_rows())


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
    the same spans shifted left by its distance to beacon 0.  In repetitive
    mode shifts wrap around the period; in horizon mode they simply slide
    off the end.
    """
    times = sorted(beacon_times)
    if not times:
        raise ValueError("need at least one beacon")
    base = effective_window_spans(receptions, radio.semantics, radio.omega)
    period = receptions.period
    offsets = tuple(t - times[0] for t in times)
    per_beacon = []
    for off in offsets:
        if receptions.repetitive:
            per_beacon.append(iv.shift_mod(base, off % period, period))
        else:
            shifted = iv.normalize((a - off, b - off) for a, b in base)
            per_beacon.append(iv.intersect(shifted, ((0, period),)))
    return CoverageMap(
        period=period,
        per_beacon=tuple(per_beacon),
        beacon_offsets=offsets,
        window_coverage=iv.measure(base),
        repetitive=receptions.repetitive,
    )


def analyze(cov: CoverageMap) -> DeterminismReport:
    """Determinism, redundancy and total coverage of a map."""
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


def min_beacons(receptions: ReceptionSchedule, radio: RadioModel) -> int:
    """Fewest beacons that could possibly cover every initial offset.

    Each beacon covers at most the effective window sum, so at least
    period / coverage beacons are needed.  Necessary, not sufficient.
    """
    eff = effective_window_spans(receptions, radio.semantics, radio.omega)
    cover = iv.measure(eff)
    if cover <= 0:
        raise InfeasibleError("no window can contain a whole beacon")
    return ceil_div(receptions.period, cover)


def beacon_to_beacon_latency(cov: CoverageMap, phi1: int):
    """Latency from the first in-range beacon to the first received one,
    for a given offset of that first beacon.  NOT_COVERED if no beacon of
    the sequence ever lands."""
    if not 0 <= phi1 < cov.period:
        raise ValueError("phi1 must lie in [0, period)")
    for spans, off in zip(cov.per_beacon, cov.beacon_offsets):
        if iv.contains(spans, phi1):
            return off
    return NOT_COVERED


# ---------------------------------------------------------------------------
# worst-case latency oracle
# ---------------------------------------------------------------------------

def _oracle_setup(e: ProtocolSpec, f: ProtocolSpec, max_hyperperiod: int):
    """Sweep inputs.  A scan looks at shifts below ``limit``: the lcm, where
    offsets repeat, capped by the budget; ``overrun`` is raised when a scan
    reaches a limit the budget set, since only the lcm proves UNBOUNDED."""
    b = e.beacons
    if b.count == 0:
        return None  # a silent device is never discovered
    if not b.repetitive:
        raise ValueError("the oracle needs a repetitive beacon schedule")
    if not f.receptions.repetitive:
        raise ValueError("the oracle needs a repetitive reception schedule")
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


def _oracle_endpoints(t_c, eff, gaps, limit):
    # The first-hit latency is piecewise constant in the offset, and each
    # piece is bounded by shifted window endpoints; tracking the not yet
    # covered offsets as the edge list ``rem`` therefore finds the exact
    # maximum.  Cutting [x, y) out of it keeps x if tick x - 1 is uncovered
    # and y if tick y is, so a step moves one slice per window piece.
    m = len(gaps)
    best = 0
    for j in range(m):
        wait = gaps[(j - 1) % m]
        rem = [0, t_c]
        shift = 0
        i = j
        while rem and shift < limit:
            for x, y in iv.shift_mod(eff, shift % t_c, t_c):
                lo = bisect_left(rem, x)
                hi = bisect_right(rem, y, lo)
                if lo == hi and not lo & 1:
                    continue  # the piece lies in covered offsets only
                cut = [x] * (lo & 1) + [y] * (hi & 1)
                if rem[lo:hi] != cut:
                    worst = shift
                    rem[lo:hi] = cut
            shift += gaps[i % m]
            i += 1
        if rem:
            return UNBOUNDED
        if wait + worst > best:
            best = wait + worst
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
    instant the two radios come into range.  Returns ticks or NOT_COVERED;
    the budget is charged as in worst_case_latency_oracle.
    """
    setup = _oracle_setup(e, f, max_hyperperiod)
    if setup is None:
        return NOT_COVERED
    t_c, eff, gaps, limit, overrun = setup
    if iv.measure(eff) == 0:
        return NOT_COVERED
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
        return NOT_COVERED
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


def quadruple_sides(e: ProtocolSpec, f: ProtocolSpec):
    """The two coverage sets of check_correlated_quadruple, before union."""
    from_f, from_e = _quadruple_images(e, f)
    return iv.union(*from_f), iv.union(*from_e)
