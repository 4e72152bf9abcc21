"""Generators for reference protocols, slotless and slotted.

Every generator returns a ProtocolSpec the coverage oracle can consume
directly.  Slotted designs share one in-slot layout: the device listens for
the whole active slot and sends a beacon in the first and last omega ticks
of it, so two exactly aligned active slots always hear each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .errors import DomainError, InfeasibleError, NeedsFinerTicks
from .schedule import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    ceil_div,
    rat,
)


def _radio(radio: RadioModel | None, omega: int) -> RadioModel:
    if radio is None:
        return RadioModel(omega=omega)
    return replace(radio, omega=omega)


@dataclass(frozen=True)
class SlottedParams:
    """Slot grid description: slot length in ticks, slots per hyper-period
    and which of them are active."""

    slot_length: int
    period_slots: int
    active_slots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "active_slots", tuple(sorted(set(self.active_slots))))
        if self.slot_length < 1:
            raise ValueError("slot length must be >= 1 tick")
        if not self.active_slots:
            raise ValueError("need at least one active slot")
        if self.active_slots[-1] >= self.period_slots or self.active_slots[0] < 0:
            raise ValueError("active slot index out of range")


@dataclass(frozen=True)
class DifferenceSet:
    """A (T, k, 1) cyclic difference set: k residues mod T whose pairwise
    differences hit every nonzero residue exactly once.  Validated on
    construction, never trusted as data, in O(k^2) whatever the modulus."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))
        t, es = self.modulus, self.elements
        if t < 2 or any(not 0 <= e < t for e in es):
            raise ValueError("elements must be residues mod the modulus")
        # k(k-1) differences must hit the t-1 nonzero residues once each,
        # so the count decides first and a repeat is all that is left to find
        k = len(es)
        if k * (k - 1) != t - 1:
            raise ValueError(
                f"not a perfect difference set: {k} residues give {k * (k - 1)}"
                f" differences, modulus {t} needs {t - 1}"
            )
        diffs = [(a - b) % t for a in es for b in es if a != b]
        if len(set(diffs)) < len(diffs):
            raise ValueError("not a perfect difference set: a difference repeats")

    @property
    def k(self) -> int:
        return len(self.elements)


BUILTIN_DIFFERENCE_SETS = {
    7: (1, 2, 4),
    13: (0, 1, 3, 9),
    21: (3, 6, 7, 12, 14),
    31: (1, 5, 11, 24, 25, 27),
}


def builtin_difference_set(modulus: int) -> DifferenceSet:
    if modulus not in BUILTIN_DIFFERENCE_SETS:
        raise KeyError(f"no built-in difference set with modulus {modulus}")
    return DifferenceSet(modulus, BUILTIN_DIFFERENCE_SETS[modulus])


def gen_slotted(params: SlottedParams, omega: int, radio: RadioModel | None = None) -> ProtocolSpec:
    """Materialize a slot grid as windows plus beacons.

    Active slot [s*I, (s+1)*I): window over the full slot, beacons at its
    first and last omega ticks (one beacon at the slot start when the slot
    is too short for two).
    """
    i = params.slot_length
    if i < omega:
        raise DomainError("slot shorter than one beacon")
    hyper = params.period_slots * i
    windows = tuple(ReceptionWindow(s * i, i) for s in params.active_slots)
    times: list[int] = []
    for s in params.active_slots:
        start = s * i
        times.append(start)
        if i >= 2 * omega:
            times.append(start + i - omega)
    beacons = BeaconSchedule(tuple(times), omega, period=hyper)
    receptions = ReceptionSchedule(windows, period=hyper)
    return ProtocolSpec(beacons, receptions, _radio(radio, omega))


def gen_disco(p1: int, p2: int, slot_length: int, omega: int, radio: RadioModel | None = None) -> ProtocolSpec:
    """Two coprime slot periods; a slot is active when its index is a
    multiple of either, which guarantees an overlap within p1*p2 slots.

    When every active slot holds two beacons (slot_length >= 2 * omega),
    the exact worst case of the device hearing a copy of itself is
    ``(p1 * p2 - 2) * slot_length + omega`` under IDEAL and
    ``(p1 * p2 - 1) * slot_length`` under CONTAINED.
    """
    if p1 < 2 or p2 < 2 or gcd(p1, p2) != 1:
        raise DomainError("p1 and p2 must be coprime and >= 2")
    hyper = p1 * p2
    active = {*range(0, hyper, p1), *range(0, hyper, p2)}
    return gen_slotted(SlottedParams(slot_length, hyper, tuple(active)), omega, radio)


def gen_searchlight_striped(t_slots: int, slot_length: int, omega: int, radio: RadioModel | None = None) -> ProtocolSpec:
    """Anchor slot 0 active every period of t_slots; a probe slot walks the
    positions 1..ceil(t/2), one per period.

    When every active slot holds two beacons (slot_length >= 2 * omega),
    the exact worst case of the device hearing a copy of itself is, for
    h = t * ceil(t / 2), ``(h - 1) * slot_length + omega`` under IDEAL and
    ``h * slot_length`` under CONTAINED; t = 3 gives
    ``4 * slot_length + omega`` and ``5 * slot_length``.  Checked only for
    t in {3, 4, 5, 6, 8}.
    """
    if t_slots < 2:
        raise DomainError("need at least two slots per period")
    probes = ceil_div(t_slots, 2)
    active = []
    for i in range(probes):
        active.append(i * t_slots)
        active.append(i * t_slots + 1 + i)
    return gen_slotted(SlottedParams(slot_length, probes * t_slots, tuple(active)), omega, radio)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def gen_uconnect(p: int, slot_length: int, omega: int, radio: RadioModel | None = None) -> ProtocolSpec:
    """Every p-th slot active, plus a run of (p+1)/2 consecutive active
    slots once per p*p slots.

    When every active slot holds two beacons (slot_length >= 2 * omega),
    the exact worst case of the device hearing a copy of itself is, under
    IDEAL and CONTAINED, ``7 * slot_length + omega`` and
    ``8 * slot_length`` for p = 3, ``24 * slot_length + omega`` and
    ``25 * slot_length`` for p = 5, and ``p^2 * slot_length - omega`` and
    ``p^2 * slot_length`` for every prime p >= 7 checked: 7, 11, 13, 17,
    19 and 23.
    """
    if not _is_prime(p) or p < 3:
        raise DomainError("p must be an odd prime")
    hyper = p * p
    active = set(range(0, hyper, p))
    active.update(range(1, 1 + (p + 1) // 2))
    return gen_slotted(SlottedParams(slot_length, hyper, tuple(active)), omega, radio)


def gen_diffcode(ds: DifferenceSet, slot_length: int, omega: int, radio: RadioModel | None = None) -> ProtocolSpec:
    """Active slots on the residues of a perfect difference set, the
    fewest-active-slots way to meet every rotation of itself.

    When every active slot holds two beacons (slot_length >= 2 * omega),
    the exact worst case of the device hearing a copy of itself is
    ``v * slot_length - omega`` under IDEAL and ``v * slot_length`` under
    CONTAINED, for v the set's modulus.
    """
    return gen_slotted(SlottedParams(slot_length, ds.modulus, ds.elements), omega, radio)


# ---------------------------------------------------------------------------
# slotless generators
# ---------------------------------------------------------------------------

def gen_optimal_unidirectional(
    k_inv_gamma: int,
    beta,
    omega: int,
    radio: RadioModel | None = None,
    window: int | None = None,
) -> ProtocolSpec:
    """Deterministic, non-redundant transmitter/receiver pair that attains
    the unidirectional latency bound ceil(1/gamma)*omega/beta exactly.

    The receiver listens once per period for ``window`` ticks (default: one
    beacon gap) with the period k_inv_gamma times the effective window.
    Beacons step the coverage image by exactly one effective window per
    gap, so k of them tile the period; one long closing gap keeps every k
    consecutive gaps summing to k times the mean gap.
    """
    k = k_inv_gamma
    beta = rat(beta)
    if k < 1:
        raise DomainError("k must be >= 1")
    if beta <= 0:
        raise DomainError("beta must be positive")
    lam = Fraction(omega, 1) / beta
    if lam.denominator != 1:
        raise NeedsFinerTicks(f"beacon gap omega/beta = {lam} is not a whole tick count")
    lam = int(lam)
    rd = _radio(radio, omega)
    pad = omega if rd.semantics is Semantics.CONTAINED else 0

    d = lam + pad if window is None else window
    eff = d - pad
    if eff < 1:
        raise InfeasibleError("window does not fit one beacon")
    if eff > lam:
        raise DomainError("window larger than the beacon gap wastes energy")
    t_c = k * eff
    if d > t_c:
        raise InfeasibleError("window cannot exceed the reception period")
    if k > 1 and eff < omega:
        raise NeedsFinerTicks("window step smaller than one beacon")

    # gaps: k-1 short steps of one effective window, one closing gap
    times = [i * eff for i in range(k)]
    t_b = k * lam
    beacons = BeaconSchedule(tuple(times), omega, period=t_b)
    receptions = ReceptionSchedule((ReceptionWindow(0, d),), period=t_c)
    return ProtocolSpec(beacons, receptions, rd)


def gen_pi0m(m: int, d: int, omega: int, radio: RadioModel | None = None, delta: int = 1) -> ProtocolSpec:
    """Periodic-interval schedule: one beacon every d ticks, one d-tick
    listen per scan interval of (m+1)*d - delta ticks."""
    if m < 1:
        raise DomainError("m must be >= 1")
    if d <= omega:
        raise DomainError("beacon period must exceed the beacon itself")
    if not 0 <= delta < d:
        raise DomainError("delta must lie in [0, d)")
    t_c = (m + 1) * d - delta
    beacons = BeaconSchedule((0,), omega, period=d)
    receptions = ReceptionSchedule((ReceptionWindow(0, d),), period=t_c)
    return ProtocolSpec(beacons, receptions, _radio(radio, omega))
