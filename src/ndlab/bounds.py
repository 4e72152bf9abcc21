"""Closed-form worst-case latency bounds.

Results are exact ``Fraction`` values.  Each bound an eta sweep or a
deviation grid evaluates per row is split in two.  A private integer
kernel (``_symmetric``, ``_relaxed``, ...) takes integer numerators and
denominators, assumes they lie in the domain, and returns an unreduced
``(num, den)`` pair, plus ``k`` and the branch where the bound has them.
The public function splits its arguments, raises ``DomainError`` outside
the domain, and builds one ``Fraction`` from the kernel's pair.
``_symmetric`` takes the latency scale omega * alpha * d as two ints, so
that the mutual-exclusive bound, twice the symmetric one at twice the
duty cycle, reuses it.  The three bounds that scale as 1/eta^2
(``symmetric_approx``, ``slotted_full_duplex`` and ``slotted_two_beacon``)
have coefficient kernels: each returns C(omega, alpha) as ``(A, B)``, and
the bound at eta = n/d is A * d^2 / (B * n^2).

``sweep_rows`` and ``deviation_rows`` yield the rows of the ``nd-lab
bounds`` CSVs.  ``sweep_rows`` computes every factor that does not depend
on eta once per sweep, so a 1/eta^2 cell is one ``A / (B * n * n)``.
Every cell is the int/int division ``num / den`` of the same rational
the public function returns, which Python rounds correctly, so it equals
``float(Fraction(num, den))`` bit for bit; a cell outside the bound's
domain is ``""``, a blank cell.  The only
non-rational evaluations in the whole module are the exponential in the
collision probability and the root-mean-square gap of
``pi0m_vs_symmetric``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InfeasibleError
from .schedule import RadioModel, Semantics, rat


class SymmetricBound(NamedTuple):
    latency: Fraction
    k: int  # reciprocal of the winning reception duty cycle
    branch: str  # "ceil" or "floor" of 2/eta
    gamma_o: Fraction


class ChannelConstrainedBound(NamedTuple):
    latency: Fraction
    case: int  # 1: channel cap not binding, 2: cap binding
    gamma_o: Fraction


class AsymmetricBound(NamedTuple):
    latency: Fraction
    tight: bool  # reachable exactly only when 2/eta is an integer on both sides
    beta_e: Fraction
    gamma_e: Fraction
    beta_f: Fraction
    gamma_f: Fraction


class MutualExclusiveBound(NamedTuple):
    latency: Fraction
    k: int
    branch: str


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of ``rat(x)``."""
    if type(x) is int:
        return x, 1
    x = rat(x)
    return x.numerator, x.denominator


def _positive(omega, alpha=1) -> None:
    """Refuse a beacon length or a power ratio that is not positive; either
    may be a numerator, since every denominator is positive."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    if alpha <= 0:
        raise DomainError("alpha must be positive")


def _rates(eta, omega, alpha) -> tuple[int, int, int, int, int, int]:
    """Numerators and denominators of eta, omega and alpha, for positive
    values."""
    (n, d), (wn, wd), (p, q) = _ratio(eta), _ratio(omega), _ratio(alpha)
    if n <= 0:
        raise DomainError("eta must be positive")
    _positive(wn, p)
    return n, d, wn, wd, p, q


def bound_unidirectional(gamma, beta, omega) -> Fraction:
    """Lowest guaranteeable latency for a pure listener hearing a pure
    beaconer: ceil(1/gamma) * omega / beta."""
    (gn, gd), (bn, bd), (wn, wd) = _ratio(gamma), _ratio(beta), _ratio(omega)
    if not 0 < gn <= gd:
        raise DomainError("gamma must lie in (0, 1]")
    if bn <= 0:
        raise DomainError("beta must be positive")
    _positive(wn)
    return Fraction(*_unidirectional(gn, gd, bn, bd, wn, wd))


def _unidirectional(gn, gd, bn, bd, wn, wd) -> tuple[int, int]:
    """ceil(1/gamma) * omega / beta over the denominator wd * bn."""
    return -(-gd // gn) * wn * bd, wd * bn


def bound_symmetric(eta, omega, alpha) -> SymmetricBound:
    """Lowest latency any protocol with equal duty cycles on both devices
    can guarantee for two-way discovery.

    Only reciprocal-integer reception duty cycles are candidates; the two
    integers bracketing 2/eta are the only possible optima, and the better
    of the two wins.  With eta = n/d, reception duty cycle 1/k costs
    k^2 * omega * alpha * d / (n*k - d), and n*k > d holds for both
    candidates whenever k_floor >= 1.
    """
    n, d, wn, wd, p, q = _rates(eta, omega, alpha)
    sym = _symmetric(n, d, wn * p * d, wd * q)
    if sym is None:
        raise DomainError("eta > 2 leaves no room for a reception phase")
    num, den, k, branch = sym
    return SymmetricBound(Fraction(num, den), k, branch, Fraction(1, k))


def _symmetric(n, d, scale, scale_den) -> tuple[int, int, int, str] | None:
    """(num, den, k, branch) of the symmetric bound at eta = n/d > 0, or
    None when eta > 2; the latency scale omega * alpha * d comes as
    scale / scale_den."""
    k_floor = 2 * d // n
    if k_floor < 1:
        return None
    k_ceil = -(-2 * d // n)
    den_c, den_f = n * k_ceil - d, n * k_floor - d
    # the ceil candidate k_c^2 / den_c is at most the floor one k_f^2 / den_f
    # (the common factor omega * alpha is positive; ties go to ceil)
    if k_ceil * k_ceil * den_f <= k_floor * k_floor * den_c:
        k, den, branch = k_ceil, den_c, "ceil"
    else:
        k, den, branch = k_floor, den_f, "floor"
    return k * k * scale, scale_den * den, k, branch


def bound_symmetric_approx(eta, omega, alpha) -> Fraction:
    """Small-duty-cycle approximation 4*alpha*omega/eta**2; exact whenever
    2/eta is an integer."""
    return _over_eta_squared(_symmetric_approx, eta, omega, alpha)


def _symmetric_approx(wn, wd, p, q) -> tuple[int, int]:
    """4 * alpha * omega as (A, B)."""
    return 4 * p * wn, q * wd


def _over_eta_squared(kernel, eta, omega, alpha) -> Fraction:
    """A * d^2 / (B * n^2) for the coefficient kernel's (A, B) at
    eta = n/d."""
    n, d, wn, wd, p, q = _rates(eta, omega, alpha)
    a, b = kernel(wn, wd, p, q)
    return Fraction(a * d * d, b * n * n)


def bound_channel_constrained(eta, beta_m, omega, alpha) -> ChannelConstrainedBound:
    """Symmetric bound when the channel utilization may not exceed beta_m.

    If the unconstrained optimum already respects the cap the plain
    symmetric bound applies (ties resolve into this case); otherwise all
    remaining budget goes to listening and the cap fixes the beacon rate.
    """
    eta, beta_m, omega, alpha = rat(eta), rat(beta_m), rat(omega), rat(alpha)
    _positive(omega, alpha)
    if beta_m <= 0:
        raise DomainError("beta_m must be positive")
    if eta <= alpha * beta_m:
        raise InfeasibleError("duty cycle too small to afford beta_m plus listening")
    sym = bound_symmetric(eta, omega, alpha)
    if eta <= sym.gamma_o + alpha * beta_m:
        return ChannelConstrainedBound(sym.latency, 1, sym.gamma_o)
    latency = Fraction(math.ceil(1 / (eta - alpha * beta_m))) * omega / beta_m
    return ChannelConstrainedBound(latency, 2, sym.gamma_o)


def bound_asymmetric(eta_e, eta_f, omega, alpha) -> AsymmetricBound:
    """Lowest two-way latency when the devices run different duty cycles
    and each knows the other's schedule.  Splitting each budget as
    beta = eta/(2 alpha), gamma = eta/2 equalizes both directions."""
    eta_e, eta_f, omega, alpha = rat(eta_e), rat(eta_f), rat(omega), rat(alpha)
    if eta_e <= 0 or eta_f <= 0:
        raise DomainError("duty cycles must be positive")
    _positive(omega, alpha)
    tight = (2 / eta_e).denominator == 1 and (2 / eta_f).denominator == 1
    latency = 4 * alpha * omega / (eta_e * eta_f)
    return AsymmetricBound(
        latency,
        tight,
        beta_e=eta_e / (2 * alpha),
        gamma_e=eta_e / 2,
        beta_f=eta_f / (2 * alpha),
        gamma_f=eta_f / 2,
    )


def bound_mutual_exclusive(eta, omega, alpha) -> MutualExclusiveBound:
    """Lowest latency when either device discovering the other suffices.

    Locking beacons to the own reception windows lets the two directions
    share the coverage work, halving the beacons each side needs.  With
    eta = n/d, k costs 2 * k^2 * omega * alpha * d / (2*n*k - d), and
    2*n*k > d holds for both integers bracketing 1/eta whenever
    k_floor >= 1.  That is twice the symmetric bound at 2 * eta, with the
    same k and branch, so ``_symmetric`` evaluates it.

    Tightness is not shown: no schedule is known to attain the bound.  A
    census of every identical pair with one common period T <= 14, 1-3
    beacons and one window at offset 0 (omega 1, IDEAL, full duplex,
    eta <= 1) took the either-way worst case over every phase pair.  None
    of the 9057 pairs that discover either way was below the bound, and
    the least ratio was 9/8: beacons (0, 3) and a 2-tick window in period
    7 give 7 against 56/9.
    """
    n, d, wn, wd, p, q = _rates(eta, omega, alpha)
    me = _symmetric(2 * n, d, 2 * wn * p * d, wd * q)
    if me is None:
        raise DomainError("eta > 1 leaves no valid split")
    num, den, k, branch = me
    return MutualExclusiveBound(Fraction(num, den), k, branch)


def collision_probability(s: int, beta) -> float:
    """Chance that a newcomer's first beacon overlaps a transmission of one
    of s-1 other senders at utilization beta each (pure-ALOHA window)."""
    beta = rat(beta)
    if s < 1:
        raise DomainError("need at least one sender")
    if not 0 <= beta <= 1:
        raise DomainError("beta must lie in [0, 1]")
    return 1.0 - math.exp(-2.0 * (s - 1) * float(beta))


# ---------------------------------------------------------------------------
# relaxed-assumption bound
# ---------------------------------------------------------------------------

def bound_relaxed(gamma, beta, omega, radio: RadioModel, count_first_beacon: bool = False) -> Fraction:
    """Unidirectional bound with hardware realities switched on.

    Composition over the ideal omega/(beta*gamma): requiring beacons to fit
    whole windows charges one extra beacon length per window visit
    (numerator term beta*omega); switching overheads charge d_oTx per
    beacon and d_oRx per window; counting the first received beacon adds a
    flat omega.  Valid for reciprocal-integer gamma.
    """
    (gn, gd), (bn, bd), (wn, wd) = _ratio(gamma), _ratio(beta), _ratio(omega)
    if not 0 < gn <= gd:
        raise DomainError("gamma must lie in (0, 1]")
    if gn != 1:
        raise DomainError("relaxed bound assumes gamma = 1/k")
    if bn <= 0:
        raise DomainError("beta must be positive")
    _positive(wn)
    return Fraction(*_relaxed(gd, bn, bd, wn, wd, radio, count_first_beacon))


def _relaxed(k, bn, bd, wn, wd, radio: RadioModel, count_first_beacon) -> tuple[int, int]:
    """The relaxed bound at gamma = 1/k over the denominator wd * bn, the
    one ``_unidirectional`` uses too."""
    contained = radio.semantics is Semantics.CONTAINED
    tx = bd * (radio.d_oTx * wd + wn)
    rx = bn * (radio.d_oRx * wd + (wn if contained else 0))
    num = k * (tx + rx)
    if count_first_beacon:
        num += wn * bn
    return num, wd * bn


def relaxed_deviation(beta, k: int, omega, radio: RadioModel) -> Fraction:
    """Relative excess of the fully relaxed bound over the ideal one at
    beta and gamma = 1/k."""
    beta, omega = rat(beta), rat(omega)
    gamma = Fraction(1, k)
    ideal = bound_unidirectional(gamma, beta, omega)
    real = bound_relaxed(gamma, beta, omega, radio, count_first_beacon=True)
    return (real - ideal) / ideal


def relaxed_deviation_range(
    omega, radio: RadioModel, beta_lo, beta_hi, k_lo: int, k_hi: int
) -> tuple[Fraction, Fraction]:
    """Extremes of the relaxed-bound deviation over a rate grid.

    The deviation grows with both beta and gamma, so the corners of the
    grid bound it: smallest at (beta_lo, 1/k_hi), largest at (beta_hi,
    1/k_lo).
    """
    lo = relaxed_deviation(beta_lo, k_hi, omega, radio)
    hi = relaxed_deviation(beta_hi, k_lo, omega, radio)
    return lo, hi


# ---------------------------------------------------------------------------
# slotted designs and periodic-interval schedules
# ---------------------------------------------------------------------------

def bound_slotted_full_duplex(eta, omega, alpha) -> Fraction:
    """Latency limit of one-beacon-per-slot designs on a radio that could
    listen while transmitting, at the minimal slot length:
    (1 + alpha)^2 * omega / eta^2.

    The model: every active slot has one layout, a reception window over
    the slot with one beacon at its start that the radio sends while it
    listens, and the slot is the shortest that layout allows.  The limit
    holds only inside that model.  It is not a lower bound for this package's
    slotted generators, which listen over the whole active slot, send
    beacons in its first and last omega ticks (``protocols.gen_slotted``)
    and take the slot length as a parameter:
    ``gen_diffcode(builtin_difference_set(13), 8, 5, RadioModel(alpha=4,
    omega=5))`` (eta 14/13) has oracle latency 104 against a limit of
    21125/196 (about 107.8).
    """
    return _over_eta_squared(_slotted_full_duplex, eta, omega, alpha)


def _slotted_full_duplex(wn, wd, p, q) -> tuple[int, int]:
    """(1 + alpha)^2 * omega as (A, B)."""
    # 1 + 2*alpha + alpha^2 = (q + p)^2 / q^2
    return wn * (q + p) ** 2, wd * q * q


def bound_slotted_two_beacon(eta, omega, alpha) -> Fraction:
    """Latency limit of two-beacons-per-slot designs (one sent just outside
    the slot boundary): (1/2 + 2 alpha + 2 alpha^2) * omega / eta^2.

    The model: every active slot has one layout, a reception window over
    the slot with one beacon at its start and one just past its end, and
    the slot is the shortest that layout allows.  The limit holds only
    inside that model.  It is not a lower bound for this package's slotted
    generators, which send both beacons inside the slot
    (``protocols.gen_slotted``) and take the slot length as a parameter:
    ``gen_diffcode(builtin_difference_set(13), 8, 5, RadioModel(alpha=4,
    omega=5))`` (eta 14/13) has oracle latency 104 against a limit of
    68445/392 (about 174.6).
    """
    return _over_eta_squared(_slotted_two_beacon, eta, omega, alpha)


def _slotted_two_beacon(wn, wd, p, q) -> tuple[int, int]:
    """(1/2 + 2 alpha + 2 alpha^2) * omega as (A, B)."""
    # 1/2 + 2*alpha + 2*alpha^2 = (q + 2p)^2 / (2 q^2)
    return wn * (q + 2 * p) ** 2, 2 * wd * q * q


def bound_slotted_channel(eta, beta, omega, alpha) -> Fraction:
    """Latency limit of slotted designs expressed through the channel
    utilization their slot length implies (large slots)."""
    eta, beta, omega, alpha = rat(eta), rat(beta), rat(omega), rat(alpha)
    _positive(omega, alpha)
    base = eta * beta - alpha * beta * beta
    if base <= 0:
        raise DomainError("eta*beta - alpha*beta^2 must be positive")
    return omega / base


def pi0m_latency(m, omega, eta, alpha) -> Fraction:
    """Worst-case latency of the periodic-interval schedule that listens
    once for a whole beacon period per scan interval (m+1 beacon periods
    per scan interval, minus an instant).  m may be rational; the real
    minimizer m+1 = 2/eta recovers the symmetric optimum."""
    m, omega, eta, alpha = rat(m), rat(omega), rat(eta), rat(alpha)
    _positive(omega, alpha)
    u = m + 1
    den = eta * u - 1
    if m < 1 or den <= 0:
        raise DomainError("need m >= 1 and eta*(m+1) > 1")
    return alpha * omega * u * u / den


_PI0M_STEPS = 1000


def pi0m_vs_symmetric(omega, alpha) -> tuple[list[tuple], float]:
    """Gap between the exact symmetric bound and the periodic-interval
    closed form at its real-valued optimum, swept over eta = 1/1000 ... 1.

    Returns one (eta, symmetric, pi0m, relative gap) row of Fractions per
    eta, and the root-mean-square of the relative gaps.
    """
    omega, alpha = rat(omega), rat(alpha)
    rows = []
    total = Fraction(0)
    for j in range(1, _PI0M_STEPS + 1):
        eta = Fraction(j, _PI0M_STEPS)
        exact = bound_symmetric(eta, omega, alpha).latency
        ideal = pi0m_latency(2 / eta - 1, omega, eta, alpha)
        rel = (exact - ideal) / exact
        rows.append((eta, exact, ideal, rel))
        total += rel * rel
    return rows, math.sqrt(total / _PI0M_STEPS)



# ---------------------------------------------------------------------------
# CSV rows of nd-lab bounds
# ---------------------------------------------------------------------------

SWEEP_HEADER = ("eta", "symmetric", "symmetric_k", "symmetric_branch", "gamma_o",
                "symmetric_approx", "slotted_full_duplex", "slotted_two_beacon",
                "mutual_exclusive")


def sweep_rows(lo, hi, step, omega, alpha):
    """Yield one ``SWEEP_HEADER`` tuple per eta = lo, lo + step, ... <= hi,
    for lo > 0 and step > 0.  Each cell is an int/int division of a
    kernel's (num, den); eta > 2 blanks the symmetric cells and eta > 1
    the mutual-exclusive one, as ``""``.  Every eta is n/den over one
    den, so the latency scale and the coefficients are computed once."""
    lo, hi, step = rat(lo), rat(hi), rat(step)
    (wn, wd), (p, q) = _ratio(omega), _ratio(alpha)
    _positive(wn, p)
    den = math.lcm(lo.denominator, step.denominator)
    scale, scale_den = wn * p * den, wd * q
    # each 1/eta^2 coefficient (A, B) with A times den^2: a cell is one
    # A / (B * n * n)
    (a1, b1), (a2, b2), (a3, b3) = (
        (a * den * den, b)
        for a, b in (_symmetric_approx(wn, wd, p, q),
                     _slotted_full_duplex(wn, wd, p, q),
                     _slotted_two_beacon(wn, wd, p, q))
    )
    for n in range(int(lo * den), math.floor(hi * den) + 1, int(step * den)):
        sym = _symmetric(n, den, scale, scale_den)
        if sym is None:
            sym_cells = ("", "", "", "")
        else:
            num, d, k, branch = sym
            sym_cells = (num / d, k, branch, 1 / k)
        me = _symmetric(2 * n, den, 2 * scale, scale_den)
        nn = n * n
        yield (
            n / den,
            *sym_cells,
            a1 / (b1 * nn),
            a2 / (b2 * nn),
            a3 / (b3 * nn),
            "" if me is None else me[0] / me[1],
        )


DEVIATION_HEADER = ("beta", "gamma", "ideal_ticks", "relaxed_ticks", "deviation")


def deviation_rows(betas, ks, omega, radio: RadioModel):
    """Yield one ``DEVIATION_HEADER`` tuple per (beta, gamma = 1/k), for
    betas in (0, 1] and integers k >= 1: the ideal bound, the fully
    relaxed one and the ``relaxed_deviation`` between them.  Both kernels
    return the same denominator, so the deviation (real - ideal) / ideal
    divides their numerators alone."""
    wn, wd = _ratio(omega)
    _positive(wn)
    for beta in betas:
        bn, bd = _ratio(beta)
        for k in ks:
            ideal, den = _unidirectional(1, k, bn, bd, wn, wd)
            real, _ = _relaxed(k, bn, bd, wn, wd, radio, True)
            yield bn / bd, 1 / k, ideal / den, real / den, (real - ideal) / ideal
