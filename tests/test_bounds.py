import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import (
    ref_bound_asymmetric,
    ref_bound_channel_constrained,
    ref_bound_mutual_exclusive,
    ref_bound_relaxed,
    ref_bound_slotted_full_duplex,
    ref_bound_slotted_two_beacon,
    ref_bound_symmetric,
    ref_bound_symmetric_approx,
    ref_bound_unidirectional,
)
from ndlab import DomainError, InfeasibleError, RadioModel, Semantics
from ndlab import bounds as bd

W1 = 1  # one-tick beacon


def test_unidirectional_values():
    assert bd.bound_unidirectional(F(1, 4), F(1, 100), 1) == 400
    assert bd.bound_unidirectional(1, F(1, 100), 1) == 100
    assert bd.bound_unidirectional(F(1, 10), F(1, 200), 1) == 2000


def test_unidirectional_domain():
    with pytest.raises(DomainError):
        bd.bound_unidirectional(0, F(1, 10), 1)
    with pytest.raises(DomainError):
        bd.bound_unidirectional(F(1, 2), 0, 1)


def test_symmetric_integer_point():
    b = bd.bound_symmetric(F(1, 50), 1, 1)
    assert b.latency == 10000
    assert b.k == 100
    assert b.gamma_o == F(1, 100)
    assert bd.bound_symmetric(1, 1, 1).latency == 4


def test_symmetric_fractional_point_picks_better_branch():
    b = bd.bound_symmetric(F(3, 100), 1, 1)
    assert b.latency == F(448900, 101)  # 67^2 / (2.01 - 1)
    assert b.branch == "ceil" and b.k == 67
    floor_val = F(66 * 66) / (F(3, 100) * 66 - 1)
    assert b.latency < floor_val


def test_symmetric_domain_error_above_two():
    with pytest.raises(DomainError):
        bd.bound_symmetric(F(5, 2), 1, 1)


@given(st.integers(1, 400))
def test_symmetric_branch_equals_global_integer_scan(n):
    eta = F(n, 200)  # 0.005 .. 2.0
    got = bd.bound_symmetric(eta, 1, 1).latency
    candidates = [
        F(k * k) / (eta * k - 1)
        for k in range(1, math.ceil(2 / eta) + 8)
        if eta * k - 1 > 0
    ]
    assert got == min(candidates)


def test_symmetric_approx_values():
    assert bd.bound_symmetric_approx(F(1, 50), 1, 1) == 10000
    # exact whenever 2/eta is an integer
    assert bd.bound_symmetric(F(1, 50), 1, 1).latency == bd.bound_symmetric_approx(F(1, 50), 1, 1)


def test_symmetric_approx_max_gap_over_sweep():
    worst = (F(0), None)
    for j in range(1, 1001):
        eta = F(j, 1000)
        exact = bd.bound_symmetric(eta, 1, 1).latency
        approx = bd.bound_symmetric_approx(eta, 1, 1)
        gap = (exact - approx) / exact
        if gap > worst[0]:
            worst = (gap, eta)
    assert worst[1] == F(833, 1000)
    assert worst[0] == F(249001, 6245001)  # just under 4 percent


def test_channel_constrained_case2_value():
    got = bd.bound_channel_constrained(F(1, 50), F(1, 500), 1, 1)
    assert got.latency == 28000 and got.case == 2


def test_channel_constrained_loose_cap_equals_symmetric():
    sym = bd.bound_symmetric(F(1, 50), 1, 1).latency
    got = bd.bound_channel_constrained(F(1, 50), F(1, 100), 1, 1)
    assert got.case == 1 and got.latency == sym


def test_channel_constrained_boundary_resolves_to_case1():
    # eta = gamma_o + alpha*beta_m exactly
    got = bd.bound_channel_constrained(F(1, 50), F(1, 100), 1, 1)
    assert F(1, 50) == got.gamma_o + F(1, 100)
    assert got.case == 1


def test_channel_constrained_infeasible():
    with pytest.raises(InfeasibleError):
        bd.bound_channel_constrained(F(1, 100), F(1, 50), 1, 1)
    # eta == alpha * beta_m exactly: the whole budget goes to beacons
    with pytest.raises(InfeasibleError):
        bd.bound_channel_constrained(F(3, 100), F(1, 50), 32, F(3, 2))


def test_asymmetric_values():
    assert bd.bound_asymmetric(F(1, 50), F(1, 50), 1, 1).latency == 10000
    got = bd.bound_asymmetric(F(1, 50), F(1, 25), 1, 1)
    assert got.latency == 5000 and got.tight
    assert got.beta_e == F(1, 100) and got.gamma_e == F(1, 100)
    assert not bd.bound_asymmetric(F(3, 100), F(1, 50), 1, 1).tight


def test_asymmetric_latency_fixed_by_rate_product():
    pairs = [(34, 1700), (35, 700), (36, 450), (40, 200), (50, 100), (60, 75)]
    for ke, kf in pairs:
        eta_e, eta_f = F(2, ke), F(2, kf)
        assert eta_e + eta_f == F(3, 50)
        got = bd.bound_asymmetric(eta_e, eta_f, 1, 1)
        assert got.tight
        assert got.latency * eta_e * eta_f == 4


def test_mutual_exclusive_values():
    assert bd.bound_mutual_exclusive(1, 1, 1).latency == 2
    half = bd.bound_mutual_exclusive(F(1, 50), 1, 1)
    assert half.latency == 5000
    assert half.latency * 2 == bd.bound_symmetric(F(1, 50), 1, 1).latency
    # fractional point evaluates both branches
    got = bd.bound_mutual_exclusive(F(3, 100), 1, 1)
    ceilv = F(34 * 34) / (F(3, 100) * 34 - F(1, 2))
    floorv = F(33 * 33) / (F(3, 100) * 33 - F(1, 2))
    assert got.latency == min(ceilv, floorv)


def test_mutual_exclusive_never_above_symmetric():
    for j in range(1, 201):
        eta = F(j, 200)
        assert bd.bound_mutual_exclusive(eta, 1, 1).latency <= bd.bound_symmetric(eta, 1, 1).latency


def test_collision_probability_values():
    assert bd.collision_probability(1, F(1, 100)) == 0.0
    assert bd.collision_probability(2, F(1, 100)) == pytest.approx(1 - math.exp(-0.02))
    assert bd.collision_probability(5, F(1, 200)) == pytest.approx(0.039210, abs=1e-6)
    # both ends of the utilization range are in the domain
    assert bd.collision_probability(3, 0) == 0.0
    assert bd.collision_probability(3, F(1)) == 1.0 - math.exp(-4.0)


def test_relaxed_reduces_to_ideal():
    radio = RadioModel(omega=1)
    assert bd.bound_relaxed(F(1, 4), F(1, 100), 1, radio) == 400


def test_relaxed_contained_and_overheads_compose():
    radio = RadioModel(omega=32, d_oTx=140, d_oRx=140, semantics=Semantics.CONTAINED)
    beta, gamma = F(1, 100), F(1, 10)
    got = bd.bound_relaxed(gamma, beta, 32, radio)
    expect = (140 + 32 + beta * (140 + 32)) / (beta * gamma)
    assert got == expect
    plus = bd.bound_relaxed(gamma, beta, 32, radio, count_first_beacon=True)
    assert plus == expect + 32


def test_relaxed_requires_reciprocal_gamma():
    with pytest.raises(DomainError):
        bd.bound_relaxed(F(2, 5), F(1, 100), 1, RadioModel(omega=1))


def test_deviation_ranges_match_reported_spans():
    contained = RadioModel(omega=32, semantics=Semantics.CONTAINED)
    lo, hi = bd.relaxed_deviation_range(32, contained, F(11, 20000), F(111, 2000), 19, 1818)
    assert abs(float(lo) * 100 - 0.0) <= 1.0
    assert abs(float(hi) * 100 - 6.0) <= 1.0
    nrf = RadioModel(omega=32, d_oTx=140, d_oRx=140, semantics=Semantics.CONTAINED)
    lo2, hi2 = bd.relaxed_deviation_range(32, nrf, F(11, 20000), F(111, 2000), 19, 1818)
    assert abs(float(lo2) * 100 - 438.0) <= 1.0
    assert abs(float(hi2) * 100 - 467.0) <= 1.0


def test_slotted_full_duplex():
    assert bd.bound_slotted_full_duplex(F(1, 50), 1, 1) == 10000  # alpha=1: 4w/eta^2
    assert bd.bound_slotted_full_duplex(F(1, 50), 1, 2) == 22500


def test_slotted_full_duplex_exceeds_symmetric_off_alpha_one():
    for alpha in (F(1, 4), F(1, 2), F(2), F(3), F(7, 2)):
        slotted = bd.bound_slotted_full_duplex(F(1, 50), 1, alpha)
        sym = bd.bound_symmetric_approx(F(1, 50), 1, alpha)
        assert slotted > sym
    assert bd.bound_slotted_full_duplex(F(1, 50), 1, 1) == bd.bound_symmetric_approx(F(1, 50), 1, 1)


def test_slotted_two_beacon():
    assert bd.bound_slotted_two_beacon(F(1, 50), 1, 1) == 11250
    # minimal at alpha = 1/2 where it matches the symmetric approximation
    assert bd.bound_slotted_two_beacon(F(1, 50), 1, F(1, 2)) == bd.bound_symmetric_approx(
        F(1, 50), 1, F(1, 2)
    )
    for alpha in (F(1, 4), F(1), F(2)):
        assert bd.bound_slotted_two_beacon(F(1, 50), 1, alpha) >= bd.bound_symmetric_approx(
            F(1, 50), 1, alpha
        )


def test_slotted_channel_values():
    got = bd.bound_slotted_channel(F(1, 50), F(1, 500), 1, 1)
    assert got == F(250000, 9)  # ~27778 vs the ceiling-bearing 28000
    assert bd.bound_channel_constrained(F(1, 50), F(1, 500), 1, 1).latency == 28000
    with pytest.raises(DomainError):
        bd.bound_slotted_channel(F(1, 50), F(1, 50), 1, 1)  # beta = eta/alpha


def test_pi0m_latency_closed_form():
    assert bd.pi0m_latency(99, 1, F(1, 50), 1) == F(100 * 100, 100 * F(1, 50) - 1)
    # real-valued optimum lands on the symmetric approximation
    eta = F(7, 200)
    assert bd.pi0m_latency(2 / eta - 1, 1, eta, 1) == bd.bound_symmetric_approx(eta, 1, 1)
    with pytest.raises(DomainError):
        bd.pi0m_latency(1, 1, F(1, 10), 1)  # eta*(m+1) <= 1
    with pytest.raises(DomainError):
        bd.pi0m_latency(1, 1, F(1, 2), 1)  # eta*(m+1) == 1 exactly


def test_pi0m_integer_match_at_even_reciprocal():
    # m+1 = 2/eta integer: closed form equals the exact symmetric bound
    eta = F(1, 50)
    assert bd.pi0m_latency(99, 1, eta, 1) == bd.bound_symmetric(eta, 1, 1).latency


@given(st.integers(2, 300))
def test_bounds_non_increasing_in_eta(n):
    eta_lo, eta_hi = F(n, 400), F(n + 1, 400)
    assert bd.bound_symmetric(eta_lo, 1, 1).latency >= bd.bound_symmetric(eta_hi, 1, 1).latency
    assert bd.bound_symmetric_approx(eta_lo, 1, 1) >= bd.bound_symmetric_approx(eta_hi, 1, 1)
    assert (
        bd.bound_mutual_exclusive(eta_lo, 1, 1).latency
        >= bd.bound_mutual_exclusive(eta_hi, 1, 1).latency
    )


@given(st.integers(1, 60))
def test_unidirectional_non_increasing_in_beta(n):
    beta_lo, beta_hi = F(n, 600), F(n + 1, 600)
    assert bd.bound_unidirectional(F(1, 4), beta_lo, 1) >= bd.bound_unidirectional(F(1, 4), beta_hi, 1)


def test_reduction_chain():
    eta = F(1, 50)
    assert (
        bd.bound_asymmetric(eta, eta, 1, 1).latency
        == bd.bound_symmetric_approx(eta, 1, 1)
        == bd.bound_slotted_full_duplex(eta, 1, 1)
    )


# ---------------------------------------------------------------------------
# integer-ratio evaluations against the Fraction-expression references
# ---------------------------------------------------------------------------

def _rationals(lo_num: int, hi_num: int, max_den: int = 10**6):
    """num/den with den in [1, max_den] and num in [lo_num*den, hi_num*den]."""
    return st.integers(1, max_den).flatmap(
        lambda den: st.integers(lo_num * den, hi_num * den).map(lambda num: F(num, den))
    )


_ETAS = st.one_of(
    _rationals(0, 3).filter(lambda x: x > 0),
    st.integers(1, 5000).map(lambda k: F(2, k)),  # 2/eta an integer
    st.integers(1, 5000).map(lambda k: F(1, k)),  # 1/eta an integer
    st.sampled_from((F(0), F(-1, 3), F(-2))),
    st.integers(1, 3),
)
_ALPHAS = st.one_of(_rationals(0, 4).filter(lambda x: x > 0), st.integers(1, 4))
_OMEGAS = st.one_of(st.integers(-50, 10**4), _rationals(0, 10**3, 1000))
_GAMMAS = st.one_of(
    st.integers(1, 5000).map(lambda k: F(1, k)),
    _rationals(0, 2, 1000),
    st.sampled_from((F(-1, 2), 1)),
)
_BETAS = st.one_of(_rationals(0, 1), st.sampled_from((F(0), F(-1, 100))))


def _agree(fn, ref, *args, **kwargs):
    """fn and its reference give equal values of one type, or the same
    DomainError or InfeasibleError."""
    try:
        want = ref(*args, **kwargs)
    except (DomainError, InfeasibleError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            fn(*args, **kwargs)
        return
    got = fn(*args, **kwargs)
    assert got == want and type(got) is type(want)
    if isinstance(want, tuple):
        assert [type(x) for x in got] == [type(x) for x in want]


_ETA_FORMS = (
    (bd.bound_symmetric, ref_bound_symmetric),
    (bd.bound_symmetric_approx, ref_bound_symmetric_approx),
    (bd.bound_slotted_full_duplex, ref_bound_slotted_full_duplex),
    (bd.bound_slotted_two_beacon, ref_bound_slotted_two_beacon),
    (bd.bound_mutual_exclusive, ref_bound_mutual_exclusive),
)


@settings(max_examples=300)
@given(_ETAS, _OMEGAS, _ALPHAS)
def test_eta_bounds_equal_their_references(eta, omega, alpha):
    for fn, ref in _ETA_FORMS:
        _agree(fn, ref, eta, omega, alpha)


@settings(max_examples=300)
@given(
    _GAMMAS,
    _BETAS,
    _OMEGAS,
    st.integers(0, 500),
    st.integers(0, 500),
    st.sampled_from(Semantics),
    st.booleans(),
)
def test_rate_bounds_equal_their_references(gamma, beta, omega, do_tx, do_rx, sem, first):
    radio = RadioModel(omega=1, d_oTx=do_tx, d_oRx=do_rx, semantics=sem)
    _agree(bd.bound_unidirectional, ref_bound_unidirectional, gamma, beta, omega)
    _agree(bd.bound_relaxed, ref_bound_relaxed, gamma, beta, omega, radio, first)


@settings(max_examples=300)
@given(_ETAS, _ETAS, _BETAS, _OMEGAS, _ALPHAS)
def test_two_rate_bounds_equal_their_references(eta, eta_f, beta_m, omega, alpha):
    _agree(bd.bound_asymmetric, ref_bound_asymmetric, eta, eta_f, omega, alpha)
    _agree(bd.bound_channel_constrained, ref_bound_channel_constrained, eta, beta_m, omega, alpha)


@pytest.mark.parametrize(
    "fn, eta, message",
    [
        (bd.bound_symmetric, F(0), "eta must be positive"),
        (bd.bound_symmetric, F(-1, 2), "eta must be positive"),
        (bd.bound_symmetric, F(2001, 1000), "eta > 2"),
        (bd.bound_mutual_exclusive, F(0), "eta must be positive"),
        (bd.bound_mutual_exclusive, F(1001, 1000), "eta > 1"),
        (bd.bound_symmetric_approx, F(0), "eta must be positive"),
        (bd.bound_slotted_full_duplex, F(-1), "eta must be positive"),
        (bd.bound_slotted_two_beacon, F(0), "eta must be positive"),
    ],
)
def test_eta_domain_errors(fn, eta, message):
    with pytest.raises(DomainError, match=message):
        fn(eta, 32, F(3, 2))


def test_ties_go_to_ceil_at_integer_reciprocals():
    # 2/eta (symmetric) or 1/eta (mutual-exclusive) an integer: both
    # candidates are the same k and the ceil branch reports it
    for k in (1, 2, 7, 100):
        sym = bd.bound_symmetric(F(2, k), 1, 1)
        assert (sym.k, sym.branch, sym.latency) == (k, "ceil", k * k)
        me = bd.bound_mutual_exclusive(F(1, k), 1, 1)
        assert (me.k, me.branch, me.latency) == (k, "ceil", 2 * k * k)


@pytest.mark.parametrize("position", range(3))
def test_closed_forms_refuse_floats(position):
    radio = RadioModel(omega=1)
    for fn, _ in _ETA_FORMS:
        args = [F(1, 50), 32, F(3, 2)]
        args[position] = float(args[position])
        with pytest.raises(TypeError):
            fn(*args)
    args = [F(1, 4), F(1, 100), 32]
    args[position] = float(args[position])
    with pytest.raises(TypeError):
        bd.bound_unidirectional(*args)
    with pytest.raises(TypeError):
        bd.bound_relaxed(*args, radio)


#: Every public bound at in-domain rates, as a function of (omega, alpha);
#: the unidirectional and relaxed bounds take no alpha.
_BOUNDS_OF_OMEGA_ALPHA = {
    "unidirectional": lambda w, a: bd.bound_unidirectional(F(1, 4), F(1, 100), w),
    "relaxed": lambda w, a: bd.bound_relaxed(F(1, 4), F(1, 100), w, RadioModel(omega=1)),
    "symmetric": lambda w, a: bd.bound_symmetric(F(1, 2), w, a),
    "symmetric_approx": lambda w, a: bd.bound_symmetric_approx(F(1, 2), w, a),
    "channel_constrained": lambda w, a: bd.bound_channel_constrained(F(1, 2), F(1, 100), w, a),
    "asymmetric": lambda w, a: bd.bound_asymmetric(F(1, 2), F(1, 3), w, a),
    "mutual_exclusive": lambda w, a: bd.bound_mutual_exclusive(F(1, 2), w, a),
    "slotted_full_duplex": lambda w, a: bd.bound_slotted_full_duplex(F(1, 2), w, a),
    "slotted_two_beacon": lambda w, a: bd.bound_slotted_two_beacon(F(1, 2), w, a),
    "slotted_channel": lambda w, a: bd.bound_slotted_channel(F(1, 2), F(1, 100), w, a),
    "pi0m": lambda w, a: bd.pi0m_latency(3, w, F(1, 2), a),
}


@pytest.mark.parametrize(
    "name, omega, alpha",
    [
        pytest.param(name, omega, alpha, id=f"{name}-omega={omega}-alpha={alpha}")
        for name in _BOUNDS_OF_OMEGA_ALPHA
        for omega, alpha in ((0, 1), (-3, 1), (F(-1, 2), 1), (32, 0), (32, -1), (32, F(-3, 2)))
        if omega <= 0 or name not in ("unidirectional", "relaxed")
    ],
)
def test_bounds_refuse_non_positive_omega_and_alpha(name, omega, alpha):
    bound = _BOUNDS_OF_OMEGA_ALPHA[name]
    bound(32, F(3, 2))  # in the domain
    bad = "omega" if omega <= 0 else "alpha"
    with pytest.raises(DomainError, match=f"{bad} must be positive"):
        bound(omega, alpha)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bd.bound_channel_constrained(F(1, 10), 0, 1, 1), "beta_m must be positive"),
        (lambda: bd.bound_asymmetric(0, F(1, 10), 1, 1), "duty cycles must be positive"),
        (lambda: bd.bound_asymmetric(F(1, 10), F(-1, 10), 1, 1), "duty cycles must be"),
        (lambda: bd.collision_probability(0, F(1, 10)), "at least one sender"),
        (lambda: bd.collision_probability(2, F(3, 2)), "beta must lie in"),
        (lambda: bd.bound_asymmetric(F(1, 10), 0, 1, 1), "duty cycles must be positive"),
    ],
    ids=["channel-beta_m", "asymmetric-eta_e", "asymmetric-eta_f", "no-sender", "beta",
         "asymmetric-eta_f-zero"],
)
def test_bounds_refuse_inputs_outside_their_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()
