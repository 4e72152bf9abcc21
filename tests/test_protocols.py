import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from ndlab import (
    UNBOUNDED,
    BeaconSchedule,
    DomainError,
    InfeasibleError,
    NeedsFinerTicks,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    analyze,
    build_coverage_map,
    reception_duty_cycle,
    simulate_pair,
    total_duty_cycle,
    transmission_duty_cycle,
    worst_case_latency_oracle,
)
from ndlab import bounds as bd
from ndlab.schedule import protocol_to_json
from ndlab.protocols import (
    BUILTIN_DIFFERENCE_SETS,
    DifferenceSet,
    builtin_difference_set,
    gen_diffcode,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
    gen_searchlight_striped,
    gen_slotted,
    gen_uconnect,
    SlottedParams,
)

from helpers import asymmetric_witness, channel_constrained_witness, slots_overlap_all_rotations


def deterministic(p):
    # a beacon subsequence spanning one full hyper-period decides the protocol
    t_b, t_c = p.beacons.period, p.receptions.period
    hyper = math.lcm(t_b, t_c)
    times = [tau + n * t_b for n in range(hyper // t_b) for tau in p.beacons.emission_times]
    beacons = BeaconSchedule(tuple(sorted(times)), p.beacons.beacon_duration, period=hyper)
    cov = build_coverage_map(replace(p, beacons=beacons), p)
    return analyze(cov)


# ---------------------------------------------------------------------------
# optimal unidirectional
# ---------------------------------------------------------------------------

def test_optimal_default_shape():
    p = gen_optimal_unidirectional(4, F(1, 100), 1)
    assert p.beacons.emission_times == (0, 100, 200, 300)
    assert p.beacons.period == 400
    assert p.receptions.period == 400
    assert transmission_duty_cycle(p.beacons) == F(1, 100)
    assert reception_duty_cycle(p.receptions) == F(1, 4)
    rep = deterministic(p)
    assert rep.deterministic and not rep.redundant
    assert rep.min_beacons == 4 == p.beacons.count


def test_optimal_k1_always_listening():
    p = gen_optimal_unidirectional(1, F(1, 20), 1)
    assert reception_duty_cycle(p.receptions) == 1
    assert p.beacons.count == 1
    assert worst_case_latency_oracle(p, p) == 20


def test_optimal_narrow_window_variant():
    # one reception window of 25 ticks per 100; beacons step by the window
    p = gen_optimal_unidirectional(4, F(1, 100), 1, window=25)
    assert p.receptions.period == 100
    assert p.beacons.emission_times == (0, 25, 50, 75)
    assert p.beacons.period == 400
    rep = deterministic(p)
    assert rep.deterministic and not rep.redundant
    assert worst_case_latency_oracle(p, p) == 400


def test_optimal_every_k_consecutive_gaps_sum_alike():
    for window in (None, 25, 50):
        p = gen_optimal_unidirectional(4, F(1, 100), 1, window=window)
        gaps = p.beacons.gaps()
        total = sum(gaps)
        k = len(gaps)
        doubled = gaps + gaps
        assert all(sum(doubled[i : i + k]) == total for i in range(k))


def test_optimal_contained_mode():
    radio = RadioModel(omega=1, semantics=Semantics.CONTAINED)
    p = gen_optimal_unidirectional(4, F(1, 100), 1, radio, window=26)
    assert p.receptions.windows[0].duration == 26
    assert p.receptions.period == 100  # 4 * (26 - 1)
    rep = deterministic(p)
    assert rep.deterministic
    assert reception_duty_cycle(p.receptions) == F(26, 100)


def test_optimal_non_integer_gap_rejected():
    with pytest.raises(NeedsFinerTicks):
        gen_optimal_unidirectional(4, F(2, 3), 1)  # gap would be 3/2 ticks


def test_optimal_contained_k1_infeasible():
    radio = RadioModel(omega=1, semantics=Semantics.CONTAINED)
    with pytest.raises(InfeasibleError):
        gen_optimal_unidirectional(1, F(1, 20), 1, radio)


# ---------------------------------------------------------------------------
# pi0m
# ---------------------------------------------------------------------------

def test_pi0m_shape_and_determinism():
    p = gen_pi0m(3, 10, 1)
    assert p.beacons.period == 10
    assert p.receptions.period == 39
    assert deterministic(p).deterministic


def test_pi0m_oracle_matches_interval_count():
    p = gen_pi0m(3, 10, 1)
    # worst case: one full beacon period per scan-interval step plus the gap
    t_c, t_b, d = 39, 10, 10
    expect = (math.ceil((t_c - d) / t_b) + 1) * t_b
    assert worst_case_latency_oracle(p, p) == expect == 40


def test_pi0m_delta_zero_variant():
    p1 = gen_pi0m(3, 10, 1, delta=1)
    p0 = gen_pi0m(3, 10, 1, delta=0)
    assert p0.receptions.period == 40
    # at ideal point-beacon semantics the shifted images still tile
    assert worst_case_latency_oracle(p0, p0) == worst_case_latency_oracle(p1, p1) == 40
    # with containment the aligned grid breaks down entirely
    radio = RadioModel(omega=1, semantics=Semantics.CONTAINED)
    q0 = gen_pi0m(3, 10, 1, radio, delta=0)
    assert worst_case_latency_oracle(q0, q0) is UNBOUNDED


def test_pi0m_domain():
    with pytest.raises(DomainError):
        gen_pi0m(0, 10, 1)
    with pytest.raises(DomainError):
        gen_pi0m(3, 1, 1)


# ---------------------------------------------------------------------------
# slotted designs
# ---------------------------------------------------------------------------

def test_slotted_layout():
    p = gen_slotted(SlottedParams(10, 4, (0, 2)), 1)
    assert p.receptions.spans() == ((0, 10), (20, 30))
    assert p.beacons.emission_times == (0, 9, 20, 29)
    assert p.beacons.period == 40


def test_slot_shorter_than_two_beacons_gets_one():
    p = gen_slotted(SlottedParams(3, 3, (0,)), 2)
    assert p.beacons.emission_times == (0,)
    # at the slot start, where a centered beacon would start at tick 1
    assert gen_slotted(SlottedParams(5, 3, (0,)), 3).beacons.emission_times == (0,)


def test_disco_counts_and_duty_cycle():
    p = gen_disco(3, 5, 10, 1)
    active = len(p.receptions.windows)
    assert active == 7  # multiples of 3 or 5 below 15
    assert reception_duty_cycle(p.receptions) == F(7, 15)
    assert transmission_duty_cycle(p.beacons) == F(14, 150)


def test_disco_rejects_non_coprime():
    with pytest.raises(DomainError):
        gen_disco(4, 6, 10, 1)


def test_disco_slot_level_overlap_within_hyperperiod():
    active = {s for s in range(15) if s % 3 == 0 or s % 5 == 0}
    assert slots_overlap_all_rotations(active, 15)


def test_searchlight_shape():
    p = gen_searchlight_striped(4, 10, 1)
    # two periods of four slots; anchor at 0, probes at 1 then 2
    assert p.receptions.period == 80
    starts = [w.start // 10 for w in p.receptions.windows]
    assert starts == [0, 1, 4, 6]
    assert reception_duty_cycle(p.receptions) == F(2, 4)


def test_searchlight_slot_rotation_determinism():
    p = gen_searchlight_striped(4, 10, 1)
    active = {w.start // 10 for w in p.receptions.windows}
    assert slots_overlap_all_rotations(active, 8)
    assert worst_case_latency_oracle(p, p) is not UNBOUNDED


def test_uconnect_counts():
    p = gen_uconnect(3, 10, 1)
    assert len(p.receptions.windows) == 5  # {0,3,6} plus run {1,2}
    assert reception_duty_cycle(p.receptions) == F(5, 9) == F(1, 3) + F(2, 9)
    assert deterministic(p).deterministic
    with pytest.raises(DomainError):
        gen_uconnect(4, 10, 1)


def test_uconnect_slot_rotation_determinism():
    active = {0, 3, 6, 1, 2}
    assert slots_overlap_all_rotations(active, 9)


def _scanned_slots(family, params):
    """Active slots of a Disco or U-Connect grid, by testing every slot."""
    if family == "disco":
        p1, p2 = params
        return p1 * p2, [s for s in range(p1 * p2) if s % p1 == 0 or s % p2 == 0]
    (p,) = params
    return p * p, sorted({s for s in range(p * p) if s % p == 0} | set(range(1, 1 + (p + 1) // 2)))


@pytest.mark.parametrize(
    "family, params",
    [("disco", pq) for pq in [(2, 3), (3, 5), (3, 7), (5, 7), (4, 7), (2, 5), (5, 6), (3, 4), (7, 11)]]
    + [("uconnect", (p,)) for p in (3, 5, 7, 11, 13)],
)
def test_slotted_documents_match_a_scan_of_every_slot(family, params):
    # the generators step through the active slots; a scan of every slot
    # of the hyper-period must give the same document, byte for byte
    gen = {"disco": gen_disco, "uconnect": gen_uconnect}[family]
    hyper, active = _scanned_slots(family, params)
    for slot, omega in ((10, 1), (6, 3), (5, 3)):
        want = gen_slotted(SlottedParams(slot, hyper, tuple(active)), omega)
        assert protocol_to_json(gen(*params, slot, omega)) == protocol_to_json(want)


#: (family, parameters) of each slotted schedule whose closed form is checked
_CLOSED_FORM_CASES = (
    [("disco", pq) for pq in [(2, 3), (3, 5), (3, 7), (5, 7), (4, 7), (2, 5), (5, 6), (3, 4)]]
    + [("diffcode", v) for v in (7, 13, 21)]
    + [("searchlight", t) for t in (3, 4, 5, 6, 8)]
    + [("uconnect", p) for p in (3, 5, 7, 11, 13)]
)


def _closed_form_case(family, n, slot, omega, semantics):
    """The family's schedule and the worst case its docstring states for
    a device hearing a copy of itself."""
    radio = RadioModel(omega=omega, semantics=semantics)
    if family == "disco":
        p = gen_disco(*n, slot, omega, radio)
        want = (n[0] * n[1] - 2) * slot + omega, (n[0] * n[1] - 1) * slot
    elif family == "diffcode":
        p = gen_diffcode(builtin_difference_set(n), slot, omega, radio)
        want = n * slot - omega, n * slot
    elif family == "searchlight":
        p = gen_searchlight_striped(n, slot, omega, radio)
        h = n * ((n + 1) // 2)
        want = ((h - 1) * slot + omega, h * slot) if n > 3 else (4 * slot + omega, 5 * slot)
    else:
        p = gen_uconnect(n, slot, omega, radio)
        want = {3: (7 * slot + omega, 8 * slot), 5: (24 * slot + omega, 25 * slot)}.get(
            n, (n * n * slot - omega, n * n * slot)
        )
    return p, want[semantics is Semantics.CONTAINED]


@pytest.mark.parametrize("family, n", _CLOSED_FORM_CASES)
def test_slotted_worst_case_closed_forms(family, n):
    # the forms in the generators' docstrings, which hold wherever every
    # active slot holds two beacons
    for slot in (6, 8, 10, 15):
        for omega in (1, 2, 3):
            for semantics in Semantics:
                p, want = _closed_form_case(family, n, slot, omega, semantics)
                got = worst_case_latency_oracle(p, p)
                assert got == want, (slot, omega, semantics)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(_CLOSED_FORM_CASES),
    st.integers(1, 5).flatmap(
        lambda omega: st.tuples(st.just(omega), st.integers(2 * omega, 2 * omega + 24))
    ),
    st.sampled_from(Semantics),
)
def test_slotted_closed_forms_hold_for_any_two_beacon_slot(case, omega_slot, semantics):
    # the docstring forms need only slot >= 2 * omega, not the grid above
    (family, n), (omega, slot) = case, omega_slot
    p, want = _closed_form_case(family, n, slot, omega, semantics)
    assert worst_case_latency_oracle(p, p) == want


def test_slot_domain_worst_cases_on_slot_phases():
    # discovery within the advertised slot budget for every whole-slot shift
    slot = 10
    cases = [
        (gen_disco(3, 5, slot, 1), 15),
        (gen_searchlight_striped(4, slot, 1), 4 * 2),
        (gen_uconnect(3, slot, 1), 9),
        (gen_diffcode(builtin_difference_set(7), slot, 1), 7),
    ]
    for proto, slot_budget in cases:
        hyper_slots = proto.receptions.period // slot
        for delta in range(hyper_slots):
            lat, _ = simulate_pair(proto, proto, 0, delta * slot, self_blocking=False)
            assert isinstance(lat, int)
            assert lat <= slot_budget * slot, (slot_budget, delta, lat)


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------

def test_builtin_sets_validate():
    for t, elements in BUILTIN_DIFFERENCE_SETS.items():
        ds = builtin_difference_set(t)
        assert ds.elements == tuple(sorted(elements))
        assert ds.k >= math.isqrt(t)  # k >= sqrt(T)
        assert slots_overlap_all_rotations(ds.elements, t)


def test_invalid_difference_set_rejected():
    with pytest.raises(ValueError, match="not a perfect difference set: a difference repeats"):
        DifferenceSet(7, (0, 1, 2))


def test_difference_set_refusal_does_not_grow_with_the_modulus():
    # two residues give two differences and a modulus of 10^7 + 19 needs
    # 10^7 + 18: refused from the count, with no table per residue
    with pytest.raises(ValueError) as exc:
        DifferenceSet(10_000_019, (0, 1))
    assert str(exc.value) == (
        "not a perfect difference set: 2 residues give 2 differences,"
        " modulus 10000019 needs 10000018"
    )


def test_diffcode_protocol_rotations():
    ds = builtin_difference_set(7)
    p = gen_diffcode(ds, 10, 1)
    assert len(p.receptions.windows) == 3
    assert worst_case_latency_oracle(p, p) is not UNBOUNDED
    assert worst_case_latency_oracle(p, p) <= 7 * 10


def test_slot_smaller_than_beacon_rejected():
    with pytest.raises(DomainError):
        gen_disco(3, 5, 2, 3)


# ---------------------------------------------------------------------------
# the closed-form bounds against the exact oracle
# ---------------------------------------------------------------------------

SLOTTED_KINDS = ("disco", "searchlight", "uconnect", "diffcode")


@st.composite
def _generated(draw, unit=False):
    """(kind, protocol) from one of the six generators, with the slot (or
    beacon gap) between omega and 12 * omega; with ``unit``, omega and
    alpha are 1 on an ideal radio without overheads."""
    omega = 1 if unit else draw(st.integers(1, 3))
    if unit:
        radio = RadioModel(omega=1)
    else:
        overhead = draw(st.integers(0, 3))
        radio = RadioModel(
            alpha=draw(st.sampled_from((F(1, 2), F(1), F(2)))),
            omega=omega,
            d_oTx=overhead,
            d_oRx=overhead,
            semantics=draw(st.sampled_from((Semantics.IDEAL, Semantics.CONTAINED))),
        )
    slot = draw(st.integers(omega, 12 * omega))
    kind = draw(st.sampled_from(("optimal", "pi0m") + SLOTTED_KINDS))
    if kind == "optimal":
        p = gen_optimal_unidirectional(draw(st.integers(2, 6)), F(omega, slot), omega, radio)
    elif kind == "pi0m":
        d = max(slot, omega + 1)
        p = gen_pi0m(draw(st.integers(1, 12)), d, omega, radio, draw(st.integers(0, d - 1)))
    elif kind == "disco":
        p = gen_disco(*draw(st.sampled_from(((2, 3), (2, 5), (3, 5)))), slot, omega, radio)
    elif kind == "searchlight":
        p = gen_searchlight_striped(draw(st.integers(2, 6)), slot, omega, radio)
    elif kind == "uconnect":
        p = gen_uconnect(draw(st.sampled_from((3, 5))), slot, omega, radio)
    else:
        p = gen_diffcode(builtin_difference_set(draw(st.sampled_from((7, 13)))), slot, omega, radio)
    return kind, p


@settings(deadline=None, max_examples=300)
@given(_generated())
def test_no_generated_protocol_beats_the_bounds(case):
    kind, p = case
    got = worst_case_latency_oracle(p, p)
    if got is UNBOUNDED:
        return
    eta, omega, alpha = total_duty_cycle(p), p.radio.omega, p.radio.alpha
    beta = transmission_duty_cycle(p.beacons)
    if eta <= 2:
        assert got >= bd.bound_symmetric(eta, omega, alpha).latency
        assert got >= bd.bound_channel_constrained(eta, beta, omega, alpha).latency
    if kind in SLOTTED_KINDS:
        assert got >= bd.bound_slotted_channel(eta, beta, omega, alpha)


@pytest.mark.parametrize("m, omega", [(3, 1), (9, 1), (19, 1), (99, 1), (9, 2), (4, 2)])
def test_pi0m_attains_the_symmetric_bound(m, omega):
    p = gen_pi0m(m, omega * (m + 1), omega, delta=0)
    eta = total_duty_cycle(p)
    assert eta == F(2, m + 1)
    assert (
        worst_case_latency_oracle(p, p)
        == bd.bound_symmetric(eta, omega, 1).latency
        == bd.pi0m_latency(m, omega, eta, 1)
        == omega * (m + 1) ** 2
    )


def _two_way(e, f):
    """Worst case over phase pairs of max(L_ef, L_fe), None if unbounded:
    without self-blocking the two maxima commute."""
    ef, fe = worst_case_latency_oracle(e, f), worst_case_latency_oracle(f, e)
    return None if None in (ef, fe) else max(ef, fe)


def test_closest_pair_to_the_asymmetric_bound():
    e, f = gen_pi0m(3, 5, 1), gen_optimal_unidirectional(4, F(1, 5), 1)
    bound = bd.bound_asymmetric(total_duty_cycle(e), total_duty_cycle(f), 1, 1)
    assert (total_duty_cycle(e), total_duty_cycle(f)) == (F(44, 95), F(9, 20))
    assert _two_way(e, f) == 20 >= bound.latency == F(1900, 99)


@settings(deadline=None, max_examples=200)
@given(_generated(unit=True), _generated(unit=True))
def test_no_generated_pair_beats_the_asymmetric_bound_two_ways(a, b):
    (_, e), (_, f) = a, b
    got = _two_way(e, f)
    if got is None:
        return
    assert got >= bd.bound_asymmetric(total_duty_cycle(e), total_duty_cycle(f), 1, 1).latency


@st.composite
def _asymmetric_witness_case(draw):
    alpha = draw(st.sampled_from((1, 2, 3, F(3, 2))))
    omega = draw(st.sampled_from([w for w in range(1, 5) if (alpha * w).denominator == 1]))
    k_e = draw(st.integers(2, 8))
    return k_e, draw(st.integers(k_e, 10)), omega, alpha


@settings(deadline=None, max_examples=200)
@given(_asymmetric_witness_case())
def test_asymmetric_witness_attains_the_bound(case):
    k_e, k_f, omega, alpha = case
    e, f = asymmetric_witness(k_e, k_f, omega, alpha)
    assert (total_duty_cycle(e), total_duty_cycle(f)) == (F(2, k_e), F(2, k_f))
    bound = bd.bound_asymmetric(F(2, k_e), F(2, k_f), omega, alpha)
    assert bound.tight
    assert worst_case_latency_oracle(e, f) == worst_case_latency_oracle(f, e) == bound.latency


@st.composite
def _channel_case_2(draw):
    """(eta, beta_m, omega, alpha) at which the channel cap binds."""
    omega, alpha = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    beta_m = F(1, draw(st.integers(3, 39)))
    etas = sorted(
        eta
        for eta in {F(n, d) for n in (1, 2, 3) for d in range(2, 40)}
        if eta > alpha * beta_m
        and bd.bound_channel_constrained(eta, beta_m, omega, alpha).case == 2
    )
    assume(etas)
    return draw(st.sampled_from(etas)), beta_m, omega, alpha


@settings(deadline=None, max_examples=200)
@given(_channel_case_2())
def test_channel_constrained_witness_attains_case_2(case):
    eta, beta_m, omega, alpha = case
    p = channel_constrained_witness(eta, beta_m, omega, alpha)
    assert total_duty_cycle(p) <= eta
    assert transmission_duty_cycle(p.beacons) == beta_m
    bound = bd.bound_channel_constrained(eta, beta_m, omega, alpha)
    assert worst_case_latency_oracle(p, p) == bound.latency


def test_mutual_exclusive_bound_nearest_census_device():
    # the closest a census of identical one-window pairs came to the bound
    # (see bound_mutual_exclusive): beacons (0, 3) and the window [0, 2) in
    # period 7 discover either way within 7 ticks, 9/8 of the bound 56/9
    p = ProtocolSpec(
        BeaconSchedule((0, 3), 1, period=7),
        ReceptionSchedule((ReceptionWindow(0, 2),), 7),
        RadioModel(omega=1),
    )
    eta = total_duty_cycle(p)
    assert eta == F(4, 7)
    worst = 0
    for pe, pf in product(range(7), repeat=2):
        lats = [lat for lat in simulate_pair(p, p, pe, pf, self_blocking=False) if lat is not None]
        worst = max(worst, min(lats))
    bound = bd.bound_mutual_exclusive(eta, 1, 1).latency
    assert (worst, bound) == (7, F(56, 9))
    assert worst / bound == F(9, 8)


#: (builder, error type, message) of every generator input refused up front
_GENERATOR_REFUSALS = {
    "slot-length": (lambda: SlottedParams(0, 4, (0,)), ValueError, "slot length must be >= 1"),
    "no-active-slot": (lambda: SlottedParams(5, 4, ()), ValueError, "at least one active slot"),
    "slot-out-of-range": (lambda: SlottedParams(5, 4, (4,)), ValueError, "out of range"),
    "residue": (lambda: DifferenceSet(7, (0, 1, 7)), ValueError, "residues mod the modulus"),
    "builtin-modulus": (lambda: builtin_difference_set(8), KeyError, "no built-in difference"),
    "searchlight-t": (lambda: gen_searchlight_striped(1, 10, 1), DomainError, "two slots"),
    "optimal-k": (lambda: gen_optimal_unidirectional(0, F(1, 10), 1), DomainError, "k must"),
    "optimal-beta": (lambda: gen_optimal_unidirectional(2, 0, 1), DomainError, "beta must"),
    "optimal-window-fit": (
        lambda: gen_optimal_unidirectional(
            2, F(1, 10), 2, RadioModel(omega=2, semantics=Semantics.CONTAINED), window=2
        ),
        InfeasibleError,
        "window does not fit one beacon",
    ),
    "optimal-window-gap": (
        lambda: gen_optimal_unidirectional(2, F(1, 10), 1, window=11),
        DomainError,
        "window larger than the beacon gap",
    ),
    "optimal-window-step": (
        lambda: gen_optimal_unidirectional(2, F(1, 10), 2, window=1),
        NeedsFinerTicks,
        "window step smaller than one beacon",
    ),
    "pi0m-delta": (lambda: gen_pi0m(3, 10, 1, delta=10), DomainError, "delta must lie"),
}


@pytest.mark.parametrize("name", sorted(_GENERATOR_REFUSALS))
def test_generators_refuse_invalid_parameters(name):
    build, error, message = _GENERATOR_REFUSALS[name]
    with pytest.raises(error, match=message):
        build()
