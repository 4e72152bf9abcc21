"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from fractions import Fraction as F

from ndlab import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    UNBOUNDED,
    analyze,
    build_coverage_map,
    check_correlated_quadruple,
    measured_blocked_fraction,
    reception_duty_cycle,
    self_blocking_probability,
    simulate_multi,
    simulate_pair,
    transmission_duty_cycle,
    worst_case_latency_oracle,
)
from ndlab import bounds as bd
from ndlab.simulator import SimConfig
from ndlab.protocols import (
    builtin_difference_set,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
)
from helpers import (
    absolute_first_hit,
    beaconer,
    c7_devices,
    listener,
    per_tick_pair,
    random_beacons,
    random_reception,
    receive_only,
)

IDEAL = RadioModel(omega=1)


def test_criterion_1_oracle_equals_unidirectional_bound():
    cases = [(F(1, 2), F(1, 50)), (F(1, 4), F(1, 100)), (F(1, 10), F(1, 200))]
    for gamma, beta in cases:
        start = time.monotonic()
        k = int(1 / gamma)
        p = gen_optimal_unidirectional(k, beta, 1)
        got = worst_case_latency_oracle(p, p, method="full")
        expect = bd.bound_unidirectional(gamma, beta, 1)
        elapsed = time.monotonic() - start
        assert got == expect, (gamma, beta, got, expect)
        assert elapsed < 5.0
    print("criterion 1: PASS - full-tick oracle equals ceil(1/gamma)*omega/beta exactly")


def test_criterion_2_symmetric_optimum_and_pi0m_realization():
    bound = bd.bound_symmetric(F(1, 50), 1, 1).latency
    assert bound == 10000
    # periodic-interval realization at almost exactly that duty cycle
    p = gen_pi0m(99, 100, 1)
    eta = reception_duty_cycle(p.receptions) + transmission_duty_cycle(p.beacons)
    assert abs(float(eta) - 0.02) < 2e-5
    got = worst_case_latency_oracle(p, p, method="full")
    assert got is not UNBOUNDED
    assert abs(got - 10000) <= 0.01 * 10000
    print(f"criterion 2: PASS - bound 10000, generated schedule reaches {got}")


def test_criterion_3_pi0m_nrmse():
    nrmse = bd.pi0m_vs_symmetric(32, 1)[1]
    assert abs(nrmse * 100 - 1.24) <= 0.2, nrmse
    print(f"criterion 3: PASS - schedule-vs-bound NRMSE {nrmse * 100:.3f}% within 1.24 +/- 0.2")


def test_criterion_4_relaxed_deviation_ranges():
    grid = dict(beta_lo=F(11, 20000), beta_hi=F(111, 2000), k_lo=19, k_hi=1818)
    plain = RadioModel(omega=32, semantics=Semantics.CONTAINED)
    lo, hi = bd.relaxed_deviation_range(32, plain, **grid)
    assert abs(float(lo) * 100 - 0.0) <= 1.0
    assert abs(float(hi) * 100 - 6.0) <= 1.0
    nrf = RadioModel(omega=32, d_oTx=140, d_oRx=140, semantics=Semantics.CONTAINED)
    lo2, hi2 = bd.relaxed_deviation_range(32, nrf, **grid)
    assert abs(float(lo2) * 100 - 438.0) <= 1.0
    assert abs(float(hi2) * 100 - 467.0) <= 1.0
    print(
        "criterion 4: PASS - deviation spans "
        f"[{float(lo) * 100:.3f}%, {float(hi) * 100:.3f}%] ideal radio, "
        f"[{float(lo2) * 100:.2f}%, {float(hi2) * 100:.2f}%] with 140us overheads"
    )


def test_criterion_5_difference_set_determinism():
    for modulus in (7, 13):
        ds = builtin_difference_set(modulus)
        assert ds.k * ds.k >= modulus  # k >= sqrt(T)
        act = set(ds.elements)
        misses = [
            r for r in range(modulus)
            if not any((s + r) % modulus in act for s in act)
        ]
        assert misses == []
    print("criterion 5: PASS - (7,3,1) and (13,4,1) meet every rotation, k >= sqrt(T)")


def test_criterion_6_disco_worst_case():
    slot = 10
    p = gen_disco(3, 5, slot, 1)
    limit = 15 * slot
    t_b = p.beacons.period
    reference = per_tick_pair(p, p, t_b + math.lcm(t_b, p.receptions.period))
    for delta in range(15):
        lat, _ = simulate_pair(p, p, 0, delta * slot, self_blocking=False)
        assert lat == reference(0, delta * slot)
        assert isinstance(lat, int) and lat <= limit, (delta, lat)
    # the full-phase worst case stays within the slot-level guarantee too
    assert worst_case_latency_oracle(p, p) <= limit
    print("criterion 6: PASS - disco(3,5) discovers within 15 slots on every slot phase")


def test_criterion_7_collision_rates_match_model():
    beta = F(1, 200)
    for s in (2, 5, 10):
        start = time.monotonic()
        cfg = SimConfig(c7_devices(s), trials=100_000, seed=42, horizon=200_000)
        out = simulate_multi(cfg)
        elapsed = time.monotonic() - start
        model = bd.collision_probability(s, beta)
        sigma = math.sqrt(model * (1 - model) / cfg.trials)
        emp = float(out.first_collision_rate)
        assert abs(emp - model) <= 3 * sigma, (s, emp, model)
        assert elapsed < 60.0
    print("criterion 7: PASS - first-beacon collision rates within 3 sigma for S=2,5,10")


def test_criterion_8_asymmetry_costs_nothing():
    # all splits with eta_e + eta_f = 0.06 and both 2/eta integers
    pairs = [(34, 1700), (35, 700), (36, 450), (40, 200), (50, 100), (60, 75)]
    values = set()
    for ke, kf in pairs:
        eta_e, eta_f = F(2, ke), F(2, kf)
        assert eta_e + eta_f == F(3, 50)
        got = bd.bound_asymmetric(eta_e, eta_f, 1, 1)
        assert got.tight
        values.add(got.latency * eta_e * eta_f)
    assert values == {F(4)}  # latency times the rate product is one constant
    print("criterion 8: PASS - latency * eta_e * eta_f == 4*alpha*omega across the grid")


def test_criterion_9_property_suites():
    rng = random.Random(20260808)
    # per-beacon coverage equals the window sum, 1000 random schedules
    for _ in range(1000):
        rec = random_reception(rng)
        bea = random_beacons(rng)
        cov = build_coverage_map(beaconer(bea.emission_times, bea.period), receive_only(rec))
        for spans in cov.per_beacon:
            assert sum(b - a for a, b in spans) == rec.listen_ticks

    # latency unchanged by shifting the offset one full reception period,
    # 1000 random (schedule, offset) pairs checked on an absolute axis
    for _ in range(1000):
        rec = random_reception(rng)
        bea = random_beacons(rng)
        phi = rng.randrange(rec.period)
        assert absolute_first_hit(bea.emission_times, rec, phi) == absolute_first_hit(
            bea.emission_times, rec, phi + rec.period
        )

    # oracle dominates the closed-form bound on 200 deterministic protocols
    corpus = []
    while len(corpus) < 200:
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randrange(1, 7)
            lam = rng.randrange(max(2, k), 30)
            corpus.append(gen_optimal_unidirectional(k, F(1, lam), 1))
        elif kind == 1:
            m = rng.randrange(1, 7)
            d = rng.randrange(2, 12)
            corpus.append(gen_pi0m(m, d, 1))
        else:
            k = rng.randrange(2, 6)
            lam = rng.randrange(2 * k, 40)
            div = [w for w in range(1, lam + 1) if lam % w == 0]
            corpus.append(gen_optimal_unidirectional(k, F(1, lam), 1, window=rng.choice(div)))
    for p in corpus:
        beta = transmission_duty_cycle(p.beacons)
        gamma = reception_duty_cycle(p.receptions)
        full = worst_case_latency_oracle(p, p, method="full")
        ends = worst_case_latency_oracle(p, p, method="endpoints")
        assert full == ends
        assert full >= bd.bound_unidirectional(gamma, beta, 1)
    print("criterion 9: PASS - coverage, periodicity and bound-dominance suites clean")


def test_criterion_10_self_blocking():
    def device(radio):
        return ProtocolSpec(
            BeaconSchedule((0,), 32, period=3200),
            ReceptionSchedule((ReceptionWindow(0, 3200),), 3200),
            radio,
        )

    plain = device(RadioModel(omega=32))
    assert self_blocking_probability(plain) == transmission_duty_cycle(plain.beacons) == F(1, 100)
    assert measured_blocked_fraction(plain) == F(1, 100)

    nrf = device(RadioModel(omega=32, d_oTxRx=140, d_oRxTx=140))
    analytic = self_blocking_probability(nrf)
    assert analytic == F(39, 400)  # 0.0975
    measured = measured_blocked_fraction(nrf)
    assert abs(measured - analytic) <= F(2, 100) * analytic
    print(f"criterion 10: PASS - blocked fraction {float(measured):.4f} vs analytic 0.0975")


def test_criterion_11_mutual_exclusive_pairing():
    # both devices: window [0,3), beacons at 0 and 5, period 10; each side
    # covers 6 of the 10 offsets, jointly all of them
    dev = ProtocolSpec(
        BeaconSchedule((0, 5), 1, period=10),
        ReceptionSchedule((ReceptionWindow(0, 3),), 10),
        IDEAL,
    )
    rep = check_correlated_quadruple(dev, dev)
    assert rep.deterministic
    assert rep.min_beacons == 4
    assert dev.beacons.count == rep.min_beacons // 2

    # at reciprocal-integer duty cycles the shared-coverage bound is exactly
    # half the two-way symmetric bound
    for k in (1, 2, 10, 50):
        eta = F(1, k)
        half = bd.bound_mutual_exclusive(eta, 1, 1).latency
        full = bd.bound_symmetric(eta, 1, 1).latency
        assert 2 * half == full
    print("criterion 11: PASS - half-coverage pairing deterministic, bound exactly halves")
