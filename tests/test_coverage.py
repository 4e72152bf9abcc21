import hashlib
import io
import random
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ndlab import (
    UNBOUNDED,
    BeaconSchedule,
    HyperperiodTooLarge,
    MisalignedPeriods,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    TimeBase,
    analyze,
    build_coverage_map,
    check_correlated_quadruple,
    exhaustive_pair_worst_case,
    protocol_from_json,
    protocol_to_json,
    simulate_pair,
    worst_case_latency_oracle,
)
from ndlab import intervals as iv
from ndlab.coverage import DEFAULT_HYPERPERIOD_BUDGET, _hear, _quadruple_images
from ndlab.protocols import (
    builtin_difference_set,
    gen_diffcode,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
    gen_searchlight_striped,
    gen_uconnect,
)
from helpers import (
    absolute_first_hit,
    beaconer,
    listener,
    one_shot,
    per_tick_max_gap,
    per_tick_pair,
    random_beacons,
    random_protocol,
    random_reception,
    receive_only,
    small_scope_agreement,
    three_gap_worst_case,
    with_field,
)

IDEAL = RadioModel(omega=1)


def rec(windows, period):
    return ReceptionSchedule(tuple(ReceptionWindow(a, d) for a, d in windows), period)


def report_min_beacons(f, omega=1):
    """The analyze report's min_beacons of f hearing beacons of omega
    ticks; any one beacon gives the same."""
    e = beaconer([0], f.receptions.period, omega=omega)
    return analyze(build_coverage_map(e, f)).min_beacons


def first_landing(cov, times, phi):
    """Emission offset from beacon 0 of the first beacon whose covered set
    in ``cov`` holds offset ``phi``, or None when none does."""
    times = sorted(times)
    for spans, t in zip(cov.per_beacon, times):
        if bisect_right(iv.edges(spans), phi) & 1:
            return t - times[0]
    return None


# ---------------------------------------------------------------------------
# map construction
# ---------------------------------------------------------------------------

def test_single_beacon_covers_window():
    cov = build_coverage_map(beaconer([0], 10), listener([(2, 3)], 10))
    assert cov.per_beacon == (((2, 5),),)


def test_second_beacon_shifts_left_and_wraps():
    cov = build_coverage_map(beaconer([0, 4], 10), listener([(2, 3)], 10))
    assert cov.per_beacon[0] == ((2, 5),)
    assert cov.per_beacon[1] == ((0, 1), (8, 10))


def test_contained_mode_drops_window_tail():
    f = listener([(2, 3)], 10, semantics=Semantics.CONTAINED)
    cov = build_coverage_map(beaconer([0], 10), f)
    assert cov.per_beacon == (((2, 4),),)


def test_contained_window_must_outlast_the_beacon_by_a_tick():
    # a beacon starting at s is received iff start <= s < end - omega: in
    # the window [4, 7) a 2-tick beacon may start at 4, not at 5, though a
    # beacon at 5 would end on the window's last tick
    e = beaconer([0], 20, omega=2)
    f = listener([(4, 3)], 20, semantics=Semantics.CONTAINED)
    # phase_e 19: the first beacon starts 1 tick into range, at f's tick phase_f + 1
    assert simulate_pair(e, f, 19, 3, self_blocking=False)[0] == 1
    assert simulate_pair(e, f, 19, 4, self_blocking=False)[0] is None
    # a window exactly omega long hears nothing
    f = listener([(4, 2)], 20, semantics=Semantics.CONTAINED)
    assert worst_case_latency_oracle(e, f) is UNBOUNDED
    for phase_f in range(20):
        assert simulate_pair(e, f, 19, phase_f, self_blocking=False)[0] is None


def test_csv_rows():
    cov = build_coverage_map(beaconer([0, 4], 10), listener([(2, 3)], 10))
    fh = io.StringIO(newline="")
    cov.write_csv(fh)
    assert fh.getvalue().splitlines() == [
        "beacon_index,interval_start,interval_end", "0,2,5", "1,0,1", "1,8,10"
    ]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_full_listening_is_deterministic_and_disjoint():
    cov = build_coverage_map(beaconer([0], 12), listener([(0, 12)], 12))
    rep = analyze(cov)
    assert rep.deterministic and not rep.redundant
    assert rep.coverage_lambda == 12
    assert rep.min_beacons == 1


def test_one_beacon_short_of_minimum_is_not_deterministic():
    # two unit windows per 8 ticks: at least 4 beacons needed
    f = listener([(0, 1), (4, 1)], 8)
    assert report_min_beacons(f) == 4
    times = [0, 1, 2]  # 3 equally spaced beacons
    rep = analyze(build_coverage_map(beaconer(times, 8), f))
    assert rep.coverage_lambda == 6 < 8
    assert not rep.deterministic


def test_redundant_seven_beacon_instance():
    # seven beacons against two unit windows per 8 ticks, shifts chosen so
    # the whole period is covered and most offsets twice
    f = listener([(0, 1), (4, 1)], 8)
    times = [0, 1, 2, 3, 8, 9, 10]
    cov = build_coverage_map(beaconer(times, 16), f)
    rep = analyze(cov)

    # independent oracle: count covering beacons per tick by direct replay
    mult = {phi: 0 for phi in range(8)}
    for phi in range(8):
        for tau in times:
            pos = (phi + tau) % 8
            if pos in (0, 4):
                mult[phi] += 1
    assert sum(mult.values()) == 14
    assert rep.coverage_lambda == 14
    assert rep.deterministic == all(m > 0 for m in mult.values()) is True
    assert rep.redundant == any(m > 1 for m in mult.values()) is True


def test_min_beacons_examples():
    assert report_min_beacons(listener([(0, 1), (4, 1)], 8)) == 4
    assert report_min_beacons(listener([(0, 3)], 10)) == 4
    assert report_min_beacons(listener([(0, 10)], 10)) == 1


def test_min_beacons_contained_infeasible():
    f = listener([(0, 4)], 10, semantics=Semantics.CONTAINED)
    # no 4-tick window holds a whole 5-tick beacon
    assert report_min_beacons(f, omega=5) is None


def test_min_beacons_contained_uses_effective_length():
    f = listener([(0, 3)], 10, semantics=Semantics.CONTAINED)
    assert report_min_beacons(f) == 5  # ceil(10/2)


def test_min_beacons_nonrepetitive_horizon():
    # min_beacons depends on the window sum alone
    f = listener([(0, 3), (10, 3)], 20)
    # gamma = 6/20 -> ceil(1/gamma) = 4
    assert report_min_beacons(f) == 4


# ---------------------------------------------------------------------------
# beacon-to-beacon latency
# ---------------------------------------------------------------------------

def test_first_beacon_hit_latency_zero():
    cov = build_coverage_map(beaconer([0, 4], 10), listener([(2, 3)], 10))
    assert first_landing(cov, [0, 4], 2) == 0


def test_third_beacon_hit_sums_gaps():
    # windows such that only the third beacon covers the probed offset
    f = listener([(0, 1)], 10)
    times = [0, 3, 7]
    cov = build_coverage_map(beaconer(times, 10), f)
    assert first_landing(cov, times, 3) == 7  # lands at 3+7=10=0 mod 10
    assert first_landing(cov, times, 7) == 3


def test_uncovered_offset_reports_not_covered():
    cov = build_coverage_map(beaconer([0], 10), listener([(2, 3)], 10))
    assert first_landing(cov, [0], 7) is None


# ---------------------------------------------------------------------------
# worst-case oracle
# ---------------------------------------------------------------------------

def test_always_listening_worst_case_is_one_gap():
    e = beaconer([0], 7)
    f = listener([(0, 21)], 21)
    assert worst_case_latency_oracle(e, f) == 7
    assert worst_case_latency_oracle(e, f, method="endpoints") == 7


def test_non_deterministic_pair_is_unbounded():
    # beacon gap equal to the reception period: the same offsets forever
    e = beaconer([0], 10)
    f = listener([(0, 3)], 10)
    assert worst_case_latency_oracle(e, f) is UNBOUNDED
    assert worst_case_latency_oracle(e, f, method="endpoints") is UNBOUNDED


def test_generated_optimal_protocol_attains_bound():
    p = gen_optimal_unidirectional(4, F(1, 100), 1)
    assert worst_case_latency_oracle(p, p, method="full") == 400


def test_hyperperiod_budget_enforced():
    e = beaconer([0], 10_007)
    f = listener([(0, 4)], 9_973)
    with pytest.raises(HyperperiodTooLarge) as exc:
        worst_case_latency_oracle(e, f, max_hyperperiod=10_000)
    assert exc.value.hyperperiod == 10_007 * 9_973


def test_budget_charges_joint_time_scanned_not_lcm():
    # lcm 99,999,000 is above the default budget, but every offset is
    # covered within 100000 ticks, so the scan never needs the whole lcm
    p = gen_pi0m(99, 1000, 1)
    assert lcm(p.beacons.period, p.receptions.period) > 10_000_000
    assert worst_case_latency_oracle(p, p) == 100000
    assert simulate_pair(p, p, 0, 0, self_blocking=False)[0] <= 100000
    # the worst case waits one 1000-tick gap for the first in-range beacon,
    # then needs 99000 ticks past it: a budget of 99000 suffices, one less not
    assert worst_case_latency_oracle(p, p, max_hyperperiod=99_000) == 100000
    with pytest.raises(HyperperiodTooLarge) as exc:
        worst_case_latency_oracle(p, p, max_hyperperiod=98_999)
    assert (exc.value.hyperperiod, exc.value.limit) == (99_999_000, 98_999)


@pytest.mark.parametrize("t_c", [1009, 2003, 5003, 20011])
def test_fragmenting_pair_closed_form(t_c):
    # one beacon every 7 ticks against a 1-tick window in a prime period:
    # the offsets are covered one at a time, the last after t_c - 1 gaps,
    # and the first in-range beacon may wait one more gap
    e, f = beaconer([0], 7), listener([(0, 1)], t_c)
    assert worst_case_latency_oracle(e, f) == 7 * t_c
    if t_c == 1009:
        assert worst_case_latency_oracle(e, f, method="full") == 7 * t_c


def test_pair_too_sparse_for_the_budget_is_refused_without_a_sweep(monkeypatch):
    import ndlab.coverage as coverage

    def no_sweep(*args):
        raise AssertionError("the oracle swept a pair it can refuse outright")

    monkeypatch.setattr(coverage, "_oracle_full", no_sweep)
    monkeypatch.setattr(coverage, "_oracle_endpoints", no_sweep)
    e, f = beaconer([0], 7), listener([(0, 1)], 10_000_019)
    for method in ("full", "endpoints"):
        with pytest.raises(HyperperiodTooLarge) as exc:
            worst_case_latency_oracle(e, f, method=method)
        assert (exc.value.hyperperiod, exc.value.limit) == (70_000_133, 10_000_000)


def test_pair_that_never_discovers_is_answered_without_a_sweep(monkeypatch):
    import ndlab.coverage as coverage

    def no_sweep(*args):
        raise AssertionError("the oracle swept a pair that never discovers")

    monkeypatch.setattr(coverage, "_oracle_full", no_sweep)
    monkeypatch.setattr(coverage, "_oracle_endpoints", no_sweep)
    # lcm 200,020,000 is past the default budget, but gcd(20000, 20002) = 2:
    # the beacon keeps the parity of its offset, and odd offsets never hear
    e, f = beaconer([0], 20_000), listener([(0, 1)], 20_002)
    for method in ("full", "endpoints"):
        for budget in (DEFAULT_HYPERPERIOD_BUDGET, 0):
            assert worst_case_latency_oracle(e, f, method, budget) is UNBOUNDED


def test_pairwise_latency_charges_the_same_budget():
    # the one per-phase replay, simulate_pair, takes no budget: it answers
    # the pair whose lcm the oracle's default budget refuses, as the
    # per-tick reference does
    e = beaconer([0], 10)
    f = listener([(0, 3)], 10)
    assert simulate_pair(e, f, 0, 5, self_blocking=False)[0] is None
    assert per_tick_pair(e, f, 10 + 10)(0, 5) is None
    e = beaconer([0], 10_007)
    f = listener([(0, 4)], 9_973)
    with pytest.raises(HyperperiodTooLarge):
        worst_case_latency_oracle(e, f, max_hyperperiod=10_000)
    lat = simulate_pair(e, f, 0, 100, self_blocking=False)[0]
    assert lat == 1757 * 10_007  # beacon 1757 lands at 100 + 1757 * 34 = 6 * 9973
    # a horizon of lat checks every earlier beacon too, and keeps the
    # reference's tick list near 18M entries instead of the 100M-tick lcm
    assert per_tick_pair(e, f, lat)(0, 100) == lat


def test_negative_budget_is_refused_before_any_sweep(monkeypatch):
    import ndlab.coverage as coverage

    def no_sweep(*args):
        raise AssertionError("swept under a negative budget")

    for name in ("_oracle_full", "_oracle_endpoints"):
        monkeypatch.setattr(coverage, name, no_sweep)
    e, f = beaconer([0], 10), listener([(0, 3)], 10)
    for budget in (-1, -5):
        for method in ("full", "endpoints"):
            with pytest.raises(ValueError, match="max_hyperperiod must be >= 0"):
                worst_case_latency_oracle(e, f, method=method, max_hyperperiod=budget)
    monkeypatch.undo()
    # a budget of 0 still answers a pair whose first in-range beacon is heard
    always = listener([(0, 10)], 10)
    assert worst_case_latency_oracle(e, always, max_hyperperiod=0) == 10
    assert simulate_pair(e, always, 0, 5, self_blocking=False)[0] == 10


def _oracle_or_overrun(e, f, method, budget=DEFAULT_HYPERPERIOD_BUDGET):
    try:
        return worst_case_latency_oracle(e, f, method=method, max_hyperperiod=budget)
    except HyperperiodTooLarge as exc:
        return ("overrun", exc.hyperperiod, exc.limit)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_oracle_paths_agree_under_any_budget(seed):
    rng = random.Random(seed)
    e = random_protocol(rng)
    f = random_protocol(rng)
    hyper = lcm(e.beacons.period, f.receptions.period)
    budget = rng.randint(1, 2 * hyper)
    full = _oracle_or_overrun(e, f, "full", budget)
    ends = _oracle_or_overrun(e, f, "endpoints", budget)
    assert full == ends
    if budget >= hyper:
        assert not isinstance(full, tuple)


def test_oracle_api_used_by_the_benchmark():
    # the benchmark calls these names; a rename would fail every analyze
    # operation there without any other test noticing
    import importlib.util
    from pathlib import Path

    import ndlab.bounds
    import ndlab.cli
    import ndlab.coverage
    import ndlab.errors
    import ndlab.protocols

    p = gen_optimal_unidirectional(4, F(1, 100), 1)
    for method in ("full", "endpoints"):
        assert worst_case_latency_oracle(p, p, method=method, max_hyperperiod=10**12) == 400
    assert ndlab.cli.worst_case_latency_oracle is ndlab.coverage.worst_case_latency_oracle
    exc = ndlab.errors.HyperperiodTooLarge(12, 3)
    assert (exc.hyperperiod, exc.limit) == (12, 3)
    assert ndlab.errors.HyperperiodTooLarge is HyperperiodTooLarge
    # the traced run patches each of these bounds.* names one by one and
    # silently skips a name the package no longer has
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.BOUNDS:
        assert not name.startswith("_") and callable(getattr(ndlab.bounds, name, None)), name
    # likewise the CLI layer's spans and the generator spans
    for module, attr, _, _ in tracing.CLI_LAYER:
        owner = importlib.import_module(module)
        assert callable(getattr(owner, attr, None)), (module, attr)
    for name in tracing.GENERATORS:
        assert callable(getattr(ndlab.protocols, name, None)), name


def test_package_exports_are_exactly_its_public_imports():
    # a name left in __all__ after its import goes makes `import *` raise
    import ast
    from pathlib import Path

    import ndlab

    tree = ast.parse(Path(ndlab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(ndlab.__all__)) == len(ndlab.__all__)
    assert set(ndlab.__all__) == {name for name in imported if not name.startswith("_")}
    namespace = {}
    exec("from ndlab import *", namespace)
    assert set(ndlab.__all__) <= namespace.keys()


def test_silent_transmitter_is_unbounded():
    e = listener([(0, 2)], 10)
    f = listener([(0, 5)], 10)
    assert worst_case_latency_oracle(e, f) is UNBOUNDED


def test_oracle_requires_repetitive_receptions():
    # a window list that does not repeat is refused where it is loaded, so
    # the oracle never sees one
    with pytest.raises(ValueError, match="repetitive reception schedule"):
        protocol_from_json(one_shot(listener([(0, 5)], 10)))


def test_oracle_requires_repetitive_beacons():
    # a beacon list that does not repeat is refused where it is built or
    # loaded, so the oracle never sees one
    f = listener([(0, 5)], 10)
    with pytest.raises(ValueError, match="needs a period"):
        e = ProtocolSpec(BeaconSchedule((0, 5), 1, period=None), rec([(0, 1)], 4), IDEAL)
        worst_case_latency_oracle(e, f)
    doc = with_field(protocol_to_json(beaconer([0, 5], 10)), "beacons.period", None)
    with pytest.raises(ValueError, match="needs a period"):
        worst_case_latency_oracle(protocol_from_json(doc), f)


def test_pairwise_latency_counts_wait_to_first_landing_beacon():
    e = beaconer([0], 10)
    f = listener([(0, 21)], 21)
    # in-range right at an emission: that beacon is in flight, next counts
    assert simulate_pair(e, f, phase_e=0, phase_f=0, self_blocking=False)[0] == 10
    assert simulate_pair(e, f, phase_e=9, phase_f=0, self_blocking=False)[0] == 1


# ---------------------------------------------------------------------------
# regression pin: sha256 of repr() of the oracle's answers and refusals on a
# fixed suite, recorded before the endpoints sweep was rewritten, so any
# drift in an answer or in an exception type fails here
# ---------------------------------------------------------------------------

#: A budget under which most generator pairs below, and about half the random
#: pairs, raise HyperperiodTooLarge.
SMALL_BUDGET = 29


def _oracle_pin_pairs():
    rng = random.Random(12)
    pairs = []
    for _ in range(200):
        omega = rng.randrange(1, 4)
        semantics = rng.choice((Semantics.IDEAL, Semantics.CONTAINED))
        e, f = (
            ProtocolSpec(
                random_beacons(rng, omega),
                random_reception(rng),
                RadioModel(omega=omega, semantics=semantics),
            )
            for _ in range(2)
        )
        pairs.append((e, f))
    contained = RadioModel(omega=2, semantics=Semantics.CONTAINED)
    generated = [
        gen_optimal_unidirectional(2, F(1, 10), 1),
        gen_optimal_unidirectional(5, F(1, 8), 2),
        gen_optimal_unidirectional(3, F(1, 6), 2, contained),
        gen_pi0m(3, 10, 1),
        gen_pi0m(5, 20, 2, delta=3),
        gen_disco(2, 3, 4, 1),
        gen_disco(3, 5, 6, 2),
        gen_disco(2, 5, 5, 2, contained),
        gen_searchlight_striped(4, 4, 1),
        gen_searchlight_striped(5, 6, 2),
        gen_uconnect(3, 4, 1),
        gen_uconnect(5, 4, 2),
        gen_diffcode(builtin_difference_set(7), 4, 1),
        gen_diffcode(builtin_difference_set(13), 6, 2),
    ]
    pairs += [(p, p) for p in generated]
    pairs += [(p, q) for p, q in zip(generated, generated[1:])]
    pairs.append((beaconer([0], 7), listener([(0, 1)], 1009)))
    return pairs


def _oracle_outcome(e, f, budget):
    try:
        return worst_case_latency_oracle(e, f, max_hyperperiod=budget)
    except HyperperiodTooLarge as exc:
        return type(exc).__name__, str(exc)


ORACLE_PIN = "35f52cf400939204ad1ed6f8cce516ea011f023157fd52a3f57905c6f5baa6eb"


def test_oracle_answers_are_pinned():
    got = [
        _oracle_outcome(e, f, budget)
        for e, f in _oracle_pin_pairs()
        for budget in (DEFAULT_HYPERPERIOD_BUDGET, SMALL_BUDGET)
    ]
    assert any(isinstance(out, tuple) for out in got)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == ORACLE_PIN


# ---------------------------------------------------------------------------
# endpoints sweep edge cases, each against the per-tick reference
# ---------------------------------------------------------------------------

CONTAINED2 = dict(omega=2, semantics=Semantics.CONTAINED)

#: name -> (transmitter, receiver, worst-case latency[, budget]).  Each
#: pair's sweep meets the named case at least once, or its comment names
#: the entry that does.  A latency of
#: ("overrun", lcm, budget) is a HyperperiodTooLarge refusal.  Unheard
#: offsets are those no beacon has reached yet: they lie in no run.
SWEEP_EDGE_CASES = {
    # at shift 3 the piece [1, 2) starts where the run [0, 1) ends; a piece
    # that ends where a run starts is piece_ends_where_a_heard_run_starts
    "piece_ends_where_a_run_starts": (beaconer([0, 3], 7), listener([(0, 1)], 4), 24),
    # beacon 1 at shift 1 hears [0, 1), which ends where the run [1, 2)
    # heard at beacon 0 starts
    "piece_ends_where_a_heard_run_starts": (beaconer([0, 1], 2), listener([(1, 1)], 2), 2),
    # at shift 7 the piece [3, 5) starts where the run [1, 3) heard at
    # beacon 2 ends
    "piece_starts_where_a_run_ends": (beaconer([0, 1, 4], 6), listener([(0, 2)], 5), 9),
    # at shift 7 the piece [1, 2) is exactly the run heard at beacon 2, just
    # after the run [0, 1), and offset 2 past it is unheard; a piece equal
    # to the gap between two runs is piece_fills_the_gap_between_two_runs
    "covered_gap_equal_to_the_piece": (beaconer([0, 1, 3], 7), listener([(0, 1)], 4), 16),
    # at shift 2 the piece [1, 2) is exactly the gap between the runs
    # [0, 1) and [2, 3), and closes nothing
    "piece_fills_the_gap_between_two_runs": (
        beaconer([0, 1], 2), listener([(0, 1)], 3), 3
    ),
    # at shift 3 the piece [1, 2) is exactly the run heard at beacon 0,
    # between the runs [0, 1) and [2, 3)
    "piece_is_a_run_between_two_runs": (beaconer([0, 1, 2], 3), listener([(1, 1)], 3), 3),
    # at shift 4 the window [3, 5) lands on [6, 8) and splits at t_c = 7
    "piece_wraps_past_the_period": (beaconer([0], 4), listener([(3, 2)], 7), 20),
    "windows_touch_across_the_period": (
        beaconer([0], 3), listener([(0, 2), (6, 2)], 8), 9
    ),
    "full_period_window": (beaconer([0, 2], 5), listener([(0, 6)], 6), 3),
    # a 1-tick window cannot contain a 2-tick beacon and drops out
    "contained_trims_a_window_to_nothing": (
        beaconer([0], 4, omega=2), listener([(0, 1), (4, 3)], 9, **CONTAINED2), 36
    ),
    # below, a heard run holds offsets heard at one of the first m beacons
    # and not since, tagged with that beacon
    # beacon 1 at shift 2 hears [3, 4) inside the run [2, 5) heard at beacon 0
    "heard_piece_splits_a_run": (beaconer([0], 2), listener([(0, 1), (2, 3)], 5), 4),
    # beacon 1 leaves [0, 1) and [2, 3) heard last at beacon 1 and [1, 2) at
    # beacon 0; beacon 2 hears [1, 3), across both tags
    "piece_spans_runs_of_two_beacons": (beaconer([0, 1], 2), listener([(0, 2)], 3), 2),
    # offset 1 is first heard at beacon 1, which then starts its run
    "first_hearing_after_beacon_0": (beaconer([0, 1], 4), listener([(0, 1)], 2), 4),
    # beacon 1 at shift 1 hears [0, 2), across unheard offset 0 and the run
    # [1, 3) heard at beacon 0
    "piece_closes_unheard_and_heard_runs_before_m": (
        beaconer([0, 1], 2), listener([(1, 2)], 3), 2
    ),
    # beacon 2 at shift 2 hears [2, 4), across unheard offset 2 and the run
    # [3, 4) heard at beacon 1, and restarts neither
    "piece_closes_unheard_and_heard_runs_after_m": (
        beaconer([0, 1], 2), listener([(0, 2)], 4), 3
    ),
    # beacon 2 at shift 7 hears [5, 6) and [0, 2) across t_c = 6, and both
    # parts close runs
    "wrapped_piece_closes_runs_at_both_ends": (
        beaconer([0, 2], 7), listener([(0, 3)], 6), 16
    ),
    # offsets [2, 3) are heard at beacon 0 and missed by beacon 1; beacon 0's
    # own scan finishes at shift 1, but the scan from beacon 1 needs shift 2,
    # which a budget of 1 tick does not reach
    "restarted_run_exceeds_the_budget": (
        beaconer([1, 2], 3), listener([(1, 2)], 3), ("overrun", 3, 1), 1
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_EDGE_CASES))
def test_endpoints_sweep_edge_cases_match_the_reference(name):
    e, f, want, *budget = SWEEP_EDGE_CASES[name]
    assert _oracle_or_overrun(e, f, "full", *budget) == want
    assert _oracle_or_overrun(e, f, "endpoints", *budget) == want


def beacon_0_runs(edges):
    """Runs heard at beacon 0 over the edge list ``edges``."""
    return list(edges[::2]), list(edges[1::2]), [0] * (len(edges) // 2)


def test_cut_changes_nothing_where_no_tick_is_uncovered():
    runs = beacon_0_runs([2, 5, 8, 10])
    # ends where a run starts, fills the covered gap between two runs,
    # starts where the last run ends, lies inside a covered gap
    for x, y in ((0, 2), (5, 8), (10, 12), (6, 7)):
        assert _hear(*runs, x, y, None) is None
    assert runs == beacon_0_runs([2, 5, 8, 10])


def test_cut_removes_ticks_and_returns_the_first():
    # closing offsets last heard at beacon 0 returns their tag, 0
    runs = beacon_0_runs([2, 5, 8, 10])
    assert _hear(*runs, 0, 3, None) == 0  # trims a run's start
    assert runs == beacon_0_runs([3, 5, 8, 10])
    assert _hear(*runs, 4, 9, None) == 0  # spans a gap
    assert runs == beacon_0_runs([3, 4, 9, 10])
    assert _hear(*runs, 3, 4, None) == 0  # removes a whole run
    assert runs == beacon_0_runs([9, 10])
    assert _hear(*runs, 0, 20, None) == 0 and runs == beacon_0_runs([])
    runs = beacon_0_runs([0, 10])
    assert _hear(*runs, 4, 6, None) == 0  # splits a run
    assert runs == beacon_0_runs([0, 4, 6, 10])


def test_hear_restarts_the_runs_it_hears_and_returns_the_oldest_tag():
    starts, ends, tags = [], [], []
    assert _hear(starts, ends, tags, 2, 5, 0) is None  # a first hearing
    assert (starts, ends, tags) == ([2], [5], [0])
    assert _hear(starts, ends, tags, 3, 4, 1) == 0  # splits a run in two
    assert (starts, ends, tags) == ([2, 3, 4], [3, 4, 5], [0, 1, 0])
    assert _hear(starts, ends, tags, 0, 2, 2) is None  # ends where a run starts
    assert (starts, ends, tags) == ([0, 2, 3, 4], [2, 3, 4, 5], [2, 0, 1, 0])
    assert _hear(starts, ends, tags, 1, 4, 3) == 0  # trims one run, spans two
    assert (starts, ends, tags) == ([0, 1, 4], [1, 4, 5], [2, 3, 0])


def test_hear_without_a_tag_only_closes_runs():
    starts, ends, tags = [0, 4, 8], [2, 6, 10], [2, 0, 1]
    assert _hear(starts, ends, tags, 2, 4, None) is None  # the gap between runs
    assert (starts, ends, tags) == ([0, 4, 8], [2, 6, 10], [2, 0, 1])
    assert _hear(starts, ends, tags, 8, 9, None) == 1  # trims a run's start
    assert _hear(starts, ends, tags, 4, 5, None) == 0
    assert (starts, ends, tags) == ([0, 5, 9], [2, 6, 10], [2, 0, 1])
    assert _hear(starts, ends, tags, 1, 10, None) == 0  # the oldest of three
    assert (starts, ends, tags) == ([0], [1], [2])
    assert _hear(starts, ends, tags, 0, 3, None) == 2 and starts == ends == tags == []
    starts, ends, tags = [0], [10], [4]
    assert _hear(starts, ends, tags, 4, 6, None) == 4  # splits a run in two
    assert (starts, ends, tags) == ([0, 6], [4, 10], [4, 4])


# ---------------------------------------------------------------------------
# properties over random corpora
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_per_beacon_coverage_equals_window_sum(seed):
    rng = random.Random(seed)
    r = random_reception(rng)
    b = random_beacons(rng)
    cov = build_coverage_map(beaconer(b.emission_times, b.period), receive_only(r))
    for spans in cov.per_beacon:
        assert sum(e - a for a, e in spans) == r.listen_ticks


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_latency_periodic_in_reception_period(seed):
    rng = random.Random(seed)
    r = random_reception(rng)
    b = random_beacons(rng)
    phi = rng.randrange(r.period)
    a = absolute_first_hit(b.emission_times, r, phi)
    b2 = absolute_first_hit(b.emission_times, r, phi + r.period)
    assert a == b2
    cov = build_coverage_map(beaconer(b.emission_times, b.period), receive_only(r))
    assert first_landing(cov, b.emission_times, phi) == a


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9))
def test_coverage_trichotomy(seed):
    rng = random.Random(seed)
    r = random_reception(rng)
    b = random_beacons(rng)
    rep = analyze(build_coverage_map(beaconer(b.emission_times, b.period), receive_only(r)))
    if rep.coverage_lambda < r.period:
        assert not rep.deterministic
    if not rep.redundant and rep.coverage_lambda == r.period:
        assert rep.deterministic
    # independent reference: count the beacons that cover each tick
    t0 = b.emission_times[0]
    mult = [
        sum(any(a <= (phi + tau - t0) % r.period < e for a, e in r.spans())
            for tau in b.emission_times)
        for phi in range(r.period)
    ]
    assert rep.coverage_lambda == sum(mult)
    assert rep.deterministic == all(m > 0 for m in mult)
    assert rep.redundant == any(m > 1 for m in mult)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9))
def test_oracle_paths_agree(seed):
    rng = random.Random(seed)
    e = random_protocol(rng)
    f = random_protocol(rng)
    full = worst_case_latency_oracle(e, f, method="full")
    ends = worst_case_latency_oracle(e, f, method="endpoints")
    assert full == ends


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_oracle_equals_the_per_tick_max_gap(seed):
    rng = random.Random(seed)
    omega = rng.randrange(1, 3)
    radio = RadioModel(omega=omega, semantics=rng.choice(list(Semantics)))
    f = ProtocolSpec(random_beacons(rng, omega), random_reception(rng), radio)
    beacons = random_beacons(rng, omega)
    t_c = f.receptions.period
    if rng.random() < 0.5:  # t_b == t_c, as in the slotted protocols
        slots = range(0, t_c - omega + 1, 2 * omega)
        times = sorted(rng.sample(slots, min(len(slots), rng.randrange(1, 4))))
        beacons = BeaconSchedule(tuple(times), omega, period=t_c)
    e = ProtocolSpec(beacons, random_reception(rng), radio)
    got = worst_case_latency_oracle(e, f)
    want = per_tick_max_gap(e, f)
    assert got == want


def test_a_pair_that_never_discovers_answers_none_in_every_engine():
    # beacons 10 ticks apart against 5 of 20 ticks: offsets 5 to 9 hear
    # neither beacon, and the oracle says so as the replays do, with None
    e, f = beaconer([0], 10), listener([(0, 5)], 20)
    assert UNBOUNDED is None
    for method in ("full", "endpoints"):
        assert worst_case_latency_oracle(e, f, method=method) is None
    assert exhaustive_pair_worst_case(e, f) is None
    assert per_tick_max_gap(e, f) is None
    assert three_gap_worst_case(e, f) is None


def _one_beacon_one_arc(rng: random.Random, t_max: int):
    """A transmitter with one beacon per period and a receiver whose heard
    ticks form one arc: under IDEAL the arc may wrap past the period and
    each piece may be cut into two touching windows; under CONTAINED,
    which trims every window, it is one window."""
    omega = rng.randrange(1, 4)
    semantics = rng.choice(list(Semantics))
    t_b = rng.randrange(omega + 1, t_max)
    e = beaconer([rng.randrange(t_b)], t_b, omega=omega)
    t_c = rng.randrange(2, t_max)
    a, d = rng.randrange(t_c), rng.randrange(1, t_c + 1)
    if semantics is Semantics.CONTAINED:
        spans = [(a, min(a + d, t_c))]
    else:
        spans = []
        for x, y in [(0, a + d - t_c), (a, t_c)] if a + d > t_c else [(a, a + d)]:
            cut = rng.randrange(x, y + 1)
            spans += [s for s in ((x, cut), (cut, y)) if s[0] < s[1]]
    return e, listener([(x, y - x) for x, y in spans], t_c, omega=omega, semantics=semantics)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**9))
def test_oracle_equals_the_three_gap_reference(seed):
    # an uncoverable pair compares as None == None
    e, f = _one_beacon_one_arc(random.Random(seed), 81)
    assert worst_case_latency_oracle(e, f) == three_gap_worst_case(e, f)


def test_three_gap_reference_answers_the_fragmenting_pair():
    # 7 and 20011 are coprime and the window is one tick, so the beacons
    # must pass every one of the 20011 offsets: no lcm, no sweep
    e, f = beaconer([0], 7), listener([(0, 1)], 20011)
    assert three_gap_worst_case(e, f) == worst_case_latency_oracle(e, f) == 140077


def test_every_small_pair_agrees_with_the_references():
    # every pair of the small-scope space up to period 6, each compared with
    # the per-tick reference and, with one beacon and one window, with the
    # three-gap one, and every discovering one checked against the one-way
    # bound; CI runs the same check up to period 8.  The counts keep the
    # space from shrinking unnoticed: (pairs, UNBOUNDED ones, one-beacon
    # one-window ones, ones whose latency equals bound_unidirectional)
    assert small_scope_agreement(6) == (20202, 10421, 4400, 3619)


def _scaled(p: ProtocolSpec, k: int) -> ProtocolSpec:
    """``p`` with every time field multiplied by ``k``."""
    b, r, radio = p.beacons, p.receptions, p.radio
    return ProtocolSpec(
        BeaconSchedule(
            tuple(k * t for t in b.emission_times), k * b.beacon_duration, k * b.period
        ),
        ReceptionSchedule(
            tuple(ReceptionWindow(k * w.start, k * w.duration) for w in r.windows),
            k * r.period,
        ),
        replace(
            radio,
            omega=k * radio.omega,
            d_oTx=k * radio.d_oTx,
            d_oRx=k * radio.d_oRx,
            d_oTxRx=k * radio.d_oTxRx,
            d_oRxTx=k * radio.d_oRxTx,
        ),
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_refining_the_tick_scales_latencies_exactly(seed):
    # the oracle counts a beacon starting at the in-range instant as in
    # flight, so its discrete maximum is the continuous-time supremum and a
    # k times finer tick grid must give exactly k times the answer
    rng = random.Random(seed)
    omega = rng.randrange(1, 4)
    e, f = (
        ProtocolSpec(
            random_beacons(rng, omega),
            random_reception(rng),
            RadioModel(
                omega=omega,
                d_oTxRx=rng.randrange(3),
                d_oRxTx=rng.randrange(3),
                semantics=rng.choice(list(Semantics)),
            ),
        )
        for _ in range(2)
    )
    base = worst_case_latency_oracle(e, f)
    for k in (2, 3, 5):
        got = worst_case_latency_oracle(_scaled(e, k), _scaled(f, k))
        assert got == (None if base is None else k * base)
    k = rng.choice((2, 3, 5))
    ek, fk = _scaled(e, k), _scaled(f, k)
    for _ in range(2):
        pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
        want = tuple(None if x is None else k * x for x in simulate_pair(e, f, pe, pf))
        assert simulate_pair(ek, fk, k * pe, k * pf) == want


def test_nonrepetitive_map_has_no_wraparound():
    # a window list that does not repeat is refused where it is loaded ...
    with pytest.raises(ValueError, match="repetitive reception schedule"):
        protocol_from_json(one_shot(listener([(0, 2), (6, 2)], 12)))
    # ... so every map wraps: the second beacon's image comes round the end
    cov = build_coverage_map(beaconer([0, 8], 12), listener([(0, 2), (6, 2)], 12))
    assert cov.per_beacon[0] == ((0, 2), (6, 8))
    assert cov.per_beacon[1] == ((4, 6), (10, 12))


# ---------------------------------------------------------------------------
# correlated quadruples
# ---------------------------------------------------------------------------

def quad_device(times, windows, period):
    return ProtocolSpec(
        BeaconSchedule(tuple(times), 1, period=period),
        rec(windows, period),
        IDEAL,
    )


def test_quadruple_half_coverage_per_device():
    # each side contributes 6 of 10 ticks; union covers everything with
    # half the plain minimum beacon count on each device
    p = quad_device([0, 5], [(0, 3)], 10)
    rep = check_correlated_quadruple(p, p)
    assert rep.deterministic
    assert rep.min_beacons == 4 and p.beacons.count == 2
    assert rep.coverage_lambda == 12
    assert rep.redundant  # the 1-tick grid cannot split 10 ticks losslessly


def test_quadruple_zeta_zero_sides_are_reflections():
    p = quad_device([3], [(0, 3)], 10)  # beacon right at the window end
    from_f, from_e = _quadruple_images(p, p)
    side_f, side_e = iv.union(*from_f), iv.union(*from_e)
    reflected = {(-t) % 10 for a, b in side_f for t in range(a, b)}
    as_ticks = {t for a, b in side_e for t in range(a, b)}
    assert as_ticks == reflected
    assert check_correlated_quadruple(p, p).uncovered == iv.complement(iv.union(side_f, side_e), 10)


def test_quadruple_same_half_twice_not_deterministic():
    p = quad_device([0, 2], [(0, 3)], 10)
    rep = check_correlated_quadruple(p, p)
    assert not rep.deterministic
    assert rep.uncovered == ((3, 8),)


def test_quadruple_min_beacons_does_not_depend_on_argument_order():
    # one side's effective window sum is 1 tick, the other's 9: a beacon of
    # either device covers at most 9 of the 10 alignments
    narrow = quad_device([0], [(0, 1)], 10)
    wide = quad_device([9], [(0, 9)], 10)
    for e, f in ((narrow, wide), (wide, narrow)):
        assert check_correlated_quadruple(e, f).min_beacons == 2


def test_quadruple_period_mismatch_rejected():
    p = quad_device([0, 5], [(0, 3)], 10)
    q = quad_device([0, 5], [(0, 3)], 12)
    with pytest.raises(MisalignedPeriods):
        check_correlated_quadruple(p, q)
    # equal reception periods do not hide a beacon period of its own
    r = replace(p, beacons=BeaconSchedule((0, 5), 1, period=12))
    for e, f in ((p, r), (r, p)):
        with pytest.raises(MisalignedPeriods):
            check_correlated_quadruple(e, f)


def never_discovering_alignments(e, f):
    """The alignments theta in [0, t) at which neither device of the pair
    ever hears the other, replayed with f's period origin at theta in e's
    period: the brute-force reference of check_correlated_quadruple."""
    t = e.receptions.period
    return [
        theta for theta in range(t)
        if simulate_pair(e, f, theta, 0, self_blocking=False) == (None, None)
    ]


def test_quadruple_zeta_anchor_validated():
    # f's beacons sit one tick later than e's, so no beacon of either keeps
    # the same distance behind a window end as one of the other: no shared
    # anchor is needed for an answer
    e = quad_device([0, 5], [(0, 3)], 10)
    f = quad_device([1, 6], [(0, 3)], 10)
    rep = check_correlated_quadruple(e, f)
    assert rep.uncovered == ((2, 3), (7, 8))
    assert [2, 7] == never_discovering_alignments(e, f)


@st.composite
def one_period_device(draw, t):
    """A device with 1-2 beacons and 1-2 windows that all repeat every t."""
    omega = draw(st.integers(1, 3))
    times = draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=2, unique=True))
    try:
        beacons = BeaconSchedule(tuple(sorted(times)), omega, period=t)
    except ValueError:  # two beacons closer than omega, either way round
        beacons = BeaconSchedule((times[0],), omega, period=t)
    n = draw(st.integers(1, 2))
    edges = sorted(draw(st.lists(st.integers(0, t), min_size=2 * n, max_size=2 * n, unique=True)))
    windows = rec([(a, b - a) for a, b in zip(edges[::2], edges[1::2])], t)
    semantics = draw(st.sampled_from(Semantics))
    return ProtocolSpec(beacons, windows, RadioModel(omega=omega, semantics=semantics))


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 29).flatmap(lambda t: st.tuples(one_period_device(t), one_period_device(t))))
def test_quadruple_uncovered_is_every_never_discovering_alignment(pair):
    e, f = pair
    rep = check_correlated_quadruple(e, f)
    uncovered = [x for a, b in rep.uncovered for x in range(a, b)]
    assert uncovered == never_discovering_alignments(e, f)
    assert rep.deterministic == (not uncovered)


def test_oracle_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown oracle method"):
        worst_case_latency_oracle(beaconer([0], 10), listener([(0, 5)], 10), method="bogus")
    # refused before anything else, also where no sweep would run: a silent
    # transmitter, and a receiver with no effective window
    silent = listener([(0, 5)], 10)
    deaf = listener([(4, 2)], 20, omega=2, semantics=Semantics.CONTAINED)
    for e, f in ((silent, silent), (beaconer([0], 10, omega=2), deaf)):
        assert worst_case_latency_oracle(e, f) is UNBOUNDED
        for budget in (DEFAULT_HYPERPERIOD_BUDGET, -1):
            with pytest.raises(ValueError, match="unknown oracle method"):
                worst_case_latency_oracle(e, f, method="bogus", max_hyperperiod=budget)


def test_oracle_refuses_devices_that_disagree_on_tick_size():
    p = gen_pi0m(3, 100, 1)
    fine = replace(p, tick=TimeBase(500))
    for e, f in ((p, fine), (fine, p), (listener([(0, 5)], 10), fine)):  # also where no sweep runs
        for method in ("full", "endpoints"):
            with pytest.raises(ValueError, match="tick size"):
                worst_case_latency_oracle(e, f, method=method)
    assert worst_case_latency_oracle(fine, fine) == worst_case_latency_oracle(p, p)


def test_pairwise_latency_is_none_without_a_beacon_or_an_effective_window():
    # a 2-tick beacon never fits the 2-tick window whole under CONTAINED
    e = beaconer([0], 10, omega=2)
    f = listener([(0, 2)], 10, omega=2, semantics=Semantics.CONTAINED)
    assert simulate_pair(e, f, 0, 3, self_blocking=False)[0] is None
    silent = listener([(0, 5)], 10)
    assert simulate_pair(silent, silent, 0, 3, self_blocking=False) == (None, None)


def test_quadruple_refuses_a_device_without_beacons():
    p = quad_device([0, 5], [(0, 3)], 10)
    silent = ProtocolSpec(BeaconSchedule((), 1, period=10), rec([(0, 3)], 10), IDEAL)
    with pytest.raises(ValueError, match="device f has no beacons"):
        check_correlated_quadruple(p, silent)
