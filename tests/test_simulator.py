import errno
import hashlib
import os
import random
import threading
from fractions import Fraction as F
from itertools import product
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ndlab import (
    BeaconSchedule,
    DomainError,
    OffsetSampling,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    SimConfig,
    exhaustive_pair_worst_case,
    measured_blocked_fraction,
    pairwise_latency,
    protocol_from_json,
    self_blocking_probability,
    simulate_multi,
    simulate_pair,
    worst_case_latency_oracle,
)
from ndlab import simulator
from ndlab.protocols import gen_disco
from ndlab.simulator import _MIN_RANGE_TRIALS, _CompiledDevice, _derive_seed, _draw_phases
from helpers import (
    _beacon_starts,
    beaconer,
    c7_devices,
    listener,
    one_shot,
    per_tick_pair,
    per_tick_trial,
    random_beacons,
    random_protocol,
    random_reception,
)


def optimal_pair():
    """Transmitter-only and receiver-only halves of an optimal one-way
    protocol: gamma=1/4, beta=1/20, omega=1."""
    e = beaconer([0, 20, 40, 60], 80)
    f = listener([(0, 20)], 80)
    return e, f


def test_pair_agrees_with_coverage_engine_pointwise():
    e, f = optimal_pair()
    rng = random.Random(3)
    for _ in range(300):
        pe = rng.randrange(e.device_period)
        pf = rng.randrange(f.device_period)
        lat, back = simulate_pair(e, f, pe, pf, self_blocking=False)
        assert lat == pairwise_latency(e, f, pe, pf)
        assert back is None  # f never transmits


def test_exhaustive_worst_case_equals_oracle():
    e, f = optimal_pair()
    assert exhaustive_pair_worst_case(e, f) == worst_case_latency_oracle(e, f) == 80


def test_exhaustive_mode_in_simulate_multi_matches_oracle():
    e, f = optimal_pair()
    cfg = SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS, horizon=400)
    out = simulate_multi(cfg)
    assert max(out.latencies) == worst_case_latency_oracle(e, f)
    assert all(lat is not None for lat in out.latencies)


def test_phase_lands_first_beacon_in_window():
    e = beaconer([0], 10)
    f = listener([(0, 21)], 21)
    lat, _ = simulate_pair(e, f, 9, 0)
    assert lat == 1


def test_self_blocking_loses_overlapped_beacon():
    # one device both listens always and beacons every 10; a remote beacon
    # that lands exactly on its own transmission tick is lost
    both = ProtocolSpec(
        BeaconSchedule((0,), 1, period=10),
        ReceptionSchedule((ReceptionWindow(0, 10),), 10),
        RadioModel(omega=1),
    )
    tx = beaconer([0], 10)
    blocked, _ = simulate_pair(tx, both, phase_e=0, phase_f=0, self_blocking=True)
    free, _ = simulate_pair(tx, both, phase_e=0, phase_f=0, self_blocking=False)
    # phases align the remote beacon with the local one: 10, 20, ... all hit
    # local transmissions, so blocking defers discovery forever
    assert free == 10
    assert blocked is None


def test_seeded_runs_are_identical():
    e, f = optimal_pair()
    cfg = SimConfig((e, f), trials=500, seed=99, horizon=400)
    a = simulate_multi(cfg)
    b = simulate_multi(cfg)
    assert a == b
    c = simulate_multi(SimConfig((e, f), trials=500, seed=100, horizon=400))
    assert c != a


def fake_cpus(monkeypatch, k: int, fork=None) -> tuple[list, list]:
    """Report k CPUs to simulate_multi, record the CPU sets it pins itself
    to instead of pinning, and count its fork() calls, which go to ``fork``
    (the real one by default).  Returns (forks, pins)."""
    forks, pins = [], []
    fork = fork or os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks, pins


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: Enough trials for three ranges on three CPUs.
SPLIT_TRIALS = 3 * _MIN_RANGE_TRIALS + 7


def test_thread_count_does_not_change_results(monkeypatch):
    # ND_LAB_THREADS once chose a thread pool size; a stale setting must
    # still leave a seeded run unchanged
    e, f = optimal_pair()
    cfg = SimConfig((e, f), trials=300, seed=5, horizon=400)
    serial = simulate_multi(cfg)
    monkeypatch.setenv("ND_LAB_THREADS", "4")
    assert simulate_multi(cfg) == serial
    # the trials split over every CPU, one forked child per CPU after the
    # first, and the outcome never depends on how many there are
    big = SimConfig((e, f), trials=SPLIT_TRIALS, seed=5, horizon=400)
    outcomes = []
    for k in (1, 2, 3):
        forks, pins = fake_cpus(monkeypatch, k)
        outcomes.append(simulate_multi(big))
        assert len(forks) == k - 1
        # each child is forked onto a CPU of its own; the caller then moves
        # to the first and takes every CPU back before it plays its range
        every = set(range(k))
        assert pins == ([{j} for j in range(1, k)] + [{0}, every, every] if k > 1 else [])
        assert_no_child_left()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0].phases[:300] == serial.phases


def test_cpu_count_does_not_change_exhaustive_outcomes(monkeypatch):
    cfg = PINNED_CONFIGS["exhaustive_disco"]()
    assert cfg.devices[0].device_period * cfg.devices[1].device_period >= 3 * _MIN_RANGE_TRIALS
    for k in (1, 2, 3):
        forks, _ = fake_cpus(monkeypatch, k)
        assert _digest(simulate_multi(cfg)) == PINNED_OUTCOMES["exhaustive_disco"]
        assert len(forks) == k - 1
        assert_no_child_left()


@pytest.mark.parametrize("working_forks", [0, 1])
def test_failed_fork_plays_the_range_in_the_caller(monkeypatch, working_forks):
    e, f = optimal_pair()
    cfg = SimConfig((e, f), trials=SPLIT_TRIALS, seed=8, horizon=400)
    serial = simulate_multi(cfg)
    real_fork = os.fork

    def fork():
        if len(forks) > working_forks:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    forks, _ = fake_cpus(monkeypatch, 3, fork)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


def _runner_failing_in(monkeypatch, where, fail):
    """Make every trial call ``fail()`` in the processes ``where`` picks:
    the caller ("parent") or a forked child ("child")."""
    parent = os.getpid()
    real = simulator._trial_runner

    def runner(*args):
        run = real(*args)

        def trial(*phases):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return run(*phases)

        return trial

    monkeypatch.setattr(simulator, "_trial_runner", runner)


def _split_configs():
    e, f = optimal_pair()
    return [
        SimConfig((e, f), trials=SPLIT_TRIALS, seed=4, horizon=400),
        SimConfig((gen_disco(3, 5, 4, 1),) * 2, offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS),
    ]


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_exception_is_raised_by_the_caller(monkeypatch, cfg):
    def fail():
        raise RuntimeError("trial failed in a child")

    _runner_failing_in(monkeypatch, "child", fail)
    forks, _ = fake_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="trial failed in a child"):
        simulate_multi(cfg)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_that_sends_nothing_has_its_range_played_by_the_caller(monkeypatch, cfg):
    serial = simulate_multi(cfg)
    _runner_failing_in(monkeypatch, "child", lambda: os._exit(3))
    forks, _ = fake_cpus(monkeypatch, 3)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_caller_exception_stops_and_reaps_the_children(monkeypatch):
    def fail():
        raise RuntimeError("trial failed in the caller")

    _runner_failing_in(monkeypatch, "parent", fail)
    forks, pins = fake_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="trial failed in the caller"):
        simulate_multi(_split_configs()[0])
    assert len(forks) == 2
    assert pins[-1] == {0, 1, 2}
    assert_no_child_left()


def test_another_live_thread_keeps_every_trial_in_the_caller(monkeypatch):
    cfg = _split_configs()[0]
    serial = simulate_multi(cfg)
    forks, _ = fake_cpus(monkeypatch, 3)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert simulate_multi(cfg) == serial
    finally:
        stop.set()
        waiter.join()
    assert forks == []


def test_single_sender_never_collides():
    e, f = optimal_pair()
    out = simulate_multi(SimConfig((e, f), trials=200, seed=1, horizon=400))
    assert not any(out.first_beacon_collided)
    assert out.first_collision_rate == 0


def test_failure_rate_counts_budget_misses():
    e, f = optimal_pair()
    bound = worst_case_latency_oracle(e, f)
    out = simulate_multi(
        SimConfig((e, f), trials=300, seed=2, horizon=400, latency_budget=bound)
    )
    assert out.failure_rate == 0  # deterministic pair always meets its bound
    tight = simulate_multi(
        SimConfig((e, f), trials=300, seed=2, horizon=400, latency_budget=bound // 4)
    )
    assert tight.failure_rate > 0


def test_disjoint_protocol_fails_iff_covering_beacon_collides():
    # joiner + receiver + one interferer at matching rates
    e, f = optimal_pair()
    interferer = beaconer([3], 80)
    bound = worst_case_latency_oracle(e, f)
    out = simulate_multi(
        SimConfig((e, f, interferer), trials=2000, seed=7, horizon=800, latency_budget=bound)
    )
    saw_collision = False
    for covered_hit, failed in zip(out.covering_beacon_collided, out.failed):
        if covered_hit:
            saw_collision = True
            assert failed
    assert saw_collision


def test_blocked_fraction_zero_turnarounds_equals_beta():
    p = ProtocolSpec(
        BeaconSchedule((0,), 32, period=3200),
        ReceptionSchedule((ReceptionWindow(0, 3200),), 3200),
        RadioModel(omega=32),
    )
    assert self_blocking_probability(p) == F(1, 100)
    assert measured_blocked_fraction(p) == F(1, 100)


def test_blocked_fraction_with_turnarounds():
    radio = RadioModel(omega=32, d_oTxRx=140, d_oRxTx=140)
    p = ProtocolSpec(
        BeaconSchedule((0,), 32, period=3200),
        ReceptionSchedule((ReceptionWindow(0, 3200),), 3200),
        radio,
    )
    assert self_blocking_probability(p) == F(39, 400)  # 0.0975
    assert measured_blocked_fraction(p) == F(39, 400)


def test_blocked_fraction_equals_a_per_tick_count():
    # several beacons per period, turnarounds on both sides, and blocked
    # spans that run past either end of the device period
    rng = random.Random(17)
    wrapped = several = 0
    for _ in range(200):
        omega = rng.randrange(1, 4)
        r = RadioModel(omega=omega, d_oTxRx=rng.randrange(6), d_oRxTx=rng.randrange(6))
        p = ProtocolSpec(random_beacons(rng, omega), random_reception(rng), r)
        period, t_b, t_c = p.device_period, p.beacons.period, p.receptions.period
        listening = {x for x in range(period) for a, b in p.receptions.spans() if a <= x % t_c < b}
        blocked = set()
        for s in (tau + k * t_b for k in range(period // t_b) for tau in p.beacons.emission_times):
            span = range(s - r.d_oRxTx, s + omega + r.d_oTxRx)
            wrapped += span.start < 0 or span.stop > period
            blocked.update(x % period for x in span)
        several += p.beacons.count > 1
        assert measured_blocked_fraction(p) == F(len(listening & blocked), len(listening))
    assert wrapped and several


def test_blocked_fraction_silent_device_is_zero():
    p = listener([(0, 10)], 10)
    assert self_blocking_probability(p) == 0


def test_blocked_span_full_for_all_three_overlap_positions():
    # when reception tiles the whole period, an own beacon costs exactly
    # turnaround + beacon + turnaround of scan time wherever it falls:
    # mid-window, right at a window boundary, or near the period edge where
    # the blocked span wraps into the adjacent window
    radio = RadioModel(omega=32, d_oTxRx=140, d_oRxTx=140)
    span = 140 + 140 + 32
    for tau in (1600, 0, 3199 - 32):
        p = ProtocolSpec(
            BeaconSchedule((tau,), 32, period=3200),
            ReceptionSchedule((ReceptionWindow(0, 1600), ReceptionWindow(1600, 1600)), 3200),
            radio,
        )
        assert measured_blocked_fraction(p) == F(span, 3200)


def _one_shot_pair():
    return beaconer([0], 7), protocol_from_json(one_shot(listener([(0, 2)], 10)))


@pytest.mark.parametrize(
    "replay",
    [
        lambda e, f: simulate_pair(e, f, 0, 1),
        lambda e, f: simulate_pair(f, e, 1, 0),
        lambda e, f: exhaustive_pair_worst_case(e, f),
        lambda e, f: simulate_multi(SimConfig((e, f), trials=3)),
    ],
    ids=["simulate_pair", "simulate_pair_reverse", "exhaustive", "simulate_multi"],
)
def test_simulator_refuses_one_shot_reception_schedule(replay):
    # the loader refuses the window list, so no replay ever sees it
    with pytest.raises(ValueError, match="repetitive reception schedule"):
        replay(*_one_shot_pair())


def test_blocked_fraction_refuses_one_shot_reception_schedule():
    p = ProtocolSpec(
        BeaconSchedule((0,), 1, period=10),
        ReceptionSchedule((ReceptionWindow(0, 5),), 10),
        RadioModel(omega=1),
    )
    with pytest.raises(ValueError, match="repetitive reception schedule"):
        measured_blocked_fraction(protocol_from_json(one_shot(p)))


def test_self_blocking_needs_reciprocal_gamma():
    p = ProtocolSpec(
        BeaconSchedule((0,), 1, period=10),
        ReceptionSchedule((ReceptionWindow(0, 3),), 10),
        RadioModel(omega=1),
    )
    with pytest.raises(DomainError):
        self_blocking_probability(p)


def test_simconfig_validation():
    e, f = optimal_pair()
    with pytest.raises(ValueError):
        SimConfig((e,))
    with pytest.raises(ValueError):
        SimConfig((e, f), trials=0)
    with pytest.raises(ValueError):
        SimConfig((e, f), horizon=10)
    # every latency is at least one tick, so such a budget fails every trial
    for budget in (-3, 0):
        with pytest.raises(ValueError, match="latency_budget"):
            SimConfig((e, f), latency_budget=budget)
    assert SimConfig((e, f), latency_budget=1).latency_budget == 1


def test_random_protocol_pair_engines_agree():
    rng = random.Random(123)
    for _ in range(60):
        e, f = random_protocol(rng), random_protocol(rng)
        pe = rng.randrange(e.device_period)
        pf = rng.randrange(f.device_period)
        want = pairwise_latency(e, f, pe, pf)
        got, _ = simulate_pair(e, f, pe, pf, self_blocking=False)
        assert got == want


# ---------------------------------------------------------------------------
# regression pins: sha256 of repr() of each result, recorded before the
# simulator core was rewritten, so any drift in outcomes fails here; the
# random configs, pair replays and exhaustive worst cases were re-recorded
# once a receiver with a finite beacon list deafened itself, with every
# changed entry equal to a per-tick reference
# ---------------------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _contained_devices():
    """Mixed beacon lengths under CONTAINED semantics with turnarounds; the
    receiver's blocked span wraps and one of its windows is shorter than
    the joiner's beacon."""
    joiner = ProtocolSpec(
        BeaconSchedule((0, 37), 8, period=90),
        ReceptionSchedule((ReceptionWindow(20, 30),), 60),
        RadioModel(omega=8, d_oTxRx=3, d_oRxTx=5, semantics=Semantics.CONTAINED),
    )
    receiver = ProtocolSpec(
        BeaconSchedule((2, 52), 5, period=100),
        ReceptionSchedule(
            (ReceptionWindow(0, 26), ReceptionWindow(40, 50), ReceptionWindow(93, 5)), 100
        ),
        RadioModel(omega=5, d_oTxRx=6, d_oRxTx=4, semantics=Semantics.CONTAINED),
    )
    interferer = ProtocolSpec(
        BeaconSchedule((10,), 3, period=45),
        ReceptionSchedule((ReceptionWindow(0, 1),), 45),
        RadioModel(omega=3),
    )
    return joiner, receiver, interferer


def _non_repetitive_devices():
    joiner = ProtocolSpec(
        BeaconSchedule((3, 40, 95, 170, 260), 2, period=None),
        ReceptionSchedule((ReceptionWindow(0, 10),), 50),
        RadioModel(omega=2),
    )
    receiver = listener([(0, 15), (30, 10)], 45, omega=2)
    one_shot = ProtocolSpec(
        BeaconSchedule((7, 70, 133), 2, period=None),
        ReceptionSchedule((ReceptionWindow(0, 3),), 30),
        RadioModel(omega=2),
    )
    return joiner, receiver, one_shot, beaconer([5], 33, omega=2)


def _send_and_listen_pair():
    e = beaconer([0, 7], 12, omega=2)
    f = ProtocolSpec(
        BeaconSchedule((1,), 2, period=9),
        ReceptionSchedule((ReceptionWindow(0, 4), ReceptionWindow(6, 3)), 9),
        RadioModel(omega=2, d_oTxRx=1, d_oRxTx=1),
    )
    return e, f


def _random_device(rng: random.Random) -> ProtocolSpec:
    omega = rng.randrange(1, 4)
    radio = RadioModel(
        omega=omega,
        d_oTxRx=rng.randrange(4),
        d_oRxTx=rng.randrange(4),
        semantics=rng.choice((Semantics.IDEAL, Semantics.CONTAINED)),
    )
    while True:
        repetitive = rng.random() < 0.8
        t_b = rng.randrange(2 * omega + 2, 40)
        times = sorted(rng.sample(range(t_b if repetitive else 60), rng.randrange(3)))
        try:
            beacons = BeaconSchedule(tuple(times), omega, t_b if repetitive else None)
            return ProtocolSpec(beacons, random_reception(rng), radio)
        except ValueError:
            continue


def _random_configs():
    rng = random.Random(77)
    out = []
    for i in range(30):
        devices = tuple(_random_device(rng) for _ in range(rng.randrange(2, 5)))
        base = max(d.device_period for d in devices)
        horizon = rng.choice((None, base, 3 * base))
        budget = rng.choice((None, base // 2))
        out.append(SimConfig(devices, trials=40, seed=i, horizon=horizon, latency_budget=budget))
    return out


PINNED_CONFIGS = {
    "c7_S2": lambda: SimConfig(c7_devices(2), trials=300, seed=42, horizon=200_000),
    "c7_S5": lambda: SimConfig(c7_devices(5), trials=300, seed=42, horizon=200_000),
    "c7_S10": lambda: SimConfig(c7_devices(10), trials=300, seed=42, horizon=200_000),
    "disco_x3": lambda: SimConfig((gen_disco(3, 5, 100, 10),) * 3, trials=300, seed=11),
    "contained_turnarounds": lambda: SimConfig(
        _contained_devices(), trials=400, seed=3, horizon=2000
    ),
    "non_repetitive": lambda: SimConfig(
        _non_repetitive_devices(), trials=400, seed=5, horizon=300
    ),
    "budget_fails": lambda: SimConfig(
        optimal_pair() + (beaconer([3], 80),), trials=400, seed=2, horizon=800,
        latency_budget=20,
    ),
    "exhaustive_self_blocking": lambda: SimConfig(
        _send_and_listen_pair(), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS,
        latency_budget=20,
    ),
    "exhaustive_disco": lambda: SimConfig(
        (gen_disco(3, 5, 4, 1),) * 2, offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS,
    ),
}

PINNED_OUTCOMES = {
    "budget_fails": "e6d1445749d64d91b2449d115a77eafeae05308773e78bf30e82aa9161e8f897",
    "c7_S10": "15f373161ec0167ba334c496024205aa9b40a5fb88e94da6a08a85b5258da4c7",
    "c7_S2": "2958190bae0a11533b646c2742ce63fc6daf7b3d36e135c9aabe236f89f41ec8",
    "c7_S5": "f04c38b02070c9bf1fb8b3cdaca4b8c3d1a52ac2aa2574efb5a423ce74fcce0c",
    "contained_turnarounds": "6fbace2de32d91f36fd9c03188eb6d0911aada0cf3eac951cef0cb90e5d0118d",
    "disco_x3": "fa21e00562f18fbfe1ae4caaee36c88bc1ff082fd572219129b867d10b29156f",
    "exhaustive_disco": "5a9ff17c405bc18bdad37127cecc0caab19f427f426b61945cf4ec840726a6e3",
    "exhaustive_self_blocking": "651b4f7a83109c8bb6ddcdd4a44f5e8b8542f018f939e83df0680bd5b310ff40",
    "non_repetitive": "5563277fe3552c9a59f6cd827b087f01968b968e160bdb03dd9d1ec8d98d2b25",
    "random_configs": "5d46aa83a7302ce7c8e3a692d79e22f9da7198b1bae8fc629ca3c61e21c34070",
    "simulate_pair": "f38395029d7d3b267737c364f1530dea504bea7ee1b0c63dc596438d00724e90",
    "exhaustive_pair_worst_case": "f427b9a25531b4a3329ea4421eae811c713a24c386d666b9366df52686c36fd0",
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_outcome_digest_is_pinned(name):
    assert _digest(simulate_multi(PINNED_CONFIGS[name]())) == PINNED_OUTCOMES[name]


def test_random_config_outcomes_are_pinned():
    outcomes = tuple(simulate_multi(cfg) for cfg in _random_configs())
    assert _digest(outcomes) == PINNED_OUTCOMES["random_configs"]


def _pinned_pairs():
    rng = random.Random(9)
    pairs = [optimal_pair(), (gen_disco(3, 5, 4, 1),) * 2, _send_and_listen_pair(),
             _contained_devices()[:2]]
    pairs += [(random_protocol(rng), _random_device(rng)) for _ in range(20)]
    return pairs


def test_pair_replays_are_pinned():
    rng = random.Random(4)
    got = []
    for e, f in _pinned_pairs():
        for self_blocking in (False, True):
            for _ in range(25):
                pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
                got.append(simulate_pair(e, f, pe, pf, self_blocking=self_blocking))
    assert _digest(got) == PINNED_OUTCOMES["simulate_pair"]


def test_exhaustive_pair_worst_cases_are_pinned():
    got = [
        exhaustive_pair_worst_case(e, f, self_blocking=self_blocking)
        for e, f in _pinned_pairs()
        for self_blocking in (False, True)
    ]
    assert _digest(got) == PINNED_OUTCOMES["exhaustive_pair_worst_case"]


# ---------------------------------------------------------------------------
# phase sampling and the one-cycle stop
# ---------------------------------------------------------------------------

SAMPLER_PERIODS = (1, 2, 3, 255, 256, 257, 1500, 20000)


def test_phase_sampler_matches_stdlib_randrange():
    rng = random.Random()
    for seed in range(4):
        for trial in range(50):
            s = _derive_seed(seed, trial)
            for p in SAMPLER_PERIODS:
                assert _draw_phases(rng, s, (p,)) == (random.Random(s).randrange(p),)
            want = random.Random(s)
            assert _draw_phases(rng, s, SAMPLER_PERIODS) == tuple(
                want.randrange(p) for p in SAMPLER_PERIODS
            )


def test_cycle_cut_makes_a_long_horizon_free():
    # emissions every 12 ticks meet the 18-tick reception period in only
    # one residue class mod 6, so half the phase pairs never discover; an
    # uncut scan would check about 10**9 / 12 emissions for each of them
    e, f = beaconer([0], 12), listener([(0, 3)], 18)
    cycle = lcm(12, 18)
    far = simulate_multi(SimConfig((e, f), trials=40, seed=3, horizon=10**9))
    near = simulate_multi(SimConfig((e, f), trials=40, seed=3, horizon=3 * cycle))
    assert far == near
    assert None in far.latencies
    assert any(lat is not None for lat in far.latencies)


def _emissions(spec: ProtocolSpec, phase: int, horizon: int) -> list[int]:
    """Global start times in [1, horizon] of the device's beacons."""
    starts = _beacon_starts(spec.beacons, phase + 1, phase + horizon + 1)
    return [s - phase for s in starts]


def _uncut_pair(e, f, phase_e, phase_f, horizon, self_blocking):
    """f hearing e at the given phases, every emission up to the horizon
    tested, with no stop after one joint cycle."""
    hears, _ = _CompiledDevice(f).listener(e.beacons.beacon_duration, self_blocking)
    emissions = _emissions(e, phase_e, horizon)
    return next((t for t in emissions if hears(phase_f, t)), None)


def _late_beacon_pair():
    """A finite joiner whose second beacon lies far past every device
    period, against a listener that hears it and not the first."""
    e = ProtocolSpec(
        BeaconSchedule((7, 100), 1), ReceptionSchedule((ReceptionWindow(0, 1),), 2), RadioModel()
    )
    return e, listener([(0, 3)], 10)


def test_finite_beacon_list_is_heard_past_twice_the_joint_period():
    # the beacon at 100 lies far past 2 * lcm(2, 10) = 20, where pair
    # replays once stopped looking; the one at 7 misses the window
    e, f = _late_beacon_pair()
    assert simulate_pair(e, f, 0, 0) == (100, None)


@pytest.mark.parametrize("sampling", list(OffsetSampling))
def test_finite_joiner_is_scanned_to_its_last_beacon(sampling):
    # with no horizon, no guess such as 2 * lcm(2, 10) or 4 * 10 cuts the
    # scan before the beacon at 100
    e, f = _late_beacon_pair()
    out = simulate_multi(SimConfig((e, f), trials=20, offset_sampling=sampling))
    assert out.latencies == tuple(simulate_pair(e, f, pe, pf)[0] for pe, pf in out.phases)
    assert max(lat for lat in out.latencies if lat is not None) >= 99
    if sampling is OffsetSampling.EXHAUSTIVE_TICKS:
        assert out.latencies[out.phases.index((0, 0))] == 100


def _trial_rows(out):
    return list(
        zip(out.latencies, out.first_beacon_collided, out.covering_beacon_collided, out.failed)
    )


def _uncut_replay(cfg: SimConfig, phases):
    """Each trial of simulate_multi scanned to the config's horizon: every
    emission is tested, with no stop after one joint cycle."""
    devices = [_CompiledDevice(d) for d in cfg.devices]
    omega = devices[0].omega
    hears, _ = devices[1].listener(omega, self_blocking=True)
    jammers = [(i, d.jammer(omega)) for i, d in enumerate(devices) if i and d.taus]
    out = []
    for ph in phases:
        emissions = _emissions(cfg.devices[0], ph[0], cfg.horizon)
        hits = [any(jam(ph[i], t) for i, jam in jammers) for t in emissions]
        heard = [hit for t, hit in zip(emissions, hits) if hears(ph[1], t)]
        lat = next((t for t, hit in zip(emissions, hits) if hears(ph[1], t) and not hit), None)
        failed = lat is None or (cfg.latency_budget is not None and lat > cfg.latency_budget)
        out.append((lat, bool(hits) and hits[0], heard[0] if heard else None, failed))
    return out


#: Beacon and reception periods whose joint cycles all divide 60.
_SMALL_PERIODS = (4, 6, 10, 12, 15, 20, 30)


def _repetitive_device(rng: random.Random, wrap: bool = False) -> ProtocolSpec:
    """A device with up to two beacons and one reception window, every
    period from _SMALL_PERIODS.  With wrap its beacon times move by an
    offset below 2 t_b, so they may lie at or past the period and change
    order modulo it; wrap is off by default so that the seeds pinned by an
    @example keep their draws."""
    omega = rng.randrange(1, 3)
    radio = RadioModel(
        omega=omega,
        d_oTxRx=rng.randrange(3),
        d_oRxTx=rng.randrange(3),
        semantics=rng.choice((Semantics.IDEAL, Semantics.CONTAINED)),
    )
    t_c = rng.choice(_SMALL_PERIODS)
    start = rng.randrange(t_c)
    windows = (ReceptionWindow(start, rng.randrange(1, t_c - start + 1)),)
    while True:
        t_b = rng.choice(_SMALL_PERIODS)
        times = sorted(rng.sample(range(t_b), rng.randrange(3)))
        if wrap:
            shift = rng.randrange(2 * t_b)
            times = [t + shift for t in times]
        try:
            beacons = BeaconSchedule(tuple(times), omega, t_b)
            return ProtocolSpec(beacons, ReceptionSchedule(windows, t_c), radio)
        except ValueError:
            continue


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_outcome_is_fixed_one_cycle_past_the_largest_period(seed, cycles):
    rng = random.Random(seed)
    devices = tuple(_repetitive_device(rng, wrap=True) for _ in range(rng.randrange(2, 5)))
    cycle = lcm(*(d.device_period for d in devices))  # a whole number of joint cycles
    base = max(d.device_period for d in devices) + cycle
    budget = rng.choice((None, cycle // 2))
    near, far = (
        SimConfig(devices, trials=20, seed=seed, horizon=h, latency_budget=budget)
        for h in (base, base + cycles * cycle)
    )
    out = simulate_multi(far)
    assert simulate_multi(near) == out
    assert _uncut_replay(far, out.phases) == _trial_rows(out)


def _finite_device(rng: random.Random) -> ProtocolSpec:
    """A device with one to three beacons at ticks below 90 that never
    repeat, turnarounds below 4 ticks, and one reception window of a
    repetitive schedule with a period from _SMALL_PERIODS."""
    omega = rng.randrange(1, 3)
    radio = RadioModel(
        omega=omega,
        d_oTxRx=rng.randrange(4),
        d_oRxTx=rng.randrange(4),
        semantics=rng.choice((Semantics.IDEAL, Semantics.CONTAINED)),
    )
    t_c = rng.choice(_SMALL_PERIODS)
    start = rng.randrange(t_c)
    windows = (ReceptionWindow(start, rng.randrange(1, t_c - start + 1)),)
    times = sorted(rng.sample(range(0, 90, omega), rng.randrange(1, 4)))
    return ProtocolSpec(
        BeaconSchedule(tuple(times), omega, period=None), ReceptionSchedule(windows, t_c), radio
    )


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
@example(89)  # a finite receiver deaf 3 ticks past its last beacon, at 60
@example(1497)  # the same with one beacon, at 48
def test_finite_devices_are_heard_to_their_end_without_a_horizon(seed):
    rng = random.Random(seed)
    devices = [_repetitive_device(rng) for _ in range(2)]
    devices += [_finite_device(rng) for _ in range(rng.randrange(1, 3))]
    rng.shuffle(devices)  # the joiner and the receiver may be finite, too
    budget = rng.choice((None, 30))
    out = simulate_multi(SimConfig(devices, trials=20, seed=seed, latency_budget=budget))
    # a repetitive joiner emits within 30 ticks, every finite beacon ends,
    # turnaround included, before tick 95 and the joint cycle divides 60, so
    # tick 240 is far enough
    far = SimConfig(devices, trials=20, seed=seed, horizon=240, latency_budget=budget)
    assert _uncut_replay(far, out.phases) == _trial_rows(out)


def test_cycle_cut_keeps_a_success_on_the_last_tick_of_the_cycle():
    # at phases (11, 0) the emissions are 1, 12, 13, 24, 25, 36, ... and the
    # receiver hears only t = 36 = first + cycle - 1 of them
    e, f = beaconer([0, 11], 12), listener([(0, 1)], 18)
    cfg = SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS, horizon=4 * 36)
    out = simulate_multi(cfg)
    assert out.latencies[out.phases.index((11, 0))] == 36
    assert _uncut_replay(cfg, out.phases) == _trial_rows(out)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_pair_replays_equal_an_uncut_scan(seed, self_blocking):
    rng = random.Random(seed)
    e, f = _repetitive_device(rng, wrap=True), _repetitive_device(rng, wrap=True)
    # the first emission comes within 30 ticks and the joint cycle divides 60
    horizon = 4 * 60
    for _ in range(10):
        pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
        assert simulate_pair(e, f, pe, pf, self_blocking=self_blocking) == (
            _uncut_pair(e, f, pe, pf, horizon, self_blocking),
            _uncut_pair(f, e, pf, pe, horizon, self_blocking),
        )
    lats = [
        _uncut_pair(e, f, pe, pf, horizon, self_blocking)
        for pe, pf in product(range(e.device_period), range(f.device_period))
    ]
    worst = None if None in lats else max(lats)
    assert exhaustive_pair_worst_case(e, f, self_blocking=self_blocking) == worst


def test_finite_beacon_list_deafens_its_receiver():
    # the receiver listens all of its 20-tick period and sends one 2-tick
    # beacon at 5 that never repeats: that beacon deafens it to the
    # joiner's at 5, and it hears the joiner's next one, at 25
    e = beaconer([5], 20, omega=2)
    f = ProtocolSpec(
        BeaconSchedule((5,), 2, period=None),
        ReceptionSchedule((ReceptionWindow(0, 20),), 20),
        RadioModel(omega=2),
    )
    assert simulate_pair(e, f) == (25, None)
    assert simulate_pair(e, f, self_blocking=False) == (5, None)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_pair_replays_equal_a_per_tick_reference(seed):
    rng = random.Random(seed)
    e, f = (
        _finite_device(rng) if rng.random() < 0.4 else _repetitive_device(rng, wrap=True)
        for _ in "ef"
    )
    # as above, tick 240 lies one joint cycle past every first emission and
    # every end of a finite device's beacons
    for self_blocking in (False, True):
        ef, fe = per_tick_pair(e, f, self_blocking, 240), per_tick_pair(f, e, self_blocking, 240)
        for _ in range(10):
            pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
            got = simulate_pair(e, f, pe, pf, self_blocking=self_blocking)
            assert got == (ef(pe, pf), fe(pf, pe))
        lats = [ef(pe, pf) for pe, pf in product(range(e.device_period), range(f.device_period))]
        worst = None if None in lats else max(lats)
        assert exhaustive_pair_worst_case(e, f, self_blocking=self_blocking) == worst


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_multi_device_trials_equal_a_per_tick_reference(seed):
    rng = random.Random(seed)
    devices = [
        _finite_device(rng) if rng.random() < 0.3 else _repetitive_device(rng, wrap=True)
        for _ in range(rng.randrange(2, 5))
    ]
    sampling = OffsetSampling.UNIFORM_RANDOM
    if len(devices) == 2 and rng.random() < 0.3:
        sampling = OffsetSampling.EXHAUSTIVE_TICKS
    horizon = rng.choice((None, 60, 100))
    budget = rng.choice((None, 10, 30))
    cfg = SimConfig(devices, trials=20, seed=seed, horizon=horizon, latency_budget=budget,
                    offset_sampling=sampling)
    out = simulate_multi(cfg)
    # as above, tick 240 lies one joint cycle past every first emission and
    # every end of a finite device's beacons
    trial = per_tick_trial(devices, horizon or 240, budget)
    assert [trial(ph) for ph in out.phases] == _trial_rows(out)


@pytest.mark.parametrize(
    "times, heard_at",
    [
        ((15,), 5),  # one beacon at 15 every 10 ticks is one at 5
        ((7, 12), 2),  # taken modulo 10 the beacons come at 2, then at 7
    ],
)
def test_joiner_beacons_at_or_past_their_period_repeat_from_the_start(times, heard_at):
    e, f = beaconer(times, 10), listener([(0, 10)], 10)
    assert simulate_pair(e, f, 0, 0) == (heard_at, None)
    assert simulate_pair(e, f, 0, 0) == (per_tick_pair(e, f, True, 40)(0, 0), None)
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
    trial = per_tick_trial((e, f), 40)
    assert [trial(ph) for ph in out.phases] == _trial_rows(out)
    assert out.latencies[out.phases.index((0, 0))] == heard_at


def _sending_receiver_pair():
    """A joiner's 3-tick beacon every 10 ticks against an always-listening
    receiver whose own 1-tick beacon, at 1 every 10 ticks, starts one tick
    after the joiner's."""
    e = beaconer([0], 10, omega=3)
    f = ProtocolSpec(
        BeaconSchedule((1,), 1, period=10),
        ReceptionSchedule((ReceptionWindow(0, 10),), 10),
        RadioModel(),
    )
    return e, f


def test_multi_device_trial_counts_a_sending_receiver_as_an_interferer():
    e, f = _sending_receiver_pair()
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
    row = _trial_rows(out)[out.phases.index((0, 0))]
    assert row == per_tick_trial((e, f), 40)((0, 0)) == (None, True, True, True)
    assert simulate_pair(e, f, 0, 0) == (10, None)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "simulate_pair hears the joiner's beacon at 10, because the receiver's own "
        "beacon at 11 misses its start tick, while simulate_multi counts that beacon "
        "as a collision; one of the two rules must decide a sending receiver's own "
        "overlap, and a fix that moves the Disco seed-0 benchmark goldens belongs in "
        "a benchmark change"
    ),
)
def test_pair_and_multi_device_replays_agree_on_a_sending_receiver():
    e, f = _sending_receiver_pair()
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
    assert out.latencies[out.phases.index((0, 0))] == simulate_pair(e, f, 0, 0)[0]


def test_exhaustive_sampling_needs_exactly_two_devices():
    cfg = SimConfig(c7_devices(3), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS)
    with pytest.raises(ValueError, match="exactly two devices"):
        simulate_multi(cfg)


def test_silent_device_loses_no_reception_to_its_own_beacons():
    p = listener([(0, 5)], 10)
    assert measured_blocked_fraction(p) == 0
    assert self_blocking_probability(p) == 0


def test_blocked_fraction_refuses_a_finite_beacon_list():
    p = ProtocolSpec(
        BeaconSchedule((0, 5), 1, period=None),
        ReceptionSchedule((ReceptionWindow(0, 5),), 10),
        RadioModel(omega=1),
    )
    with pytest.raises(ValueError, match="repetitive beacon schedule"):
        measured_blocked_fraction(p)
