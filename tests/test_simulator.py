import ast
import errno
import hashlib
import marshal
import os
import random
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    TimeBase,
    exhaustive_pair_worst_case,
    measured_blocked_fraction,
    protocol_from_json,
    self_blocking_probability,
    simulate_multi,
    simulate_pair,
    worst_case_latency_oracle,
)
from ndlab import simulator
from ndlab.protocols import gen_disco, gen_pi0m
from ndlab.simulator import (
    _MIN_RANGE_TRIALS,
    _listener,
    _phase_sampler,
)
from helpers import (
    _beacon_starts,
    beaconer,
    c7_devices,
    first_collision_rate,
    jammer,
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


def _per_tick_reference(e, f):
    """per_tick_pair for f hearing e without self-blocking, over a horizon
    that holds the first emission and one joint cycle past it."""
    t_b = e.beacons.period
    return per_tick_pair(e, f, t_b + lcm(t_b, f.receptions.period))


def test_pair_agrees_with_coverage_engine_pointwise():
    # the per-phase reference is per_tick_pair, which shares no code with
    # either the simulator or the coverage sweeps
    e, f = optimal_pair()
    late = beaconer([85, 105, 125, 145], 80)  # starts past its period
    wide = beaconer([0, 20, 40, 60], 80, omega=3)
    contained = listener([(0, 23)], 80, omega=3, semantics=Semantics.CONTAINED)
    rng = random.Random(3)
    for tx, rx in ((e, f), (late, f), (wide, contained), (late, contained)):
        want = _per_tick_reference(tx, rx)
        for _ in range(300):
            pe = rng.randrange(tx.device_period)
            pf = rng.randrange(rx.device_period)
            lat, back = simulate_pair(tx, rx, pe, pf, self_blocking=False)
            assert lat == want(pe, pf), (tx, rx, pe, pf)
            assert back is None  # rx never transmits


def test_exhaustive_worst_case_equals_oracle():
    e, f = optimal_pair()
    assert exhaustive_pair_worst_case(e, f) == worst_case_latency_oracle(e, f) == 80
    # a silent transmitter has no beacon period to sweep
    assert exhaustive_pair_worst_case(listener([(0, 5)], 10), beaconer([0], 10)) is None


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


def fake_cpus(monkeypatch, k: int, fork=None) -> list:
    """Report k CPUs to simulate_multi and count its fork() calls, which go
    to ``fork`` (the real one by default).  Returns the list of forks."""
    forks = []
    fork = fork or os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: Enough trials for three ranges on three CPUs.
SPLIT_TRIALS = 3 * _MIN_RANGE_TRIALS + 7


def test_thread_count_does_not_change_results(monkeypatch):
    # a seeded run repeats
    e, f = optimal_pair()
    cfg = SimConfig((e, f), trials=300, seed=5, horizon=400)
    serial = simulate_multi(cfg)
    assert simulate_multi(cfg) == serial
    # the trials split over every CPU, one forked child per CPU after the
    # first, and the outcome never depends on how many there are
    big = SimConfig((e, f), trials=SPLIT_TRIALS, seed=5, horizon=400)
    outcomes = []
    for k in (1, 2, 3):
        forks = fake_cpus(monkeypatch, k)
        outcomes.append(simulate_multi(big))
        assert len(forks) == k - 1
        assert_no_child_left()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0].phases[:300] == serial.phases


def test_cpu_count_does_not_change_exhaustive_outcomes(monkeypatch):
    cfg = PINNED_CONFIGS["exhaustive_disco"]()
    assert cfg.devices[0].device_period * cfg.devices[1].device_period >= 3 * _MIN_RANGE_TRIALS
    for k in (1, 2, 3):
        forks = fake_cpus(monkeypatch, k)
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

    forks = fake_cpus(monkeypatch, 3, fork)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_failed_pipe_plays_the_range_in_the_caller(monkeypatch):
    # the second range's pipe() runs out of descriptors: that range is
    # played here, as for a failed fork(), and is never forked
    e, f = optimal_pair()
    cfg = SimConfig((e, f), trials=SPLIT_TRIALS, seed=8, horizon=400)
    serial = simulate_multi(cfg)
    real_pipe, pipes = os.pipe, []

    def pipe():
        pipes.append(None)
        if len(pipes) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    forks = fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "pipe", pipe)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 1
    assert_no_child_left()


def _runner_failing_in(monkeypatch, where, fail):
    """Make every trial call ``fail()`` in the processes ``where`` picks:
    the caller ("parent") or a forked child ("child")."""
    parent = os.getpid()
    real = simulator._trial_runner

    def runner(*args):
        run, most = real(*args)

        def trial(phases):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return run(phases)

        return trial, most

    monkeypatch.setattr(simulator, "_trial_runner", runner)


def _split_configs():
    e, f = optimal_pair()
    return [
        SimConfig((e, f), trials=SPLIT_TRIALS, seed=4, horizon=400),
        SimConfig((gen_disco(3, 5, 4, 1),) * 2, offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS),
    ]


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_exception_is_raised_by_the_caller(monkeypatch, cfg):
    # every range past trial 0 raises wherever it is played: its child
    # sends nothing, and the caller raises on playing the range itself
    real = simulator._play_split

    def play_split(n, play):
        def failing(lo, hi):
            if lo > 0:
                raise RuntimeError(f"range [{lo}, {hi}) failed")
            return play(lo, hi)

        return real(n, failing)

    monkeypatch.setattr(simulator, "_play_split", play_split)
    forks = fake_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=r"range \[\d+, \d+\) failed"):
        simulate_multi(cfg)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_that_raises_has_its_range_played_by_the_caller(monkeypatch, cfg):
    serial = simulate_multi(cfg)

    def fail():
        raise RuntimeError("trial failed in a child")

    _runner_failing_in(monkeypatch, "child", fail)
    forks = fake_cpus(monkeypatch, 3)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_that_sends_nothing_has_its_range_played_by_the_caller(monkeypatch, cfg):
    serial = simulate_multi(cfg)
    _runner_failing_in(monkeypatch, "child", lambda: os._exit(3))
    forks = fake_cpus(monkeypatch, 3)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("cfg", _split_configs(), ids=["uniform_random", "exhaustive_ticks"])
def test_child_whose_payload_is_cut_short_has_its_range_played_by_the_caller(monkeypatch, cfg):
    # each child writes its payload less the last byte, which marshal
    # refuses with EOFError
    serial = simulate_multi(cfg)
    cut = SimpleNamespace(dumps=lambda value: marshal.dumps(value)[:-1], loads=marshal.loads)
    monkeypatch.setattr(simulator, "marshal", cut)
    forks = fake_cpus(monkeypatch, 3)
    assert simulate_multi(cfg) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_caller_exception_stops_and_reaps_the_children(monkeypatch):
    def fail():
        raise RuntimeError("trial failed in the caller")

    _runner_failing_in(monkeypatch, "parent", fail)
    forks = fake_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="trial failed in the caller"):
        simulate_multi(_split_configs()[0])
    assert len(forks) == 2
    assert_no_child_left()


def test_another_live_thread_keeps_every_trial_in_the_caller(monkeypatch):
    cfg = _split_configs()[0]
    serial = simulate_multi(cfg)
    forks = fake_cpus(monkeypatch, 3)
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
    # joiner + receiver + one interferer at matching rates: the interferer
    # repeats with the joiner's period, so a trial whose first heard beacon
    # collides loses every later one too, and every other trial meets the
    # oracle's bound
    e, f = optimal_pair()
    interferer = beaconer([3], 80)
    bound = worst_case_latency_oracle(e, f)
    cfg = SimConfig((e, f, interferer), trials=2000, seed=7, horizon=800, latency_budget=bound)
    out = simulate_multi(cfg)
    # the covering beacon is the first emission the receiver hears at all
    hears = _listener(e, f, self_blocking=True)
    jams = jammer(interferer, e.beacons.beacon_duration)
    covering = []
    for pe, pf, pi in out.phases:
        t = next(t for t in _emissions(e, pe, cfg.horizon) if hears(pf, t))
        covering.append(bool(jams(pi, t)))
    assert covering == list(out.failed)
    assert sum(out.failed) == 23


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
    # the horizon must cover the larger device period, not only the smaller
    short = listener([(0, 20)], 40)
    for devices in ((e, short), (short, e)):
        with pytest.raises(ValueError, match="largest device period"):
            SimConfig(devices, horizon=40)
        assert SimConfig(devices, horizon=80).horizon == 80
    # every latency is at least one tick, so such a budget fails every trial
    for budget in (-3, 0):
        with pytest.raises(ValueError, match="latency_budget"):
            SimConfig((e, f), latency_budget=budget)
    assert SimConfig((e, f), latency_budget=1).latency_budget == 1
    # trial seeds are derived modulo 2**64, so 2**64 would replay seed 0
    assert _phase_sampler(2**64, (20000, 257))(5) == _phase_sampler(0, (20000, 257))(5)
    for seed in (2**64, 2**70, -1):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimConfig((e, f), seed=seed)
    assert SimConfig((e, f), seed=2**64 - 1).seed == 2**64 - 1


def test_random_protocol_pair_engines_agree():
    rng = random.Random(123)
    for _ in range(60):
        e, f = random_protocol(rng), random_protocol(rng)
        pe = rng.randrange(e.device_period)
        pf = rng.randrange(f.device_period)
        got, _ = simulate_pair(e, f, pe, pf, self_blocking=False)
        assert got == _per_tick_reference(e, f)(pe, pf)
    # CONTAINED receivers, wider beacons, and beacon lists shifted whole
    # periods past their start
    for _ in range(60):
        omega = rng.randrange(1, 4)
        b = random_beacons(rng, omega)
        late = rng.randrange(3) * b.period
        e = ProtocolSpec(
            BeaconSchedule(tuple(t + late for t in b.emission_times), omega, b.period),
            random_reception(rng),
            RadioModel(omega=omega),
        )
        f = ProtocolSpec(
            random_beacons(rng, omega),
            random_reception(rng),
            RadioModel(omega=omega, semantics=rng.choice(list(Semantics))),
        )
        pe = rng.randrange(e.device_period)
        pf = rng.randrange(f.device_period)
        got, _ = simulate_pair(e, f, pe, pf, self_blocking=False)
        assert got == _per_tick_reference(e, f)(pe, pf), (e, f, pe, pf)


# ---------------------------------------------------------------------------
# regression pins: sha256 of repr() of each result, recorded before the
# simulator core was rewritten, so any drift in outcomes fails here.  Once
# every beacon list repeated, the pins whose inputs held a beacon list
# that did not (non_repetitive and the random configs, pair replays and
# exhaustive worst cases) were re-recorded on repeating inputs by the code
# from before that change
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


def _sparse_devices():
    """A joiner and an interferer with a few irregular beacons in long
    periods, a listener, and an interferer that sends every 33 ticks."""
    joiner = ProtocolSpec(
        BeaconSchedule((3, 40, 95, 170, 260), 2, period=300),
        ReceptionSchedule((ReceptionWindow(0, 10),), 50),
        RadioModel(omega=2),
    )
    receiver = listener([(0, 15), (30, 10)], 45, omega=2)
    sparse = ProtocolSpec(
        BeaconSchedule((7, 70, 133), 2, period=150),
        ReceptionSchedule((ReceptionWindow(0, 3),), 30),
        RadioModel(omega=2),
    )
    return joiner, receiver, sparse, beaconer([5], 33, omega=2)


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
        t_b = rng.randrange(2 * omega + 2, 40)
        times = sorted(rng.sample(range(t_b), rng.randrange(3)))
        try:
            beacons = BeaconSchedule(tuple(times), omega, t_b)
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
    # the key is kept from when these beacon lists did not repeat
    "non_repetitive": lambda: SimConfig(_sparse_devices(), trials=400, seed=5, horizon=300),
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
    "budget_fails": "ce00c6df2f3bedb9e8931a0492352a1575def9ba6ba6e5ca34d7c92c0b6d9b53",
    "c7_S10": "bf9e3eed61b56ee560fc9cd9e0f6a565b0e9c1aaca33379024641141b14742ff",
    "c7_S2": "a7b654083716f6506618a81023ade9b23121346edea5b4a51c107d84bb7b1381",
    "c7_S5": "517128a16b59c9dc11918a0027d1ac756cadaf5c531580a87b06e5b7b046406a",
    "contained_turnarounds": "b77e86f64235aeb39c0c2c2b6c3a0d5255422df19b154759a9230bc3314d2f77",
    "disco_x3": "dc171b7cfcf566de187f320879a0a3931c43f567707f9e49d7e18e4f210126c4",
    "exhaustive_disco": "526cd733a1432a9493cf0d1b872312ea30e00a2f3bbed7f5a272eea6712dab90",
    "exhaustive_self_blocking": "3528ee77565f004b0764cec1af54cd65a713eb75c9f458aa826c4f33a20f5451",
    "non_repetitive": "498474382dbbbf25eeb543149e5fce8e6e7007e6b66bc600249bab1b303054ec",
    "random_configs": "caa0c8a5588200ecf5531cb65a2c36b6281359e5df44f47267c88704ad17dd1a",
    "simulate_pair": "2331d9012508c680cfbeaedf82a0ad89a065a33cababbfcfd41ea1bfc3c62ea8",
    "exhaustive_pair_worst_case": "ef01768edae228e318dfce28d1f68224a0c5d85504aeec03a459fc84a88208db",
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


def _exhaustive_worst_latency(e, f):
    """The worst latency of a two-device exhaustive_ticks run: the
    half-duplex worst case over every pair of device phases, None when some
    pair never discovers."""
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
    return None if None in out.latencies else max(out.latencies)


def test_exhaustive_pair_worst_cases_are_pinned():
    # each pair's full-duplex worst case, then its half-duplex one
    got = [
        worst(e, f)
        for e, f in _pinned_pairs()
        for worst in (exhaustive_pair_worst_case, _exhaustive_worst_latency)
    ]
    assert _digest(got) == PINNED_OUTCOMES["exhaustive_pair_worst_case"]


# ---------------------------------------------------------------------------
# phase sampling and the one-cycle stop
# ---------------------------------------------------------------------------

SAMPLER_PERIODS = (1, 2, 3, 255, 256, 257, 1500, 20000)


def _reference_trial_seed(seed: int, trial: int) -> int:
    """A trial's own seed, by the derivation _phase_sampler documents."""
    return (seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % 2**64


def _first_wrap(seed: int, start: int) -> int:
    """The first trial past ``start`` whose unreduced seed has passed a
    multiple of 2**64 since the trial before."""
    base, step = seed * 0x9E3779B97F4A7C15 + 1, 0xBF58476D1CE4E5B9
    w = (base + start * step) // 2**64 + 1
    return -(-(w * 2**64 - base) // step)


def test_phase_sampler_matches_stdlib_randrange():
    for seed in (0, 1, 2, 3, 2**63, 2**64 - 1):
        trials = list(range(50))
        for start in (0, 10**6, 2**40, 2**64):
            at = _first_wrap(seed, start)
            # the reduced seed falls at a wrap, as it does at no other step
            assert _reference_trial_seed(seed, at) < _reference_trial_seed(seed, at - 1)
            trials += [at - 1, at]
        draw = _phase_sampler(seed, SAMPLER_PERIODS)
        alone = [_phase_sampler(seed, (p,)) for p in SAMPLER_PERIODS]
        for trial in trials:
            s = _reference_trial_seed(seed, trial)
            for p, one in zip(SAMPLER_PERIODS, alone):
                assert one(trial) == (random.Random(s).randrange(p),)
            want = random.Random(s)
            assert draw(trial) == tuple(want.randrange(p) for p in SAMPLER_PERIODS)


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


def _uncut_pair(e, f, phase_e, phase_f, horizon):
    """A full-duplex f hearing e at the given phases, every emission up to
    the horizon tested, with no stop after one joint cycle."""
    hears = _listener(e, f, self_blocking=False)
    emissions = _emissions(e, phase_e, horizon)
    return next((t for t in emissions if hears(phase_f, t)), None)


def _late_beacon_pair():
    """A joiner whose second beacon, repeated every 200 ticks, lies far past
    every other device period, against a listener that hears it and not the
    first."""
    e = ProtocolSpec(
        BeaconSchedule((7, 100), 1, period=200),
        ReceptionSchedule((ReceptionWindow(0, 1),), 2),
        RadioModel(),
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
    return list(zip(out.latencies, out.first_beacon_collided, out.failed))


def _uncut_replay(cfg: SimConfig, phases):
    """Each trial of simulate_multi scanned to the config's horizon: every
    emission is tested, with no stop after one joint cycle.  A row is
    (latency, first collided, failed), as in _trial_rows."""
    devices = cfg.devices
    omega = devices[0].beacons.beacon_duration
    hears = _listener(devices[0], devices[1], self_blocking=True)
    jammers = [(i, jammer(d, omega)) for i, d in enumerate(devices) if i and d.beacons.count]
    out = []
    for ph in phases:
        emissions = _emissions(cfg.devices[0], ph[0], cfg.horizon)
        hits = [any(jam(ph[i], t) for i, jam in jammers) for t in emissions]
        lat = next((t for t, hit in zip(emissions, hits) if hears(ph[1], t) and not hit), None)
        failed = lat is None or (cfg.latency_budget is not None and lat > cfg.latency_budget)
        out.append((lat, bool(hits) and hits[0], failed))
    return out


#: Beacon and reception periods whose joint cycles all divide 60.
_SMALL_PERIODS = (4, 6, 10, 12, 15, 20, 30)


def _repetitive_device(rng: random.Random) -> ProtocolSpec:
    """A device with up to two beacons and one reception window, every
    period from _SMALL_PERIODS.  Its beacon times move by an offset below
    2 t_b, so they may lie at or past the period and change order modulo
    it."""
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
    devices = tuple(_repetitive_device(rng) for _ in range(rng.randrange(2, 5)))
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


def _late_device(rng: random.Random) -> ProtocolSpec:
    """A device with one to three beacons at ticks below 90 that repeat
    every 120 ticks, turnarounds below 4 ticks, and one reception window
    with a period from _SMALL_PERIODS.  Each of those periods divides 120,
    so every joint cycle does too."""
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
        BeaconSchedule(tuple(times), omega, period=120), ReceptionSchedule(windows, t_c), radio
    )


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_finite_devices_are_heard_to_their_end_without_a_horizon(seed):
    rng = random.Random(seed)
    devices = [_repetitive_device(rng) for _ in range(2)]
    devices += [_late_device(rng) for _ in range(rng.randrange(1, 3))]
    rng.shuffle(devices)  # the joiner and the receiver may be late, too
    budget = rng.choice((None, 30))
    out = simulate_multi(SimConfig(devices, trials=20, seed=seed, latency_budget=budget))
    # every joiner emits within 120 ticks and the joint cycle divides 120,
    # so a scan cut one cycle past the first emission ends before tick 240
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
    e, f = _repetitive_device(rng), _repetitive_device(rng)
    # the first emission comes within 30 ticks and the joint cycle divides 60
    horizon = 4 * 60

    def uncut(e, f, pe, pf):
        if self_blocking:
            return _uncut_replay(SimConfig((e, f), horizon=horizon), [(pe, pf)])[0][0]
        return _uncut_pair(e, f, pe, pf, horizon)

    for _ in range(10):
        pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
        assert simulate_pair(e, f, pe, pf, self_blocking=self_blocking) == (
            uncut(e, f, pe, pf),
            uncut(f, e, pf, pe),
        )
    if not self_blocking:
        lats = [
            _uncut_pair(e, f, pe, pf, horizon)
            for pe, pf in product(range(e.device_period), range(f.device_period))
        ]
        worst = None if None in lats else max(lats)
        assert exhaustive_pair_worst_case(e, f) == worst


def test_finite_beacon_list_deafens_its_receiver():
    # the receiver listens all of its 20-tick period and sends one 2-tick
    # beacon at 5 every 40 ticks: that beacon deafens it to the joiner's at
    # 5, and it hears the joiner's next one, at 25
    e = beaconer([5], 20, omega=2)
    f = ProtocolSpec(
        BeaconSchedule((5,), 2, period=40),
        ReceptionSchedule((ReceptionWindow(0, 20),), 20),
        RadioModel(omega=2),
    )
    assert simulate_pair(e, f) == (25, None)
    # the joiner, whose own beacon at 45 deafens it, hears the receiver's
    # beacon there only without self-blocking
    assert simulate_pair(e, f, self_blocking=False) == (5, 45)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_pair_replays_equal_a_per_tick_reference(seed):
    rng = random.Random(seed)
    e, f = (
        _late_device(rng) if rng.random() < 0.4 else _repetitive_device(rng)
        for _ in "ef"
    )
    # as above, tick 240 lies past one joint cycle after every first emission
    ef, fe = per_tick_pair(e, f, 240), per_tick_pair(f, e, 240)
    for _ in range(10):
        pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
        assert simulate_pair(e, f, pe, pf, self_blocking=False) == (ef(pe, pf), fe(pf, pe))
    grid = list(product(range(e.device_period), range(f.device_period)))
    lats = [ef(pe, pf) for pe, pf in grid]
    assert exhaustive_pair_worst_case(e, f) == (None if None in lats else max(lats))
    trial, back = per_tick_trial((e, f), 240), per_tick_trial((f, e), 240)
    for _ in range(10):
        pe, pf = rng.randrange(e.device_period), rng.randrange(f.device_period)
        assert simulate_pair(e, f, pe, pf) == (trial((pe, pf))[0], back((pf, pe))[0])
    # a sending receiver's own beacons decide only a few phase pairs, so the
    # self-blocking scan simulate_pair plays is compared on the whole grid,
    # latency and first-beacon collision both
    run, _ = simulator._trial_runner((e, f))
    assert list(map(run, grid)) == [trial(ph)[:2] for ph in grid]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_multi_device_trials_equal_a_per_tick_reference(seed):
    rng = random.Random(seed)
    devices = [
        _late_device(rng) if rng.random() < 0.3 else _repetitive_device(rng)
        for _ in range(rng.randrange(2, 5))
    ]
    sampling = OffsetSampling.UNIFORM_RANDOM
    if len(devices) == 2 and rng.random() < 0.3:
        sampling = OffsetSampling.EXHAUSTIVE_TICKS
    horizon = rng.choice((None, 120, 160))
    budget = rng.choice((None, 10, 30))
    cfg = SimConfig(devices, trials=20, seed=seed, horizon=horizon, latency_budget=budget,
                    offset_sampling=sampling)
    out = simulate_multi(cfg)
    # as above, tick 240 lies past one joint cycle after every first emission
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
    trial = per_tick_trial((e, f), 40)
    assert simulate_pair(e, f, 0, 0) == (trial((0, 0))[0], None)
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
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
    assert row == per_tick_trial((e, f), 40)((0, 0)) == (None, True, True)
    # a full-duplex receiver neither goes deaf nor jams
    assert simulate_pair(e, f, 0, 0, self_blocking=False) == (10, None)


def test_pair_and_multi_device_replays_agree_on_a_sending_receiver():
    # the receiver's beacon at 11 misses the start tick of the joiner's at
    # 10, so it does not deafen the receiver, but it collides with that beacon
    e, f = _sending_receiver_pair()
    assert simulate_pair(e, f, 0, 0) == (None, None)
    out = simulate_multi(SimConfig((e, f), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS))
    assert out.latencies == tuple(simulate_pair(e, f, pe, pf)[0] for pe, pf in out.phases)


def test_devices_that_disagree_on_tick_size_are_refused():
    e = gen_disco(3, 5, 4, 1)
    coarse = replace(e, tick=TimeBase(2000))
    calls = [
        lambda: simulate_pair(e, coarse),
        lambda: simulate_pair(coarse, e, self_blocking=False),
        lambda: exhaustive_pair_worst_case(e, coarse),
        lambda: exhaustive_pair_worst_case(replace(listener([(0, 5)], 10), tick=TimeBase(2000)), e),
        lambda: simulate_multi(SimConfig((e, coarse))),
        lambda: simulate_multi(SimConfig((e, e, coarse), trials=3)),  # a sending interferer
        # a receive-only device never reaches the trial runner, so the
        # config checks every device's tick itself
        lambda: SimConfig((e, e, replace(listener([(0, 5)], 10), tick=TimeBase(500)))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tick size"):
            call()


def test_horizon_on_the_first_emission_keeps_it():
    # the joiner's first emission comes at tick 5, the horizon itself: the
    # scan tests it, where a scan cut before it would fail the trial
    e, f = beaconer([5], 10), listener([(0, 10)], 10)
    run, _ = simulator._trial_runner((e, f), horizon=5)
    assert run((0, 0))[0] == 5
    assert per_tick_trial((e, f), 5)((0, 0))[0] == 5


def test_exhaustive_sampling_needs_exactly_two_devices():
    cfg = SimConfig(c7_devices(3), offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS)
    with pytest.raises(ValueError, match="exactly two devices"):
        simulate_multi(cfg)


def test_exhaustive_grid_too_large_to_hold_is_refused(monkeypatch):
    # gen_pi0m(3, 100, 1) repeats every lcm(100, 399) = 39 900 ticks, so
    # two of them form 39 900**2 phase pairs: refused before any is played
    def never(*args):
        raise AssertionError("the grid was played")

    monkeypatch.setattr(simulator, "_play_split", never)
    exhaustive = dict(offset_sampling=OffsetSampling.EXHAUSTIVE_TICKS)
    p = gen_pi0m(3, 100, 1)
    with pytest.raises(DomainError, match="grid of 1592010000 pairs exceeds 1000000"):
        simulate_multi(SimConfig((p, p), **exhaustive))
    # a grid of exactly 10**6 pairs is played, one of 1000 x 1001 is not
    e = beaconer([0], 1000)
    with pytest.raises(AssertionError, match="was played"):
        simulate_multi(SimConfig((e, listener([(0, 5)], 1000)), **exhaustive))
    with pytest.raises(DomainError, match="1001000 pairs"):
        simulate_multi(SimConfig((e, listener([(0, 5)], 1001)), **exhaustive))


def test_simulate_budgets_admit_exactly_their_work(monkeypatch):
    # 10^6 random trials are played and one more is not; under a budget of
    # 12 emissions, 2 trials of up to 6 pass and a third does not
    def never(*args):
        raise AssertionError("the trials were played")

    monkeypatch.setattr(simulator, "_play_split", never)
    e, f = beaconer([0, 3], 7), listener([(0, 1)], 10)
    with pytest.raises(AssertionError, match="were played"):
        simulate_multi(SimConfig((e, f), trials=10**6))
    with pytest.raises(DomainError, match="1000001 random trials exceed 1000000"):
        simulate_multi(SimConfig((e, f), trials=10**6 + 1))
    monkeypatch.setattr(simulator, "_MAX_SCANNED_EMISSIONS", 12)
    # the 69 ticks past the first emission, lcm(7, 10) less one, hold 20
    # emissions of two a period; a horizon of 14 ticks holds at most 6
    with pytest.raises(AssertionError, match="were played"):
        simulate_multi(SimConfig((e, f), trials=2, horizon=14))
    with pytest.raises(DomainError, match="3 trials of up to 6 emissions each exceed 12"):
        simulate_multi(SimConfig((e, f), trials=3, horizon=14))
    with pytest.raises(DomainError, match="1 trials of up to 20 emissions each exceed 12"):
        simulate_multi(SimConfig((e, f), trials=1))
    # a silent joiner scans nothing, whatever its trials
    monkeypatch.setattr(simulator, "_MAX_SCANNED_EMISSIONS", 0)
    with pytest.raises(AssertionError, match="were played"):
        simulate_multi(SimConfig((f, f), trials=5))


def _charged_emissions(monkeypatch, cfg: SimConfig) -> int:
    """The emissions per trial that simulate_multi charges to its budget,
    read from the refusal of a budget below any scan."""
    with monkeypatch.context() as mp, pytest.raises(DomainError) as exc:
        mp.setattr(simulator, "_MAX_SCANNED_EMISSIONS", -1)
        simulate_multi(cfg)
    return int(re.fullmatch(r"\d+ trials of up to (\d+) emissions each exceed -1 emissions",
                            str(exc.value))[1])


@pytest.mark.parametrize("cut", [True, False], ids=["horizon", "no_horizon"])
def test_emission_budget_charges_the_scan_a_trial_plays(monkeypatch, cut):
    # a trial can test the joiner's emissions from its first one to one
    # joint cycle, less a tick, later: the lcm of the joiner's beacons, the
    # receiver's windows and the beacons of every later device that sends,
    # the receiver included; a horizon cuts it.  The budget charges the
    # most any trial can test, which every uncut trial reaches
    for cfg in _random_configs():
        cfg = cfg if cut else replace(cfg, horizon=None)
        charged = _charged_emissions(monkeypatch, cfg)
        e, f = cfg.devices[:2]
        if not e.beacons.count:
            assert charged == 0
            continue
        senders = [d.beacons.period for d in cfg.devices[1:] if d.beacons.count]
        reach = lcm(e.beacons.period, f.receptions.period, *senders) - 1
        counts = []
        for ph in simulate_multi(cfg).phases:
            first = _emissions(e, ph[0], e.beacons.period)[0]
            stop = first + reach if cfg.horizon is None else min(first + reach, cfg.horizon)
            counts.append(len(_emissions(e, ph[0], stop)))
        assert max(counts) <= charged, cfg
        if cfg.horizon is None:
            assert set(counts) == {charged}, cfg


@pytest.mark.parametrize(
    "t_b, omega, senders, taus, rate",
    [
        (40, 1, 2, (0,), F(1, 40)),
        (40, 3, 2, (0,), F(1, 8)),
        (20, 3, 3, (0,), F(7, 16)),
        (15, 2, 4, (0,), F(61, 125)),
        (30, 2, 3, (0, 11), F(9, 25)),
    ],
)
def test_first_beacon_collisions_equal_the_exact_rate(t_b, omega, senders, taus, rate):
    # every phase tuple of the joiner and its equal interferers, against an
    # always-on receiver that sends nothing: no sigma, an exact count
    joiner = beaconer(taus, t_b, omega=omega)
    interferers = (joiner,) * (senders - 1)
    run, _ = simulator._trial_runner((joiner, listener([(0, 1)], 1), *interferers))
    grid = list(product(range(t_b), repeat=senders))
    collided = sum(run((p[0], 0, *p[1:]))[1] for p in grid)
    assert F(collided, len(grid)) == first_collision_rate(joiner, interferers) == rate


def test_silent_device_loses_no_reception_to_its_own_beacons():
    p = listener([(0, 5)], 10)
    assert measured_blocked_fraction(p) == 0
    assert self_blocking_probability(p) == 0


def test_blocked_fraction_refuses_a_finite_beacon_list():
    # the beacon list is refused where it is built, so the measurement
    # never sees one
    with pytest.raises(ValueError, match="needs a period"):
        p = ProtocolSpec(
            BeaconSchedule((0, 5), 1, period=None),
            ReceptionSchedule((ReceptionWindow(0, 5),), 10),
            RadioModel(omega=1),
        )
        measured_blocked_fraction(p)


def _package_imports(module: str) -> set[str]:
    """The ndlab names ``module`` imports, read from its source: each
    module, and each module.attribute of a from-import."""
    tree = ast.parse(Path(sys.modules[module].__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ndlab." + base if base else "ndlab"
            if node.module:
                names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name for name in names if name.startswith("ndlab.")}


def _assert_never_reaches(start: str, banned: str) -> set[str]:
    """Walk the package modules ``start`` imports, directly or through one
    another, assert that none names ``banned`` and return those seen."""
    seen, todo = set(), [start]
    while todo:
        module = todo.pop()
        seen.add(module)
        for name in _package_imports(module):
            assert not (name + ".").startswith(banned + "."), (module, name)
            if name in sys.modules and name not in seen:
                todo.append(name)
    return seen


def test_simulator_imports_nothing_from_coverage():
    # the simulator cross-checks the coverage engine, so neither it nor any
    # package module it imports may reach ndlab.coverage
    seen = _assert_never_reaches("ndlab.simulator", "ndlab.coverage")
    assert {"ndlab.simulator", "ndlab.schedule", "ndlab.intervals"} <= seen


def test_coverage_imports_nothing_from_simulator():
    # and the other way round: the oracle's sweeps never call the replay
    # that checks them
    seen = _assert_never_reaches("ndlab.coverage", "ndlab.simulator")
    assert {"ndlab.coverage", "ndlab.schedule", "ndlab.intervals"} <= seen
