import csv
import io
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ndlab import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    TimeBase,
    load_protocol,
    protocol_from_json,
    protocol_to_json,
    reception_duty_cycle,
    save_protocol,
    total_duty_cycle,
    transmission_duty_cycle,
)
from ndlab.protocols import (
    builtin_difference_set,
    gen_diffcode,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
    gen_searchlight_striped,
    gen_uconnect,
)
from ndlab.schedule import write_csv, write_json
from helpers import MALFORMED_PROTOCOL_EDITS, beaconer, c7_devices, with_field


def test_transmission_duty_cycle_single_beacon():
    b = BeaconSchedule((0,), 1, period=100)
    assert transmission_duty_cycle(b) == F(1, 100)


def test_transmission_duty_cycle_two_beacons():
    b = BeaconSchedule((0, 20), 1, period=50)
    assert transmission_duty_cycle(b) == F(1, 25)


def test_zero_gap_rejected():
    with pytest.raises(ValueError):
        BeaconSchedule((5, 5), 1, period=50)
    with pytest.raises(ValueError):
        BeaconSchedule((0, 3), 4, period=50)  # gap smaller than the beacon


def test_wraparound_gap_rejected():
    # last beacon of a period too close to the first of the next
    with pytest.raises(ValueError):
        BeaconSchedule((0, 8), 3, period=10)


def test_reception_duty_cycle_values():
    assert reception_duty_cycle(ReceptionSchedule((ReceptionWindow(0, 5),), 100)) == F(1, 20)
    two = ReceptionSchedule((ReceptionWindow(0, 3), ReceptionWindow(5, 2)), 10)
    assert reception_duty_cycle(two) == F(1, 2)
    full = ReceptionSchedule((ReceptionWindow(0, 100),), 100)
    assert reception_duty_cycle(full) == 1


def test_overlapping_windows_rejected():
    with pytest.raises(ValueError):
        ReceptionSchedule((ReceptionWindow(0, 5), ReceptionWindow(4, 3)), 20)


def test_window_past_period_rejected():
    with pytest.raises(ValueError):
        ReceptionSchedule((ReceptionWindow(8, 5),), 10)
    # one tick past the period is already too far; ending on it fits
    with pytest.raises(ValueError, match="fit inside the period"):
        ReceptionSchedule((ReceptionWindow(8, 3),), 10)
    assert ReceptionSchedule((ReceptionWindow(7, 3),), 10).windows[-1].end == 10


def test_total_duty_cycle_weighted_sum():
    # beta = 1/100, gamma = 1/20
    def proto(alpha):
        return ProtocolSpec(
            BeaconSchedule((0,), 1, period=100),
            ReceptionSchedule((ReceptionWindow(0, 5),), 100),
            RadioModel(alpha=F(alpha), omega=1),
        )

    assert total_duty_cycle(proto(1)) == F(6, 100)
    assert total_duty_cycle(proto(2)) == F(7, 100)


def test_total_duty_cycle_with_switch_overheads():
    # a 1000 us window plus 140 us of radio wakeup per visit
    p = ProtocolSpec(
        BeaconSchedule((), 1, period=None),
        ReceptionSchedule((ReceptionWindow(0, 1000),), 100000),
        RadioModel(omega=1, d_oRx=140),
    )
    assert total_duty_cycle(p) == F(1140, 100000)


def test_transmit_side_overhead_inflates_beta():
    from ndlab import effective_rates

    p = ProtocolSpec(
        BeaconSchedule((0, 50), 2, period=100),
        ReceptionSchedule((ReceptionWindow(0, 10),), 100),
        RadioModel(omega=2, d_oTx=3, d_oRx=5),
    )
    beta, gamma = effective_rates(p)
    assert beta == F(2 * (2 + 3), 100)
    assert gamma == F(10 + 5, 100)
    assert total_duty_cycle(p) == beta + gamma
    # three beacons every 120 ticks: three beacons of active time per period
    three = replace(p, beacons=BeaconSchedule((10, 50, 90), 2, period=120))
    beta, gamma = effective_rates(three)
    assert beta == F(3 * (2 + 3), 120)
    assert gamma == F(10 + 5, 100)


def test_radio_model_rejects_floats():
    with pytest.raises(TypeError):
        RadioModel(alpha=0.5, omega=1)


def test_protocol_requires_matching_omega():
    with pytest.raises(ValueError):
        ProtocolSpec(
            BeaconSchedule((0,), 2, period=10),
            ReceptionSchedule((ReceptionWindow(0, 3),), 10),
            RadioModel(omega=1),
        )


@given(st.integers(1, 7))
def test_duty_cycles_invariant_under_time_scaling(s):
    b = BeaconSchedule((0, 7, 20), 2, period=50)
    c = ReceptionSchedule((ReceptionWindow(1, 4), ReceptionWindow(9, 3)), 30)
    bs = BeaconSchedule(tuple(t * s for t in b.emission_times), 2 * s, period=50 * s)
    cs = ReceptionSchedule(
        tuple(ReceptionWindow(w.start * s, w.duration * s) for w in c.windows), 30 * s
    )
    assert transmission_duty_cycle(bs) == transmission_duty_cycle(b)
    assert reception_duty_cycle(cs) == reception_duty_cycle(c)


@given(st.integers(1, 6))
def test_duty_cycle_same_over_concatenated_periods(k):
    c = ReceptionSchedule((ReceptionWindow(1, 4), ReceptionWindow(9, 3)), 30)
    wins = []
    for i in range(k):
        for w in c.windows:
            wins.append(ReceptionWindow(w.start + 30 * i, w.duration))
    ck = ReceptionSchedule(tuple(wins), 30 * k)
    assert reception_duty_cycle(ck) == reception_duty_cycle(c)


def test_finite_beacon_sequence_rate():
    # a beacon list that does not repeat has no rate: it is refused outright
    for times in ((0, 10, 30), (10, 50, 90), (5,)):
        with pytest.raises(ValueError, match="needs a period"):
            BeaconSchedule(times, 2, period=None)
    with pytest.raises(ValueError, match="needs a period"):
        BeaconSchedule((10, 50, 90), 2)
    # repeating every 40 ticks, the same beacons send 6 ticks in 40
    assert transmission_duty_cycle(BeaconSchedule((0, 10, 30), 2, period=40)) == F(6, 40)


def test_silent_device_has_zero_beta():
    assert transmission_duty_cycle(BeaconSchedule((), 1, period=None)) == 0


def test_silent_receiver_document_loads_and_round_trips():
    # the criterion-7 receiver: no beacons, so no beacon period
    doc = protocol_to_json(c7_devices(2)[1])
    assert doc["beacons"] == {"times": [], "omega": 100, "period": None}
    p = protocol_from_json(json.loads(json.dumps(doc)))
    assert p == c7_devices(2)[1]
    assert p.device_period == 20000
    assert protocol_to_json(p) == doc


def test_readme_protocol_example_loads_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Protocol JSON format", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(example)
    assert protocol_to_json(protocol_from_json(doc)) == doc


def test_timebase_conversion():
    tb = TimeBase(1000)
    assert tb.ticks_from_us(32) == 32
    assert TimeBase(500).ticks_from_us(1) == 2
    with pytest.raises(ValueError):
        TimeBase(3000).ticks_from_us(1)


def test_json_round_trip():
    p = ProtocolSpec(
        BeaconSchedule((0, 40), 3, period=100),
        ReceptionSchedule((ReceptionWindow(2, 10),), 60),
        RadioModel(alpha=F(3, 2), omega=3, d_oTx=5, d_oRxTx=7, semantics=Semantics.CONTAINED),
        TimeBase(500),
    )
    doc = json.loads(json.dumps(protocol_to_json(p)))
    q = protocol_from_json(doc)
    assert q == p


def test_json_matches_documented_shape():
    p = beaconer((0, 10), 40, omega=2)
    doc = protocol_to_json(p)
    assert set(doc) == {"tick_ns", "beacons", "receptions", "radio"}
    assert doc["beacons"] == {"times": [0, 10], "omega": 2, "period": 40}
    assert doc["radio"]["alpha"] == [1, 1]
    assert doc["radio"]["semantics"] == "ideal"
    assert doc["receptions"]["windows"][0] == {"start": 0, "d": 1}


@pytest.mark.parametrize("field, value", MALFORMED_PROTOCOL_EDITS)
def test_json_loader_refuses_mistyped_fields(field, value):
    doc = protocol_to_json(gen_optimal_unidirectional(4, F(1, 100), 1))
    protocol_from_json(doc)  # the unedited document loads
    with pytest.raises(ValueError):
        protocol_from_json(with_field(doc, field, value))


def test_json_loader_accepts_the_older_repetitive_key_as_true():
    # files written before receptions always repeated carry the key
    p = gen_disco(3, 5, 20, 2)
    doc = protocol_to_json(p)
    assert "repetitive" not in doc["receptions"]
    assert protocol_from_json(with_field(doc, "receptions.repetitive", True)) == p


@st.composite
def generated_protocols(draw):
    """A protocol from one of the six generators, on a random radio and tick."""
    omega = draw(st.integers(1, 4))
    radio = RadioModel(
        alpha=F(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
        omega=omega,
        d_oTx=draw(st.integers(0, 5)),
        d_oRx=draw(st.integers(0, 5)),
        d_oTxRx=draw(st.integers(0, 5)),
        d_oRxTx=draw(st.integers(0, 5)),
        semantics=draw(st.sampled_from(Semantics)),
    )
    slot = draw(st.integers(2 * omega, 60))
    kind = draw(st.sampled_from(
        ("optimal", "pi0m", "disco", "searchlight", "uconnect", "diffcode")))
    if kind == "optimal":
        lam = draw(st.integers(2 * omega, 300))
        p = gen_optimal_unidirectional(draw(st.integers(2, 8)), F(omega, lam), omega, radio)
    elif kind == "pi0m":
        d = draw(st.integers(omega + 1, 300))
        p = gen_pi0m(draw(st.integers(1, 12)), d, omega, radio, draw(st.integers(0, d - 1)))
    elif kind == "disco":
        p1, p2 = draw(st.sampled_from(((2, 3), (3, 5), (4, 7), (5, 7))))
        p = gen_disco(p1, p2, slot, omega, radio)
    elif kind == "searchlight":
        p = gen_searchlight_striped(draw(st.integers(2, 9)), slot, omega, radio)
    elif kind == "uconnect":
        p = gen_uconnect(draw(st.sampled_from((3, 5, 7))), slot, omega, radio)
    else:
        ds = builtin_difference_set(draw(st.sampled_from((7, 13, 21, 31))))
        p = gen_diffcode(ds, slot, omega, radio)
    return ProtocolSpec(p.beacons, p.receptions, p.radio, TimeBase(draw(st.integers(1, 10**6))))


@settings(deadline=None, max_examples=60)
@given(generated_protocols())
def test_json_round_trip_over_generators(p):
    doc = json.loads(json.dumps(protocol_to_json(p)))
    assert protocol_from_json(doc) == p


#: (builder, message) of every model field the constructors refuse
_INVALID_MODEL_FIELDS = {
    "tick_ns": (lambda: TimeBase(0), "tick_ns must be positive"),
    "window-start": (lambda: ReceptionWindow(-1, 2), "window start must be >= 0"),
    "window-duration": (lambda: ReceptionWindow(0, 0), "window duration must be >= 1"),
    "no-window": (lambda: ReceptionSchedule((), 10), "at least one reception window"),
    "reception-period": (
        lambda: ReceptionSchedule((ReceptionWindow(0, 1),), 0), "period must be >= 1"
    ),
    "beacon-duration": (lambda: BeaconSchedule((0,), 0), "beacon duration must be >= 1"),
    "negative-time": (lambda: BeaconSchedule((-1, 5), 1), "emission times must be >= 0"),
    "span": (
        lambda: BeaconSchedule((0, 10), 1, period=10), "one period cannot hold the whole"
    ),
    "silent-period": (
        lambda: BeaconSchedule((), 1, period=-5), "beacon period must be >= 1"
    ),
    "alpha": (lambda: RadioModel(alpha=0), "alpha must be positive"),
    "overhead": (lambda: RadioModel(d_oRxTx=-1), "d_oRxTx must be >= 0"),
}


@pytest.mark.parametrize("name", sorted(_INVALID_MODEL_FIELDS))
def test_model_refuses_invalid_fields(name):
    build, message = _INVALID_MODEL_FIELDS[name]
    with pytest.raises(ValueError, match=message):
        build()


def test_save_protocol_round_trips_through_load_protocol(tmp_path):
    p = gen_searchlight_striped(
        4, 10, 2, RadioModel(alpha=F(2, 3), omega=2, d_oTx=1, semantics=Semantics.CONTAINED)
    )
    path = tmp_path / "p.json"
    save_protocol(p, path)
    assert json.loads(path.read_text()) == protocol_to_json(p)
    assert load_protocol(path) == p


_WORDS = st.sampled_from(["ceil", "floor", "eta", "symmetric_k", "trial_id", "a"])
_CELLS = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"), 1e-05, 1e16]),
    st.just(""),
    _WORDS,
)


# a table past two blocks of write_csv's joined lines, so every block
# boundary meets the bytes csv.writer writes
_LONG_TABLE = (
    ["eta", "symmetric", "symmetric_k", "symmetric_branch", "a"],
    [(j / 7, j * 1e16 / 3, j, ("ceil", "floor")[j % 2], "" if j % 3 else -0.0)
     for j in range(1, 2501)],
)


@settings(max_examples=200, deadline=None)
@example(table=_LONG_TABLE)
@given(st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.lists(_WORDS, min_size=n, max_size=n),
        st.lists(st.tuples(*[_CELLS] * n), max_size=6),
    )
))
def test_write_csv_writes_the_bytes_of_csv_writer(table):
    # the cell types nd-lab writes; a lone blank cell is left out, since
    # csv.writer quotes it and no nd-lab CSV has a one-column row
    header, rows = table
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(header)
    w.writerows(rows)
    got = io.StringIO(newline="")
    write_csv(header, iter(rows), got)
    assert got.getvalue() == want.getvalue()


class _CountingWrites(io.StringIO):
    """A text buffer that counts its ``write`` calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([
        -0.0, 0.1 + 0.2, 1e16, 1e-05, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
    ]),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_write_json_writes_its_text_in_one_write(doc):
    fh = _CountingWrites()
    write_json(doc, fh)
    assert fh.writes == 1
    assert fh.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # the bytes json.dump writes chunk by chunk, then a newline
    chunked = io.StringIO()
    json.dump(doc, chunked, indent=2, sort_keys=True)
    assert fh.getvalue() == chunked.getvalue() + "\n"
