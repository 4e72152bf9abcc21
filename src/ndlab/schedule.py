"""Schedule data model: reception windows, beacon sequences and duty cycles.

Every quantity of time is a non-negative integer tick count (default tick:
1 microsecond).  Duty cycles are exact ``Fraction`` values; floats are
rejected on input so that coverage and latency results stay bit-exact.
Latency belongs to a pair of devices: ``effective_window_spans(transmitter,
receiver)`` alone says where one's beacons can land in the other's windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import lcm

from . import intervals as iv


def ceil_div(a: int, b: int) -> int:
    """Exact ceil(a / b) for integers; ``math.ceil(a / b)`` goes through a
    float, which rounds once a or b passes 2**53."""
    return -(-a // b)


def rat(x) -> Fraction:
    """Coerce to an exact rational. Floats are refused on purpose.  A
    Fraction comes back as it is: Fractions are immutable."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a Fraction, int or 'p/q' string")
    return Fraction(x)


@dataclass(frozen=True)
class TimeBase:
    """Physical meaning of one tick."""

    tick_ns: int = 1000

    def __post_init__(self):
        if self.tick_ns <= 0:
            raise ValueError("tick_ns must be positive")

    def ticks_from_us(self, us: int) -> int:
        t = Fraction(us * 1000, self.tick_ns)
        if t.denominator != 1:
            raise ValueError(f"{us} us is not a whole number of {self.tick_ns} ns ticks")
        return int(t)


class Semantics(Enum):
    """How a beacon must relate to a reception window to be received.

    IDEAL treats the beacon as an instant at its start tick: it is received
    if that tick lies inside a window.  CONTAINED requires the whole
    transmission to fit, so a window loses its last ``omega`` ticks.
    """

    IDEAL = "ideal"
    CONTAINED = "contained"


@dataclass(frozen=True)
class ReceptionWindow:
    start: int
    duration: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("window start must be >= 0")
        if self.duration < 1:
            raise ValueError("window duration must be >= 1 tick")

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class ReceptionSchedule:
    """A finite window list that repeats every ``period`` ticks, forever."""

    windows: tuple[ReceptionWindow, ...]
    period: int

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        if not self.windows:
            raise ValueError("need at least one reception window")
        if self.period < 1:
            raise ValueError("period must be >= 1 tick")
        prev_end = 0
        for w in self.windows:
            if w.start < prev_end:
                raise ValueError("reception windows must be sorted and non-overlapping")
            prev_end = w.end
        if prev_end > self.period:
            raise ValueError("windows must fit inside the period")

    @property
    def listen_ticks(self) -> int:
        return sum(w.duration for w in self.windows)

    def spans(self) -> tuple[tuple[int, int], ...]:
        return tuple((w.start, w.end) for w in self.windows)


@dataclass(frozen=True)
class BeaconSchedule:
    """Beacon emission times with a uniform transmission duration, repeated
    every ``period`` ticks, forever.  An empty emission list models a silent
    (receive-only) device and may leave ``period`` None; a non-empty one
    needs a period, since only a repeating beacon list is modelled.
    """

    emission_times: tuple[int, ...]
    beacon_duration: int
    period: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "emission_times", tuple(self.emission_times))
        if self.beacon_duration < 1:
            raise ValueError("beacon duration must be >= 1 tick")
        t = self.emission_times
        if t and t[0] < 0:
            raise ValueError("emission times must be >= 0")
        for a, b in zip(t, t[1:]):
            if b - a < self.beacon_duration:
                raise ValueError("beacon gap smaller than the beacon itself")
        if self.period is not None and self.period < 1:
            raise ValueError("beacon period must be >= 1 tick")
        if not t:
            return
        if self.period is None:
            raise ValueError(
                "a non-empty beacon list needs a period: only a repeating beacon list is modelled"
            )
        if t[-1] - t[0] >= self.period:
            raise ValueError("one period cannot hold the whole emission list")
        if (t[0] + self.period) - t[-1] < self.beacon_duration:
            raise ValueError("wraparound gap smaller than the beacon itself")

    @property
    def count(self) -> int:
        return len(self.emission_times)

    def gaps(self) -> tuple[int, ...]:
        """Consecutive gaps; the last entry wraps around to the first beacon
        of the next period, so they sum to the period.  Empty for a silent
        device."""
        t = self.emission_times
        if not t:
            return ()
        return tuple(b - a for a, b in zip(t, t[1:] + (t[0] + self.period,)))


@dataclass(frozen=True)
class RadioModel:
    """Radio parameters: power ratio, beacon length, switching overheads."""

    alpha: Fraction = Fraction(1)
    omega: int = 1
    d_oTx: int = 0
    d_oRx: int = 0
    d_oTxRx: int = 0
    d_oRxTx: int = 0
    semantics: Semantics = Semantics.IDEAL

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.omega < 1:
            raise ValueError("omega must be >= 1 tick")
        for name in ("d_oTx", "d_oRx", "d_oTxRx", "d_oRxTx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ProtocolSpec:
    """One device's full behaviour: what it sends and when it listens."""

    beacons: BeaconSchedule
    receptions: ReceptionSchedule
    radio: RadioModel
    tick: TimeBase = field(default_factory=TimeBase)

    def __post_init__(self):
        if self.radio.omega != self.beacons.beacon_duration:
            raise ValueError("radio omega and beacon duration disagree")

    @property
    def device_period(self) -> int:
        """Smallest period after which the whole device behaviour repeats."""
        p = self.receptions.period
        if self.beacons.count:
            p = lcm(p, self.beacons.period)
        return p


def effective_window_spans(
    transmitter: ProtocolSpec, receiver: ProtocolSpec
) -> tuple[tuple[int, int], ...]:
    """Spans of ``receiver``'s windows in which a beacon of ``transmitter``
    may start and still be received, under the receiver's semantics.

    Under CONTAINED semantics a beacon of omega ticks starting at ``s`` in
    the window ``[start, end)`` is received iff ``start <= s < end - omega``:
    each span loses the transmitter's beacon length at its end, so the
    beacon must end before the window's last tick, and a window ``omega``
    ticks long or shorter contributes nothing.
    """
    windows = receiver.receptions.windows
    if receiver.radio.semantics is Semantics.CONTAINED:
        omega = transmitter.beacons.beacon_duration
        return iv.normalize([(w.start, w.end - omega) for w in windows])
    return iv.normalize([(w.start, w.end) for w in windows])


def require_one_tick(devices) -> None:
    """Raise ValueError unless every device counts time in one tick size."""
    if len({d.tick for d in devices}) > 1:
        raise ValueError(f"devices disagree on tick size: {[d.tick.tick_ns for d in devices]} ns")


# ---------------------------------------------------------------------------
# duty cycles
# ---------------------------------------------------------------------------

def transmission_duty_cycle(b: BeaconSchedule) -> Fraction:
    """Fraction of time spent transmitting (also the channel utilization)."""
    if b.count == 0:
        return Fraction(0)
    return Fraction(b.count * b.beacon_duration, b.period)


def reception_duty_cycle(c: ReceptionSchedule) -> Fraction:
    """Fraction of time spent listening."""
    return Fraction(c.listen_ticks, c.period)


def effective_rates(p: ProtocolSpec) -> tuple[Fraction, Fraction]:
    """(beta, gamma) including switching overheads: every beacon costs an
    extra d_oTx of active time and every window an extra d_oRx."""
    b, c, r = p.beacons, p.receptions, p.radio
    beta = transmission_duty_cycle(b) * (b.beacon_duration + r.d_oTx) / b.beacon_duration
    gamma = Fraction(sum(w.duration + r.d_oRx for w in c.windows), c.period)
    return beta, gamma


def total_duty_cycle(p: ProtocolSpec) -> Fraction:
    """Power-weighted activity: gamma + alpha * beta, overheads included."""
    beta, gamma = effective_rates(p)
    return gamma + p.radio.alpha * beta


# ---------------------------------------------------------------------------
# JSON protocol description format
# ---------------------------------------------------------------------------

def protocol_to_json(p: ProtocolSpec) -> dict:
    return {
        "tick_ns": p.tick.tick_ns,
        "beacons": {
            "times": list(p.beacons.emission_times),
            "omega": p.beacons.beacon_duration,
            "period": p.beacons.period,
        },
        "receptions": {
            "windows": [{"start": w.start, "d": w.duration} for w in p.receptions.windows],
            "period": p.receptions.period,
        },
        "radio": {
            "alpha": [p.radio.alpha.numerator, p.radio.alpha.denominator],
            "d_oTx": p.radio.d_oTx,
            "d_oRx": p.radio.d_oRx,
            "d_oTxRx": p.radio.d_oTxRx,
            "d_oRxTx": p.radio.d_oRxTx,
            "semantics": p.radio.semantics.value,
        },
    }


_JSON_KINDS = {int: "an integer", bool: "true or false", list: "a list", dict: "an object"}


def strict_json(value, name: str, kind: type = int, null: bool = False):
    """``value`` unchanged when it is a JSON value of ``kind`` (never a bool
    for ``int``), or null where ``null`` allows it.  Anything else raises
    ValueError: ``1.9``, ``"3"`` or ``"false"`` are refused, not coerced."""
    if type(value) is kind or (null and value is None):
        return value
    what = _JSON_KINDS[kind] + (" or null" if null else "")
    raise ValueError(f"{name} must be {what}, got {value!r}")


def strict_object(value, name: str, keys) -> dict:
    """``value`` unchanged when it is a JSON object whose keys all lie in
    ``keys``; any other key raises ValueError instead of being ignored."""
    strict_json(value, name, dict)
    unknown = sorted(set(value).difference(keys))
    if unknown:
        raise ValueError(f"{name} has unknown keys {unknown}")
    return value


def protocol_from_json(doc: dict) -> ProtocolSpec:
    """Inverse of protocol_to_json.  Every field must already have its JSON
    type (see strict_json) and every object only the keys protocol_to_json
    writes (see strict_object); nothing is coerced or ignored.
    ``beacons.period`` may be null only for an empty beacon list: a beacon
    list that does not repeat is refused, as BeaconSchedule refuses it.  The
    one exception is ``receptions.repetitive``, which older files carry:
    ``true`` is accepted and changes nothing, while ``false``, a window list
    that does not repeat, is refused."""
    strict_object(doc, "protocol", ("tick_ns", "beacons", "receptions", "radio"))
    b = strict_object(doc["beacons"], "beacons", ("times", "omega", "period"))
    c = strict_object(doc["receptions"], "receptions", ("windows", "period", "repetitive"))
    r = strict_object(
        doc["radio"], "radio", ("alpha", "d_oTx", "d_oRx", "d_oTxRx", "d_oRxTx", "semantics")
    )
    omega = strict_json(b["omega"], "beacons.omega")
    times = strict_json(b["times"], "beacons.times", list)
    beacons = BeaconSchedule(
        emission_times=tuple(strict_json(t, "beacons.times[]") for t in times),
        beacon_duration=omega,
        period=strict_json(b.get("period"), "beacons.period", null=True),
    )
    windows = []
    for w in strict_json(c["windows"], "receptions.windows", list):
        strict_object(w, "receptions.windows[]", ("start", "d"))
        start, d = strict_json(w["start"], "window start"), strict_json(w["d"], "window d")
        windows.append(ReceptionWindow(start, d))
    if not strict_json(c.get("repetitive", True), "receptions.repetitive", bool):
        raise ValueError(
            "receptions.repetitive must be true: only a repetitive reception schedule is modelled"
        )
    receptions = ReceptionSchedule(tuple(windows), strict_json(c["period"], "receptions.period"))
    alpha = strict_json(r["alpha"], "radio.alpha", list)
    num, den = (strict_json(x, "radio.alpha[]") for x in alpha)
    if den == 0:
        raise ValueError("radio.alpha has a zero denominator")
    radio = RadioModel(
        alpha=Fraction(num, den),
        omega=omega,
        d_oTx=strict_json(r.get("d_oTx", 0), "radio.d_oTx"),
        d_oRx=strict_json(r.get("d_oRx", 0), "radio.d_oRx"),
        d_oTxRx=strict_json(r.get("d_oTxRx", 0), "radio.d_oTxRx"),
        d_oRxTx=strict_json(r.get("d_oRxTx", 0), "radio.d_oRxTx"),
        semantics=Semantics(r.get("semantics", "ideal")),
    )
    tick = TimeBase(strict_json(doc.get("tick_ns", 1000), "tick_ns"))
    return ProtocolSpec(beacons, receptions, radio, tick)


def write_json(doc, fh) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline: the
    one layout of every JSON file this package writes, in one ``write``."""
    fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


#: Lines of a CSV file joined into one ``write`` call.
CSV_BLOCK_LINES = 1024


def write_csv(header, rows, fh) -> None:
    """``header`` and then each tuple of ``rows`` as comma-separated cells
    ending in ``\\r\\n``, on a text file opened with ``newline=""``: the
    one layout of every CSV file this package writes.  Rows hold two or
    more cells, each an int, a float, ``""`` for a blank or a plain word;
    none needs quoting, so the bytes are those ``csv.writer`` writes for
    the same cells (``%s`` of a float is its ``repr``).  Lines go out
    joined in blocks of ``CSV_BLOCK_LINES``: one ``write`` per block, and
    memory bounded by one block however many rows come."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    fh.write(line % tuple(header))
    lines = map(line.__mod__, rows)
    # every line ends in \r\n, so only an exhausted iterator joins to ""
    while block := "".join(islice(lines, CSV_BLOCK_LINES)):
        fh.write(block)


def save_protocol(p: ProtocolSpec, path) -> None:
    with open(path, "w") as fh:
        write_json(protocol_to_json(p), fh)


def load_protocol(path) -> ProtocolSpec:
    with open(path) as fh:
        return protocol_from_json(json.load(fh))
