"""Command-line front end: bound sweeps, protocol generation, pair analysis
and collision simulation, all emitting CSV/JSON for external plotting.

Exit codes: 0 success, 2 usage error, 3 a refusal: any
``ndlab.errors.DomainError``, whose class the JSON ``error`` field names.
Diagnostics go to stderr as single-line JSON, except where argparse refuses
the command line (an unknown command, kind or flag, a missing argument, a
value its type rejects): it prints the usage line and then
``nd-lab <cmd>: error: ...``, and exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import count

from . import bounds
from .coverage import (
    DEFAULT_HYPERPERIOD_BUDGET,
    analyze,
    build_coverage_map,
    worst_case_latency_oracle,
)
from .errors import DomainError
from .protocols import (
    DifferenceSet,
    builtin_difference_set,
    gen_diffcode,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
    gen_searchlight_striped,
    gen_uconnect,
)
from .schedule import (
    RadioModel,
    Semantics,
    TimeBase,
    load_protocol,
    protocol_from_json,
    protocol_to_json,
    reception_duty_cycle,
    strict_json,
    strict_object,
    transmission_duty_cycle,
    write_csv,
    write_json,
)
from .simulator import OffsetSampling, SimConfig, simulate_multi

SCHEMA_VERSION = 1


def _fail(code: int, kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}, sort_keys=True), file=sys.stderr)
    return code


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


@contextmanager
def _output(path):
    """``path`` opened for writing, or stdout when it is absent or ``-``.
    A file is removed again when the block fails, so a failed command
    leaves no partial output behind."""
    if path in (None, "-"):
        yield sys.stdout
        return
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def _radio(args, tick: TimeBase, omega: int, **extra) -> RadioModel:
    """The radio of the shared rate flags; ``extra`` sets the other fields."""
    return RadioModel(
        alpha=args.alpha,
        omega=omega,
        d_oTx=tick.ticks_from_us(args.doTx_us),
        d_oRx=tick.ticks_from_us(args.doRx_us),
        **extra,
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _parse_sweep(text: str):
    try:
        name, rng = text.split("=")
        lo, hi, step = (Fraction(x) for x in rng.split(":"))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            "sweep must look like eta=0.001:1.0:0.001"
        ) from exc
    if name != "eta":
        raise argparse.ArgumentTypeError("only eta sweeps are supported")
    if step <= 0 or lo <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("bad sweep range")
    return lo, hi, step


#: Rows one ``nd-lab bounds`` run may write; it refuses a larger grid with
#: exit 3 before it builds the grid or opens --out.
BOUNDS_ROW_BUDGET = 1_000_000


class TooManyRows(DomainError):
    """The grid has more rows than ``BOUNDS_ROW_BUDGET``."""


def cmd_bounds(args) -> int:
    if args.deviation == (args.sweep is not None):
        return _fail(2, "usage", "exactly one of --sweep or --deviation is required")
    tick = TimeBase(args.tick_ns)
    omega = tick.ticks_from_us(args.omega_us)
    # refuses a non-positive omega or alpha before --out opens
    radio = _radio(args, tick, omega, semantics=Semantics.CONTAINED)
    n_rows = _bounds_row_count(args)
    if n_rows > BOUNDS_ROW_BUDGET:
        raise TooManyRows(f"{n_rows} rows exceed the budget of {BOUNDS_ROW_BUDGET} rows")
    # every k and every CSV cell is a float: a grid past the float range
    # has no rows to write
    try:
        if args.deviation:
            header = bounds.DEVIATION_HEADER
            rows = bounds.deviation_rows(
                _grid(args.beta_lo, args.beta_hi, args.beta_steps),
                _k_grid(args.k_lo, args.k_hi, args.beta_steps),
                omega,
                radio,
            )
        else:
            header = bounds.SWEEP_HEADER
            rows = bounds.sweep_rows(*args.sweep, omega, radio.alpha)
        with _output(args.out) as out:
            write_csv(header, rows, out)
    except OverflowError as exc:
        raise ValueError(f"a grid value exceeds the float range: {exc}") from exc
    return 0


def _bounds_row_count(args) -> int:
    """Rows of the sweep, or at most as many as the deviation grid has,
    counted from the flags alone; a broken deviation grid raises
    ValueError."""
    if not args.deviation:
        lo, hi, step = args.sweep
        return (hi - lo) // step + 1
    if not (
        1 <= args.k_lo <= args.k_hi
        and 0 < args.beta_lo <= args.beta_hi <= 1
        and args.beta_steps >= 2
    ):
        raise ValueError(
            "deviation grid needs 1 <= k_lo <= k_hi, 0 < beta_lo <= beta_hi <= 1"
            " and beta_steps >= 2"
        )
    # one row per beta and distinct k; _k_grid has at most one k per step
    return args.beta_steps * min(args.beta_steps, args.k_hi - args.k_lo + 1)


def _grid(lo: Fraction, hi: Fraction, steps: int):
    return [lo + (hi - lo) * j / (steps - 1) for j in range(steps)]


def _k_grid(k_lo: int, k_hi: int, points: int):
    return sorted(
        {min(k_hi, max(k_lo, round(k_lo * (k_hi / k_lo) ** (j / (points - 1)))))
         for j in range(points)}
    )


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    tick = TimeBase(args.tick_ns)
    omega = tick.ticks_from_us(args.omega_us)
    radio = _radio(
        args,
        tick,
        omega,
        d_oTxRx=tick.ticks_from_us(args.doTxRx_us),
        d_oRxTx=tick.ticks_from_us(args.doRxTx_us),
        semantics=Semantics.CONTAINED if args.contained else Semantics.IDEAL,
    )
    proto = args.generator(args, tick.ticks_from_us, omega, radio)
    with _output(args.out) as out:
        write_json(protocol_to_json(replace(proto, tick=tick)), out)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    e = load_protocol(args.transmitter)
    f = e if args.receiver == args.transmitter else load_protocol(args.receiver)
    beta = transmission_duty_cycle(e.beacons)
    gamma = reception_duty_cycle(f.receptions)
    cov = build_coverage_map(e, f)
    rep = analyze(cov)
    oracle = worst_case_latency_oracle(e, f, max_hyperperiod=args.max_hyperperiod)
    report = {
        "schema": SCHEMA_VERSION,
        "deterministic": rep.deterministic,
        "redundant": rep.redundant,
        "coverage_lambda": rep.coverage_lambda,
        "min_beacons": rep.min_beacons,
        "uncovered": [list(span) for span in rep.uncovered],
        "beta": [beta.numerator, beta.denominator],
        "gamma": [gamma.numerator, gamma.denominator],
        "oracle_latency_ticks": oracle,
        "unbounded": oracle is None,
    }
    if beta > 0 and oracle is not None:
        bound = bounds.bound_unidirectional(gamma, beta, e.beacons.beacon_duration)
        report["bound_unidirectional_ticks"] = float(bound)
        report["gap_ratio"] = float((Fraction(oracle) - bound) / bound)
    # opened only now, so that a refused pair leaves no coverage CSV; if
    # either file cannot be written, the other is removed too
    with ExitStack() as files:
        if args.coverage_csv:
            cov.write_csv(files.enter_context(_output(args.coverage_csv)))
        write_json(report, files.enter_context(_output(args.out)))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _config_int(doc: dict, key: str, default: int | None = None) -> int | None:
    """An integer field of a simulate config, or null where the default is
    null; floats, strings and booleans are refused rather than coerced."""
    return strict_json(doc.get(key, default), f"config field {key!r}", null=default is None)


def _latency_quantiles(latencies) -> dict | None:
    """min, nearest-rank p50 and p95, and max of the discovered trials'
    latencies; None when no trial discovered."""
    found = sorted(lat for lat in latencies if lat is not None)
    if not found:
        return None
    n = len(found)
    return {
        "min": found[0],
        "p50": found[-(-50 * n // 100) - 1],
        "p95": found[-(-95 * n // 100) - 1],
        "max": found[-1],
    }


_CONFIG_KEYS = ("devices", "trials", "seed", "horizon", "offset_sampling", "latency_budget")


def cmd_simulate(args) -> int:
    """Run a simulate config and write trials.csv and summary.json.

    The trials come from simulate_multi, where a criterion-7 trial costs
    about 9 us on one CPU, two thirds of it the reseed of the phase
    generator (see simulator._phase_sampler).  The rows of trials.csv are zipped from
    column iterators: a ``%d;...;%d`` format of the phases, the latencies
    with ``""`` for a trial that never discovered, and the flags as 0/1.
    """
    with open(args.config) as fh:
        doc = strict_object(json.load(fh), "config", _CONFIG_KEYS)
    devices = tuple(
        protocol_from_json(d)
        for d in strict_json(doc["devices"], "config field 'devices'", list)
    )
    cfg = SimConfig(
        devices=devices,
        trials=_config_int(doc, "trials", 1),
        seed=_config_int(doc, "seed", 0),
        horizon=_config_int(doc, "horizon"),
        offset_sampling=OffsetSampling(doc.get("offset_sampling", "uniform_random")),
        latency_budget=_config_int(doc, "latency_budget"),
    )
    # with no sender at all no beacon can collide
    senders = sum(1 for d in devices if d.beacons.count > 0)
    beta = transmission_duty_cycle(devices[0].beacons)
    model_p = bounds.collision_probability(senders, beta) if senders else 0.0
    outcome = simulate_multi(cfg)

    emp = outcome.first_collision_rate
    n = outcome.trials
    sigma = math.sqrt(model_p * (1.0 - model_p) / n) if n else 0.0
    summary = {
        "schema": SCHEMA_VERSION,
        "trials": n,
        "seed": cfg.seed,
        "senders": senders,
        "beta": [beta.numerator, beta.denominator],
        "failure_rate": float(outcome.failure_rate),
        "first_collision_rate": float(emp),
        "collision_model_probability": model_p,
        "collision_rate_3sigma": 3.0 * sigma,
        "collision_rate_within_3sigma": abs(float(emp) - model_p) <= 3.0 * sigma,
        "latency_budget": cfg.latency_budget,
        "latency_ticks": _latency_quantiles(outcome.latencies),
    }

    fmt = ";".join(["%d"] * len(devices))
    rows = zip(
        count(),
        map(fmt.__mod__, outcome.phases),
        ["" if lat is None else lat for lat in outcome.latencies],
        map(int, outcome.first_beacon_collided),
        map(int, outcome.failed),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    # if either file cannot be written, the other is removed too
    with ExitStack() as files:
        trials, report = (
            files.enter_context(_output(os.path.join(args.out_dir, name)))
            for name in ("trials.csv", "summary.json")
        )
        write_csv(
            ("trial_id", "phases", "latency_ticks", "collided_first", "failed"), rows, trials
        )
        write_json(summary, report)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_rate_flags(p: argparse.ArgumentParser):
    p.add_argument("--omega-us", type=int, required=True, help="beacon length in us")
    p.add_argument("--tick-ns", type=int, default=1000)
    p.add_argument("--alpha", type=_rational, default=Fraction(1))
    p.add_argument("--doTx-us", type=int, default=0)
    p.add_argument("--doRx-us", type=int, default=0)


def _difference_set(args) -> DifferenceSet:
    if args.elements:
        return DifferenceSet(args.modulus, tuple(int(x) for x in args.elements.split(",")))
    return builtin_difference_set(args.modulus)


def _optimal_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--inv-gamma", type=int, required=True, metavar="K")
    sp.add_argument("--beta", type=_rational, required=True)
    sp.add_argument("--window-us", type=int, default=None)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_optimal_unidirectional(
        a.inv_gamma, a.beta, omega, radio, None if a.window_us is None else us(a.window_us)
    ))


def _pi0m_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d-us", type=int, required=True)
    sp.add_argument("--delta", type=int, default=1)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_pi0m(
        a.m, us(a.d_us), omega, radio, a.delta
    ))


def _disco_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--p1", type=int, required=True)
    sp.add_argument("--p2", type=int, required=True)
    sp.add_argument("--slot-us", type=int, required=True)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_disco(
        a.p1, a.p2, us(a.slot_us), omega, radio
    ))


def _searchlight_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--t-slots", type=int, required=True)
    sp.add_argument("--slot-us", type=int, required=True)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_searchlight_striped(
        a.t_slots, us(a.slot_us), omega, radio
    ))


def _uconnect_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--slot-us", type=int, required=True)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_uconnect(
        a.p, us(a.slot_us), omega, radio
    ))


def _diffcode_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--modulus", type=int, required=True)
    sp.add_argument("--elements", default=None, help="comma-separated residues")
    sp.add_argument("--slot-us", type=int, required=True)
    sp.set_defaults(generator=lambda a, us, omega, radio: gen_diffcode(
        _difference_set(a), us(a.slot_us), omega, radio
    ))


#: generate kind -> (help, add_flags), in the order ``generate -h`` lists
#: them; add_flags adds the kind's own flags and, beside them, its
#: generator(args, ticks_from_us, omega, radio)
_KINDS = {
    "optimal": ("latency-optimal one-way pair", _optimal_flags),
    "pi0m": ("periodic-interval schedule", _pi0m_flags),
    "disco": ("coprime-period slotted schedule", _disco_flags),
    "searchlight": ("anchor-plus-probe slotted schedule", _searchlight_flags),
    "uconnect": ("prime-period slotted schedule", _uconnect_flags),
    "diffcode": ("difference-set slotted schedule", _diffcode_flags),
}


def _bounds_flags(b: argparse.ArgumentParser, kind: None):
    b.add_argument("--sweep", type=_parse_sweep, help="eta=lo:hi:step")
    b.add_argument("--deviation", action="store_true",
                   help="relaxed-vs-ideal deviation grid instead of an eta sweep")
    _add_rate_flags(b)
    b.add_argument("--beta-lo", type=_rational, default=Fraction(11, 20000))
    b.add_argument("--beta-hi", type=_rational, default=Fraction(111, 2000))
    b.add_argument("--beta-steps", type=int, default=12)
    b.add_argument("--k-lo", type=int, default=19)
    b.add_argument("--k-hi", type=int, default=1818)
    b.add_argument("--out", default=None)


def _generate_flags(g: argparse.ArgumentParser, kind: str | None):
    """The kind table, with flags and a help action on ``kind`` alone."""
    gsub = g.add_subparsers(dest="kind", required=True, prog=g.prog)
    for name, (kind_help, add_flags) in _KINDS.items():
        sp = gsub.add_parser(name, help=kind_help, add_help=name == kind)
        if name != kind:
            continue
        add_flags(sp)
        _add_rate_flags(sp)
        sp.add_argument("--contained", action="store_true",
                        help="beacons must fit whole windows to be received")
        sp.add_argument("--doTxRx-us", type=int, default=0)
        sp.add_argument("--doRxTx-us", type=int, default=0)
        sp.add_argument("--out", default=None)


def _analyze_flags(a: argparse.ArgumentParser, kind: None):
    a.add_argument("transmitter")
    a.add_argument("receiver")
    a.add_argument("--max-hyperperiod", type=int, default=DEFAULT_HYPERPERIOD_BUDGET,
                   help="ticks of joint time past the first in-range beacon the oracle "
                        "may scan; exit 3 if the worst case needs more")
    a.add_argument("--coverage-csv", default=None)
    a.add_argument("--out", default=None)


def _simulate_flags(s: argparse.ArgumentParser, kind: None):
    s.add_argument("config")
    s.add_argument("--out-dir", default=".")


#: command -> (help, fn, add_flags), in the order ``nd-lab -h`` lists them;
#: add_flags(parser, kind) adds the command's flags, where kind is the
#: generate kind argv names and None for every other command
_COMMANDS = {
    "bounds": ("evaluate latency bounds over rate grids", cmd_bounds, _bounds_flags),
    "generate": ("emit a protocol description as JSON", cmd_generate, _generate_flags),
    "analyze": ("coverage verdict and oracle latency of a pair", cmd_analyze, _analyze_flags),
    "simulate": ("run seeded multi-device trials", cmd_simulate, _simulate_flags),
}


def _dispatch_words(argv) -> tuple[str | None, str | None]:
    """The command ``argv`` names and, for ``generate``, its kind; None
    where argv names none.  These are the words build_parser gives flags
    to.  Neither the top-level parser nor ``generate`` has an option that
    takes a value, so argparse dispatches on the first two words that do
    not start with ``-``."""
    words = [w for w in argv if not w.startswith("-")][:2]
    command = words[0] if words else None
    kind = words[1] if command == "generate" and len(words) == 2 else None
    return command, kind


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every command, with flags and a help action on the
    command ``argv`` names alone; for ``generate`` that is the kind table,
    likewise.  Every command keeps its subparser, help line and ``fn``, and
    a ``generate`` call every kind's, so help, choices and usage errors read
    as those of the full tree; each ``prog`` is given, not formatted."""
    ap = argparse.ArgumentParser(
        prog="nd-lab",
        description="worst-case latency lab for duty-cycled neighbor discovery",
    )
    sub = ap.add_subparsers(dest="command", required=True, prog=ap.prog)
    command, kind = _dispatch_words(argv)
    for name, (cmd_help, fn, add_flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd_help, add_help=name == command)
        sp.set_defaults(fn=fn)
        if name == command:
            add_flags(sp, kind)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        return _fail(3, type(exc).__name__, str(exc))
    except (OSError, KeyError, ValueError) as exc:
        return _fail(2, type(exc).__name__, str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
