import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from ndlab import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    analyze,
    build_coverage_map,
    load_protocol,
    protocol_to_json,
    worst_case_latency_oracle,
)
from ndlab import bounds as bd
from ndlab import cli, errors, simulator
from ndlab.cli import _grid, _k_grid, build_parser, main
from ndlab.errors import DomainError, HyperperiodTooLarge
from ndlab.protocols import (
    DifferenceSet,
    builtin_difference_set,
    gen_diffcode,
    gen_disco,
    gen_optimal_unidirectional,
    gen_pi0m,
    gen_searchlight_striped,
    gen_uconnect,
)
from ndlab.schedule import TimeBase
from helpers import (
    MALFORMED_PROTOCOL_EDITS,
    beaconer,
    c7_devices,
    listener,
    one_shot,
    with_field,
)


def run(args):
    return main(args)


# (argv after "generate", tick_ns, the library call the document must equal)
_GENERATE_CASES = {
    "optimal": (
        ["optimal", "--inv-gamma", "4", "--beta", "1/100", "--omega-us", "1"],
        1000,
        lambda: gen_optimal_unidirectional(4, F(1, 100), 1),
    ),
    "optimal-window": (
        ["optimal", "--inv-gamma", "3", "--beta", "1/50", "--omega-us", "1",
         "--window-us", "10", "--contained", "--tick-ns", "500"],
        500,
        lambda: gen_optimal_unidirectional(
            3, F(1, 50), 2, RadioModel(omega=2, semantics=Semantics.CONTAINED), 20
        ),
    ),
    "pi0m": (
        ["pi0m", "--m", "3", "--d-us", "40", "--delta", "2", "--omega-us", "2"],
        1000,
        lambda: gen_pi0m(3, 40, 2, RadioModel(omega=2), 2),
    ),
    "disco": (
        ["disco", "--p1", "3", "--p2", "5", "--slot-us", "20", "--omega-us", "2",
         "--alpha", "3/2", "--doTx-us", "1", "--doRx-us", "2", "--doTxRx-us", "1",
         "--doRxTx-us", "3"],
        1000,
        lambda: gen_disco(3, 5, 20, 2, RadioModel(
            alpha=F(3, 2), omega=2, d_oTx=1, d_oRx=2, d_oTxRx=1, d_oRxTx=3
        )),
    ),
    "searchlight": (
        ["searchlight", "--t-slots", "4", "--slot-us", "10", "--omega-us", "1",
         "--tick-ns", "250"],
        250,
        lambda: gen_searchlight_striped(4, 40, 4, RadioModel(omega=4)),
    ),
    "uconnect": (
        ["uconnect", "--p", "5", "--slot-us", "20", "--omega-us", "2"],
        1000,
        lambda: gen_uconnect(5, 20, 2, RadioModel(omega=2)),
    ),
    "diffcode": (
        ["diffcode", "--modulus", "7", "--slot-us", "20", "--omega-us", "2"],
        1000,
        lambda: gen_diffcode(builtin_difference_set(7), 20, 2, RadioModel(omega=2)),
    ),
    "diffcode-elements": (
        ["diffcode", "--modulus", "7", "--elements", "0,1,3", "--slot-us", "20",
         "--omega-us", "2", "--contained"],
        1000,
        lambda: gen_diffcode(
            DifferenceSet(7, (0, 1, 3)), 20, 2,
            RadioModel(omega=2, semantics=Semantics.CONTAINED),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_GENERATE_CASES))
def test_generate_round_trips_through_loader(tmp_path, case):
    argv, tick_ns, make = _GENERATE_CASES[case]
    out = tmp_path / "p.json"
    assert run(["generate", *argv, "--out", str(out)]) == 0
    want = replace(make(), tick=TimeBase(tick_ns))
    assert json.loads(out.read_text()) == protocol_to_json(want)
    assert load_protocol(out) == want


def test_generate_rejects_non_coprime_disco(tmp_path, capsys):
    rc = run([
        "generate", "disco", "--p1", "4", "--p2", "6", "--slot-us", "10",
        "--omega-us", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"


def test_generate_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "optimal", "--beta", "1/100", "--omega-us", "1"])
    assert exc.value.code == 2


#: the flags every generate kind shares, after its own
_SHARED_GENERATE_FLAGS = {
    "--omega-us", "--tick-ns", "--alpha", "--doTx-us", "--doRx-us",
    "--contained", "--doTxRx-us", "--doRxTx-us", "--out",
}
_KINDS = sorted({argv[0] for argv, _, _ in _GENERATE_CASES.values()})


def _own_flags(kind: str) -> set[str]:
    """The flags of ``kind`` that the round-trip cases use, which are all
    of its own flags."""
    return {
        word
        for argv, _, _ in _GENERATE_CASES.values()
        if argv[0] == kind
        for word in argv
        if word.startswith("--")
    } - _SHARED_GENERATE_FLAGS


@pytest.mark.parametrize("kind", _KINDS)
def test_generate_kind_help_lists_its_flags_and_the_shared_ones(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        run(["generate", kind, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert listed == _own_flags(kind) | _SHARED_GENERATE_FLAGS | {"--help"}


#: every flag of each command but generate, as its help lists them
_COMMAND_FLAGS = {
    "bounds": {
        "--sweep", "--deviation", "--omega-us", "--tick-ns", "--alpha", "--doTx-us",
        "--doRx-us", "--beta-lo", "--beta-hi", "--beta-steps", "--k-lo", "--k-hi", "--out",
    },
    "analyze": {"--max-hyperperiod", "--coverage-csv", "--out"},
    "simulate": {"--out-dir"},
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert listed == _COMMAND_FLAGS[command] | {"--help"}


@pytest.mark.parametrize("kind", _KINDS)
def test_generate_kind_without_flags_exits_2_with_its_usage(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        run(["generate", kind])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: nd-lab generate {kind} ")


def _subparsers(parser: argparse.ArgumentParser) -> dict | None:
    """The choices of ``parser``'s subparser action, or None if it has none."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else None


#: what a call naming another command finds under generate
_NO_KIND_TABLE = object()


@pytest.mark.parametrize(
    "argv, flagged",
    [
        (["analyze", "a", "b"], _NO_KIND_TABLE),
        (["generate", "--help"], set()),
        (["generate", "pi0m", "--m", "3"], {"pi0m"}),
        (["generate", "--", "diffcode"], {"diffcode"}),
    ],
)
def test_build_parser_adds_flags_to_the_named_kind_alone(argv, flagged):
    kinds = _subparsers(_subparsers(build_parser(argv))["generate"])
    if flagged is _NO_KIND_TABLE:
        assert kinds is None
        return
    assert list(kinds) == ["optimal", "pi0m", "disco", "searchlight", "uconnect", "diffcode"]
    assert {kind for kind, sp in kinds.items() if not _bare(sp)} == flagged


def _bare(parser: argparse.ArgumentParser) -> bool:
    """No actions at all: neither flags nor a help action."""
    return not parser._actions


@pytest.mark.parametrize(
    "argv, flagged",
    [
        (["analyze", "a", "b"], {"analyze"}),
        (["bounds", "--sweep", "eta=1/2:1:1/2", "--omega-us", "1"], {"bounds"}),
        (["simulate", "c.json"], {"simulate"}),
        (["generate", "pi0m"], {"generate"}),
        (["-h"], set()),
        ([], set()),
        (["nosuch"], set()),
    ],
)
def test_build_parser_adds_flags_to_the_named_command_alone(argv, flagged):
    commands = _subparsers(build_parser(argv))
    assert list(commands) == ["bounds", "generate", "analyze", "simulate"]
    assert {name for name, sp in commands.items() if not _bare(sp)} == flagged
    if "generate" in flagged:
        # generate's one addition is its kind table
        assert [a.dest for a in commands["generate"]._actions] == ["help", "kind"]


def _tree(parser: argparse.ArgumentParser):
    """``parser`` and every parser below it, depth first."""
    yield parser
    for sp in (_subparsers(parser) or {}).values():
        yield from _tree(sp)


@pytest.mark.parametrize(
    "argv",
    [[], *([command] for command in cli._COMMANDS), *(["generate", kind] for kind in cli._KINDS)],
    ids=lambda argv: " ".join(argv) or "no-words",
)
def test_only_the_parsers_argv_names_get_a_help_action(argv):
    ap = build_parser(argv)
    commands = _subparsers(ap)
    assert [sp.prog for sp in commands.values()] == [f"nd-lab {c}" for c in cli._COMMANDS]
    if argv[:1] == ["generate"]:
        kinds = _subparsers(commands["generate"])
        assert [sp.prog for sp in kinds.values()] == [f"nd-lab generate {k}" for k in cli._KINDS]
    # the top-level parser and each parser argv names, in that order, and
    # no other parser, start with a help action
    helped = [
        p.prog for p in _tree(ap)
        if p._actions and isinstance(p._actions[0], argparse._HelpAction)
    ]
    assert helped == [" ".join(["nd-lab", *argv[:i]]) for i in range(len(argv) + 1)]


def _exit_and_lines(argv, capsys) -> tuple[int, list[str], list[str]]:
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out.splitlines(), err.splitlines()


def test_help_and_kind_errors_show_the_full_tree(capsys, monkeypatch):
    # flags are built only for the command a call names, and the kind table
    # only for a call that names generate; every line that lists the
    # commands or the kinds must still list all of them
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = _exit_and_lines(["-h"], capsys)
    assert code == 0
    listed = out.index("  {bounds,generate,analyze,simulate}")
    assert out[listed + 1:listed + 5] == [
        "    bounds              evaluate latency bounds over rate grids",
        "    generate            emit a protocol description as JSON",
        "    analyze             coverage verdict and oracle latency of a pair",
        "    simulate            run seeded multi-device trials",
    ]

    code, out, _ = _exit_and_lines(["generate", "-h"], capsys)
    assert code == 0
    listed = out.index("  {optimal,pi0m,disco,searchlight,uconnect,diffcode}")
    assert out[listed + 1:listed + 7] == [
        "    optimal             latency-optimal one-way pair",
        "    pi0m                periodic-interval schedule",
        "    disco               coprime-period slotted schedule",
        "    searchlight         anchor-plus-probe slotted schedule",
        "    uconnect            prime-period slotted schedule",
        "    diffcode            difference-set slotted schedule",
    ]

    # whether the choices are quoted differs between Python versions
    code, _, err = _exit_and_lines(["generate", "nosuch"], capsys)
    assert code == 2
    assert err[-1].replace("'", "") == (
        "nd-lab generate: error: argument kind: invalid choice: nosuch (choose from "
        "optimal, pi0m, disco, searchlight, uconnect, diffcode)"
    )

    code, _, err = _exit_and_lines(["generate"], capsys)
    assert code == 2
    assert err[-1] == "nd-lab generate: error: the following arguments are required: kind"

    code, _, err = _exit_and_lines(["nosuch"], capsys)
    assert code == 2
    assert err[-1].replace("'", "") == (
        "nd-lab: error: argument command: invalid choice: nosuch (choose from "
        "bounds, generate, analyze, simulate)"
    )

    code, _, err = _exit_and_lines([], capsys)
    assert code == 2
    assert err[-1] == "nd-lab: error: the following arguments are required: command"

    # the top-level parser reports a flag no parser knows, with its usage
    code, _, err = _exit_and_lines(["simulate", "c.json", "--bogus"], capsys)
    assert code == 2
    assert err == [
        "usage: nd-lab [-h] {bounds,generate,analyze,simulate} ...",
        "nd-lab: error: unrecognized arguments: --bogus",
    ]


def test_no_top_level_or_generate_option_takes_a_value():
    # build_parser reads the command and kind as the first argv words that
    # do not start with "-"; an option taking a value (say --config FILE)
    # would make its value such a word and build the wrong subtree
    ap = build_parser(["generate"])
    parsers = [ap, _subparsers(ap)["generate"]]
    options = [a for p in parsers for a in p._actions if a.option_strings]
    assert options
    assert all(a.nargs == 0 for a in options), [a.option_strings for a in options]


def test_generate_refuses_a_large_non_difference_set_at_once(tmp_path, capsys):
    # two residues give two differences, never the 10^8 + 6 a modulus of
    # 10^8 + 7 needs: refused from the count, with no table per residue
    out = tmp_path / "p.json"
    start = time.perf_counter()
    rc = run([
        "generate", "diffcode", "--modulus", "100000007", "--elements", "0,1",
        "--slot-us", "10", "--omega-us", "1", "--out", str(out),
    ])
    assert time.perf_counter() - start < 1
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("not a perfect difference set")
    assert not out.exists()


def test_bounds_sweep_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run([
        "bounds", "--sweep", "eta=0.01:0.05:0.01", "--alpha", "1",
        "--omega-us", "32", "--out", str(out),
    ])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    row = rows[1]  # eta = 0.02
    assert float(row["eta"]) == 0.02
    assert float(row["symmetric"]) == 32 * 10000
    assert float(row["symmetric_approx"]) == 32 * 10000
    assert float(row["slotted_full_duplex"]) == 32 * 10000
    assert float(row["slotted_two_beacon"]) == 32 * 11250
    assert float(row["mutual_exclusive"]) == 32 * 5000
    assert row["symmetric_branch"] == "ceil"


def test_bounds_deviation_grid(tmp_path):
    out = tmp_path / "dev.csv"
    rc = run([
        "bounds", "--deviation", "--omega-us", "32",
        "--doRx-us", "140", "--doTx-us", "140",
        "--beta-steps", "4", "--out", str(out),
    ])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    devs = [float(r["deviation"]) for r in rows]
    assert min(devs) == pytest.approx(4.378, abs=0.01)
    assert max(devs) == pytest.approx(4.676, abs=0.01)


@pytest.mark.parametrize(
    "flags",
    [
        ["--k-lo", "0"],
        ["--k-lo", "-5"],
        ["--k-lo", "20", "--k-hi", "10"],
        ["--beta-lo", "1/2", "--beta-hi", "1/4"],
        ["--beta-lo", "0"],
        ["--beta-lo", "1/2", "--beta-hi", "3"],
        ["--omega-us", "0"],
        ["--beta-steps", "0"],
        ["--beta-steps", "1"],
        ["--beta-steps", "-3"],
        # k_hi / k_lo has no float
        ["--k-hi", "1" + "0" * 400],
    ],
)
def test_bounds_deviation_refuses_broken_grid(tmp_path, capsys, flags):
    out = tmp_path / "dev.csv"
    rc = run(["bounds", "--deviation", "--omega-us", "32", "--out", str(out)] + flags)
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, detail",
    [
        (["--alpha=-1"], "alpha must be positive"),
        (["--alpha", "0"], "alpha must be positive"),
        (["--omega-us", "0"], "omega must be >= 1 tick"),
        (["--omega-us", "-3"], "omega must be >= 1 tick"),
    ],
)
def test_bounds_sweep_refuses_non_positive_omega_and_alpha(tmp_path, capsys, flags, detail):
    out = tmp_path / "sweep.csv"
    argv = ["bounds", "--sweep", "eta=0.5:1:0.5", "--omega-us", "10", "--out", str(out)]
    assert run(argv + flags) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [{"error": "ValueError", "detail": detail}]
    assert not out.exists()


def test_bounds_sweep_past_the_float_range_is_refused(tmp_path, capsys):
    # the bound at eta = 1e-300, about omega / eta**2 ticks, has no float
    out = tmp_path / "sweep.csv"
    assert run(["bounds", "--sweep", "eta=1e-300:1:1", "--omega-us", "1", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in lines] == ["ValueError"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--deviation", "--omega-us", "100", "--beta-steps", "100000000"],
        ["--sweep", "eta=1e-9:2:1e-9", "--omega-us", "1"],
    ],
)
def test_bounds_past_the_row_budget_is_refused_before_any_row(tmp_path, capsys, flags):
    # at most 10^8 betas times 1800 ks, and 2 * 10^9 etas: counted from the
    # flags, never built
    out = tmp_path / "bounds.csv"
    start = time.perf_counter()
    assert run(["bounds", *flags, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in lines] == ["TooManyRows"]
    assert not out.exists()


def test_bounds_row_budget_admits_exactly_its_rows(tmp_path, monkeypatch):
    # under a budget of 4 rows, 4 etas and 2 betas times 2 ks pass, 5 etas and
    # 3 betas times 3 ks do not: the counts from the flags are the rows
    monkeypatch.setattr("ndlab.cli.BOUNDS_ROW_BUDGET", 4)
    out = tmp_path / "bounds.csv"
    for flags, n_rows in [
        (["--sweep", "eta=1/10:1/2:1/10"], 5),
        (["--sweep", "eta=1/10:4/10:1/10"], 4),
        (["--deviation", "--beta-steps", "3"], 9),
        (["--deviation", "--beta-steps", "2"], 4),
    ]:
        rc = run(["bounds", *flags, "--omega-us", "1", "--out", str(out)])
        assert (rc, out.exists()) == ((3, False) if n_rows > 4 else (0, True))
        if rc == 0:
            assert len(_csv_rows(out)) == n_rows
            out.unlink()


def test_bounds_requires_sweep_or_deviation(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    rc = run(["bounds", "--omega-us", "32", "--out", str(out)])
    assert rc == 2
    assert "usage" in capsys.readouterr().err
    assert not out.exists()
    # both at once are refused the same way, not resolved in favour of one
    both = ["bounds", "--sweep", "eta=1/2:1:1/2", "--deviation", "--omega-us", "32"]
    assert run(both + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in lines] == ["usage"]
    assert not out.exists()
    for sweep, why in [
        ("eta=1/2:1", "sweep must look like"),
        ("eta=a:1:1/2", "sweep must look like"),
        ("gamma=1/2:1:1/2", "only eta sweeps"),
        ("eta=1/2:1:0", "bad sweep range"),
        ("eta=1/2:1:-1/2", "bad sweep range"),
        ("eta=1:1/2:1/2", "bad sweep range"),
        ("eta=0:1:1/2", "bad sweep range"),
        ("eta=1/0:1:0.1", "sweep must look like"),
        ("eta=0.1:1:1/0", "sweep must look like"),
        ("eta=0.1:2/0:0.1", "sweep must look like"),
    ]:
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--sweep", sweep, "--omega-us", "32", "--out", str(out)])
        assert exc.value.code == 2
        assert why in capsys.readouterr().err
        assert not out.exists()


# sha256 of CSVs recorded while every cell was still float() of a public
# Fraction bound: the sweeps cross eta = 1 and eta = 2 (blank cells) with a
# fractional alpha, an alpha below 1 and a 1 us beacon on 250 ns ticks (the
# second and third were re-recorded, by the code from before non-positive
# values were refused, when they replaced a negative alpha and omega 0)
_PINNED_BOUNDS_CSVS = [
    (
        ["--sweep", "eta=0.05:2.5:0.05", "--alpha", "3/7", "--omega-us", "37"],
        "9e70b5cdec432d49f5de21ffc8dbdb1e6e9fe4f8bbc6906b295730bbbc143a7c",
    ),
    (
        ["--sweep", "eta=1/3:7/3:1/6", "--alpha=2/9", "--omega-us", "11"],
        "64d83b3438ada24e46136da19227bf0a39d98a7fdb1a58f7d87ef07eeb0cb107",
    ),
    (
        ["--sweep", "eta=0.1:2.2:0.1", "--alpha", "2", "--omega-us", "1", "--tick-ns", "250"],
        "0c24d468868db10ec72e488b034889d63ffe59c69dcdbbb4b778e0ea5e17b9ed",
    ),
    (
        ["--deviation", "--omega-us", "32", "--doRx-us", "140", "--doTx-us", "140"],
        "d35e2168cebac87ae54de54a54b1b907e7235311e1e515dfd072eefb17d67ddc",
    ),
    (
        ["--deviation", "--omega-us", "13", "--doTx-us", "3", "--beta-lo", "1/100",
         "--beta-hi", "1/2", "--k-lo", "1", "--k-hi", "50", "--beta-steps", "7"],
        "7712672e3681d72dfe0d6e587f5ecb6d7b328f7821eb7979e5777ae4086c9e07",
    ),
]


@pytest.mark.parametrize("flags, digest", _PINNED_BOUNDS_CSVS)
def test_bounds_csv_digests_are_pinned(tmp_path, flags, digest):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _cells(*values):
    """CSV text of floats of exact values, ints and strings; None is blank."""
    return ["" if v is None else str(float(v) if isinstance(v, F) else v) for v in values]


def _or_none(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return None


@st.composite
def _sweeps(draw):
    lo = draw(st.fractions(F(1, 30), F(5, 2), max_denominator=30))
    step = draw(st.fractions(F(1, 40), F(1, 2), max_denominator=40))
    hi = lo + draw(st.fractions(0, 3, max_denominator=20))
    return lo, hi, step


@settings(max_examples=60, deadline=None)
@given(
    _sweeps(),
    st.fractions(F(1, 12), 3, max_denominator=12),
    st.integers(1, 300),
    st.sampled_from((1000, 500, 250)),
)
def test_bounds_sweep_rows_equal_the_public_bounds(tmp_path_factory, sweep, alpha, omega_us, tick_ns):
    lo, hi, step = sweep
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert run([
        "bounds", "--sweep", f"eta={lo}:{hi}:{step}", f"--alpha={alpha}",
        "--omega-us", str(omega_us), "--tick-ns", str(tick_ns), "--out", str(out),
    ]) == 0
    omega = omega_us * 1000 // tick_ns
    want = []
    eta = lo
    while eta <= hi:
        sym = _or_none(bd.bound_symmetric, eta, omega, alpha)
        me = _or_none(bd.bound_mutual_exclusive, eta, omega, alpha)
        want.append(_cells(
            eta,
            *((None,) * 4 if sym is None else (sym.latency, sym.k, sym.branch, sym.gamma_o)),
            bd.bound_symmetric_approx(eta, omega, alpha),
            bd.bound_slotted_full_duplex(eta, omega, alpha),
            bd.bound_slotted_two_beacon(eta, omega, alpha),
            None if me is None else me.latency,
        ))
        eta += step
    assert _csv_rows(out) == want


@st.composite
def _beta_ranges(draw):
    lo = draw(st.fractions(F(1, 20000), 1, max_denominator=20000))
    return lo, draw(st.fractions(lo, 1, max_denominator=20000))


@st.composite
def _k_ranges(draw):
    lo = draw(st.integers(1, 60))
    return lo, draw(st.integers(lo, 3000))


@settings(max_examples=60, deadline=None)
@given(
    _beta_ranges(),
    _k_ranges(),
    st.integers(2, 8),
    st.integers(1, 200),
    st.integers(0, 200),
    st.integers(0, 200),
)
def test_bounds_deviation_rows_equal_the_public_bounds(
    tmp_path_factory, betas, ks, steps, omega, do_tx, do_rx
):
    (beta_lo, beta_hi), (k_lo, k_hi) = betas, ks
    out = tmp_path_factory.mktemp("dev") / "dev.csv"
    assert run([
        "bounds", "--deviation", "--omega-us", str(omega),
        "--doTx-us", str(do_tx), "--doRx-us", str(do_rx),
        "--beta-lo", str(beta_lo), "--beta-hi", str(beta_hi),
        "--k-lo", str(k_lo), "--k-hi", str(k_hi), "--beta-steps", str(steps),
        "--out", str(out),
    ]) == 0
    radio = RadioModel(omega=omega, d_oTx=do_tx, d_oRx=do_rx, semantics=Semantics.CONTAINED)
    want = [
        _cells(
            beta,
            F(1, k),
            bd.bound_unidirectional(F(1, k), beta, omega),
            bd.bound_relaxed(F(1, k), beta, omega, radio, count_first_beacon=True),
            bd.relaxed_deviation(beta, k, omega, radio),
        )
        for beta in _grid(beta_lo, beta_hi, steps)
        for k in _k_grid(k_lo, k_hi, steps)
    ]
    assert _csv_rows(out) == want


def test_analyze_report(tmp_path):
    e = gen_optimal_unidirectional(4, F(1, 100), 1)
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    for path, proto in ((pe, e), (pf, e)):
        path.write_text(json.dumps(protocol_to_json(proto)))
    out = tmp_path / "report.json"
    cov = tmp_path / "cov.csv"
    rc = run(["analyze", str(pe), str(pf), "--coverage-csv", str(cov), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["deterministic"] is True
    assert rep["oracle_latency_ticks"] == 400
    assert rep["bound_unidirectional_ticks"] == 400.0
    assert rep["gap_ratio"] == 0.0
    assert rep["beta"] == [1, 100] and rep["gamma"] == [1, 4]
    header = cov.read_text().splitlines()[0]
    assert header == "beacon_index,interval_start,interval_end"


def test_analyze_reads_a_file_both_arguments_name_once(tmp_path, capsys, monkeypatch):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    calls = []

    def counted(path):
        calls.append(path)
        return load_protocol(path)

    monkeypatch.setattr(cli, "load_protocol", counted)

    def analyze_both(doc) -> list[tuple[int, int, bytes, str]]:
        """(exit code, reads, report bytes, stderr) of ``analyze p p`` and
        of ``analyze p q``, with q a byte copy of p."""
        p.write_text(json.dumps(doc))
        q.write_bytes(p.read_bytes())
        runs = []
        for receiver in (p, q):
            calls.clear()
            out = tmp_path / "report.json"
            code = run(["analyze", str(p), str(receiver), "--out", str(out)])
            report = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            runs.append((code, len(calls), report, capsys.readouterr().err))
        return runs

    doc = protocol_to_json(gen_disco(3, 5, 20, 2))
    (code, reads, report, err), twice = analyze_both(doc)
    assert (code, reads, err) == (0, 1, "") and report
    assert twice == (0, 2, report, "")

    # a malformed file is refused alike, whether read once or twice
    (code, reads, report, err), twice = analyze_both(with_field(doc, "beacons.omega", 1.9))
    assert (code, reads, report) == (2, 1, b"") and len(err.splitlines()) == 1
    assert twice == (2, 1, b"", err)


def test_analyze_non_deterministic_reports_uncovered(tmp_path):
    e = beaconer([0], 10)
    f = listener([(0, 3)], 10)
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(protocol_to_json(e)))
    pf.write_text(json.dumps(protocol_to_json(f)))
    out = tmp_path / "report.json"
    rc = run(["analyze", str(pe), str(pf), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["deterministic"] is False
    assert rep["unbounded"] is True
    assert rep["uncovered"] == [[3, 10]]


def test_analyze_answers_a_never_discovering_pair_whose_lcm_exceeds_the_budget(tmp_path):
    # lcm 200,020,000 is past the default budget, but with gcd(20000, 20002)
    # = 2 the beacon never reaches an odd offset's window
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(protocol_to_json(beaconer([0], 20_000))))
    pf.write_text(json.dumps(protocol_to_json(listener([(0, 1)], 20_002))))
    out = tmp_path / "report.json"
    assert run(["analyze", str(pe), str(pf), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["unbounded"] is True and rep["oracle_latency_ticks"] is None
    assert rep["deterministic"] is False


def test_analyze_reports_a_receive_only_transmitter_as_unbounded(tmp_path):
    path = tmp_path / "listener.json"
    path.write_text(json.dumps(protocol_to_json(listener([(0, 3)], 10))))
    out, cov = tmp_path / "report.json", tmp_path / "cov.csv"
    assert run(["analyze", str(path), str(path), "--coverage-csv", str(cov), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["unbounded"] is True and rep["oracle_latency_ticks"] is None
    assert rep["deterministic"] is False
    assert rep["coverage_lambda"] == 0
    assert rep["uncovered"] == [[0, 10]]
    assert rep["beta"] == [0, 1]
    assert "bound_unidirectional_ticks" not in rep and "gap_ratio" not in rep
    assert cov.read_text().splitlines() == ["beacon_index,interval_start,interval_end"]


#: sha256 of --coverage-csv files, recorded while csv.writer wrote them: a
#: multi-beacon transmitter one of whose beacons covers two wrapped spans,
#: and a silent transmitter, whose CSV holds only its header
_PINNED_COVERAGE_CSVS = {
    "disco-pi0m": (
        lambda: (gen_disco(3, 5, 20, 2), gen_pi0m(3, 40, 2)),
        "c591ffed594817449da3b30f36c4b6939b92549e892cf175d213160dd6de296b",
    ),
    "silent": (
        lambda: (listener([(0, 3)], 10),) * 2,
        "902ad468cc6031f643f8f85309f26de57adc46cd833d05b0e8d3f50393c8f3a0",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_COVERAGE_CSVS))
def test_analyze_coverage_csv_digests_are_pinned(tmp_path, name):
    pair, digest = _PINNED_COVERAGE_CSVS[name]
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    for path, proto in zip((pe, pf), pair()):
        path.write_text(json.dumps(protocol_to_json(proto)))
    cov, out = tmp_path / "cov.csv", tmp_path / "report.json"
    assert run(["analyze", str(pe), str(pf), "--coverage-csv", str(cov), "--out", str(out)]) == 0
    assert hashlib.sha256(cov.read_bytes()).hexdigest() == digest


def test_analyze_coverage_map_trims_windows_by_the_transmitted_beacon(tmp_path):
    # f's own beacons last 1 tick, e's 3; under CONTAINED semantics a 3-tick
    # beacon only fits a [0, 4) window when it starts at tick 0
    e = beaconer([0, 3, 6], 27, omega=3, semantics=Semantics.CONTAINED)
    f = ProtocolSpec(
        BeaconSchedule((0,), 1, period=9),
        ReceptionSchedule((ReceptionWindow(0, 4),), 9),
        RadioModel(omega=1, semantics=Semantics.CONTAINED),
    )
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(protocol_to_json(e)))
    pf.write_text(json.dumps(protocol_to_json(f)))
    out = tmp_path / "report.json"
    assert run(["analyze", str(pe), str(pf), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["unbounded"] is True
    assert rep["deterministic"] is False
    assert rep["uncovered"] == [[1, 3], [4, 6], [7, 9]]
    assert rep["min_beacons"] == 9


def test_min_beacons_is_exact_past_float_precision(tmp_path):
    # (2**60 + 1) / 2**59 lies just above 2, but its float quotient rounds
    # to 2.0; the oracle needs three beacons too
    e = beaconer([0], 2**59 + 7)
    f = listener([(0, 2**59)], 2**60 + 1)
    assert analyze(build_coverage_map(e, f)).min_beacons == 3
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(protocol_to_json(e)))
    pf.write_text(json.dumps(protocol_to_json(f)))
    out = tmp_path / "report.json"
    args = ["analyze", str(pe), str(pf), "--max-hyperperiod", str(10**40), "--out", str(out)]
    assert run(args) == 0
    rep = json.loads(out.read_text())
    assert rep["min_beacons"] == 3
    assert rep["oracle_latency_ticks"] == 3 * (2**59 + 7)


def test_analyze_hyperperiod_budget_exit_3(tmp_path, capsys):
    e = beaconer([0], 10007)
    f = listener([(0, 4)], 9973)
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(protocol_to_json(e)))
    pf.write_text(json.dumps(protocol_to_json(f)))
    rc = run(["analyze", str(pe), str(pf), "--max-hyperperiod", "1000"])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "HyperperiodTooLarge"


#: every exception class ``ndlab.errors`` defines, and the CLI's own refusal
_REFUSAL_CLASSES = [
    *(cls for cls in vars(errors).values()
      if isinstance(cls, type) and cls.__module__ == errors.__name__),
    cli.TooManyRows,
]


def _refusal_names(cls=DomainError) -> set[str]:
    """The names of ``cls`` and of every class that derives from it."""
    return {cls.__name__}.union(*map(_refusal_names, cls.__subclasses__()))


@pytest.mark.parametrize("cls", _REFUSAL_CLASSES, ids=lambda cls: cls.__name__)
def test_every_refusal_exits_3_with_one_json_line(tmp_path, capsys, monkeypatch, cls):
    # exit 3 is decided by the class alone: main names no subclass
    assert issubclass(cls, DomainError)
    exc = cls(12, 3) if cls is HyperperiodTooLarge else cls("refused inputs")

    def refuse(path):
        raise exc

    monkeypatch.setattr(cli, "load_protocol", refuse)
    assert main(["analyze", str(tmp_path / "e.json"), str(tmp_path / "f.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        json.dumps({"detail": str(exc), "error": cls.__name__})
    ]


def test_analyze_negative_budget_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(protocol_to_json(gen_pi0m(3, 100, 1))))
    rc = run(["analyze", str(path), str(path), "--max-hyperperiod", "-5"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ValueError", "detail": "max_hyperperiod must be >= 0, got -5"
    }


def test_analyze_answers_pair_whose_lcm_exceeds_the_budget(tmp_path):
    # lcm 99,999,000 > the default budget of 10^7 ticks, yet the worst case
    # is found 99000 ticks past the first in-range beacon
    p = gen_pi0m(99, 1000, 1)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(protocol_to_json(p)))
    out = tmp_path / "report.json"
    assert run(["analyze", str(path), str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["oracle_latency_ticks"] == 100000
    assert rep["unbounded"] is False


@pytest.mark.parametrize(
    "transmitter, receiver, flags, code",
    [
        # the loader refuses a one-shot reception schedule (usage error)
        (protocol_to_json(beaconer([0], 10)), one_shot(listener([(0, 3)], 10)), [], 2),
        # the worst case lies past the hyperperiod budget
        (protocol_to_json(gen_pi0m(3, 1000, 1)), protocol_to_json(gen_pi0m(3, 1000, 1)),
         ["--max-hyperperiod", "10"], 3),
        # a negative budget is a usage error, refused before any sweep
        (protocol_to_json(gen_pi0m(3, 1000, 1)), protocol_to_json(gen_pi0m(3, 1000, 1)),
         ["--max-hyperperiod", "-5"], 2),
        # the loader refuses a beacon list that does not repeat (usage error)
        (with_field(protocol_to_json(beaconer([0, 5], 10)), "beacons.period", None),
         protocol_to_json(listener([(0, 3)], 10)), [], 2),
    ],
    ids=["one-shot-receiver", "over-budget", "negative-budget", "finite-beacons"],
)
def test_analyze_refusal_writes_no_coverage_csv(tmp_path, transmitter, receiver, flags, code):
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(transmitter))
    pf.write_text(json.dumps(receiver))
    cov, out = tmp_path / "cov.csv", tmp_path / "report.json"
    argv = ["analyze", str(pe), str(pf), "--coverage-csv", str(cov), "--out", str(out)]
    assert run(argv + flags) == code
    assert not cov.exists()
    assert not out.exists()


@pytest.mark.parametrize("bad", ["out", "coverage-csv"])
def test_analyze_unwritable_output_leaves_no_file(tmp_path, capsys, bad):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(protocol_to_json(gen_optimal_unidirectional(4, F(1, 100), 1))))
    files = {"coverage-csv": tmp_path / "cov.csv", "out": tmp_path / "report.json"}
    files[bad] = tmp_path / "missing-dir" / files[bad].name
    argv = ["analyze", str(path), str(path)]
    for flag, target in files.items():
        argv += [f"--{flag}", str(target)]
    assert run(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
    assert sorted(os.listdir(tmp_path)) == ["d.json"]


@pytest.mark.parametrize("field, value", MALFORMED_PROTOCOL_EDITS)
def test_analyze_rejects_malformed_protocol(tmp_path, capsys, field, value):
    doc = protocol_to_json(gen_optimal_unidirectional(4, F(1, 100), 1))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps(with_field(doc, field, value)))
    out = tmp_path / "report.json"
    assert run(["analyze", str(bad), str(good), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_devices_that_disagree_on_tick_size_are_refused(tmp_path, capsys, command):
    # the same protocol at 1000 and at 500 ns ticks: its tick counts mean
    # different times, so no latency between the two is right
    p = gen_pi0m(3, 100, 1)
    docs = [protocol_to_json(p), protocol_to_json(replace(p, tick=TimeBase(500)))]
    inputs = tmp_path / "in"
    inputs.mkdir()
    a, b, config = inputs / "a.json", inputs / "b.json", inputs / "config.json"
    a.write_text(json.dumps(docs[0]))
    b.write_text(json.dumps(docs[1]))
    config.write_text(json.dumps({"devices": docs, "trials": 5}))
    if command == "analyze":
        argv = ["analyze", str(a), str(b), "--out", str(tmp_path / "report.json"),
                "--coverage-csv", str(tmp_path / "cov.csv")]
    else:
        argv = ["simulate", str(config), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert "tick size" in err["detail"]
    assert os.listdir(tmp_path) == ["in"]


def test_simulate_refuses_a_silent_device_on_another_tick(tmp_path, capsys):
    # the receive-only third device takes part in no trial, yet its tick
    # counts mean other times than the two senders'
    p = gen_pi0m(3, 100, 1)
    quiet = replace(listener([(0, 5)], 10), tick=TimeBase(500))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": [protocol_to_json(d) for d in (p, p, quiet)]}))
    assert run(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err == {"error": "ValueError", "detail": "devices disagree on tick size: [1000, 1000, 500] ns"}
    assert os.listdir(tmp_path) == ["config.json"]


def test_simulate_refuses_an_exhaustive_grid_too_large_to_hold(tmp_path, capsys, monkeypatch):
    # two devices repeating every 39 900 ticks form 1.59e9 phase pairs,
    # gigabytes of outcomes: refused before any pair is played
    def never(*args):
        raise AssertionError("the grid was played")

    monkeypatch.setattr(simulator, "_play_split", never)
    doc = protocol_to_json(gen_pi0m(3, 100, 1))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": [doc, doc], "offset_sampling": "exhaustive_ticks"}))
    assert run(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "DomainError",
        "detail": "exhaustive phase grid of 1592010000 pairs exceeds 1000000",
    }
    assert os.listdir(tmp_path) == ["config.json"]


def test_simulate_past_the_emission_budget_is_refused_before_any_trial(tmp_path, capsys):
    # one trial against a window repeating every 10^12 ticks scans up to
    # one joint cycle, 10^12 emissions: counted from the periods, never played
    devices = [protocol_to_json(d) for d in (beaconer([0], 7), listener([(0, 1)], 10**12))]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": devices, "trials": 1}))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run(["simulate", str(config), "--out-dir", str(out)]) == 3
    assert time.perf_counter() - start < 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "DomainError",
        "detail": "1 trials of up to 1000000000000 emissions each exceed 100000000 emissions",
    }
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64, -1])
def test_simulate_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # trial seeds are derived modulo 2**64: such a seed would replay another
    # one while summary.json recorded it
    doc = protocol_to_json(gen_pi0m(3, 100, 1))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": [doc, doc], "trials": 5, "seed": seed}))
    assert run(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "detail": f"seed must lie in [0, 2**64), got {seed}",
    }
    assert os.listdir(tmp_path) == ["config.json"]


def sim_config(tmp_path, trials=500, seed=11):
    e = beaconer([0, 20, 40, 60], 80)
    f = listener([(0, 20)], 80)
    g = beaconer([3], 80)
    cfg = {
        "devices": [protocol_to_json(p) for p in (e, f, g)],
        "trials": trials,
        "seed": seed,
        "horizon": 800,
        "offset_sampling": "uniform_random",
        "latency_budget": 80,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_outputs_and_reproducibility(tmp_path):
    cfg = sim_config(tmp_path)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["simulate", str(cfg), "--out-dir", str(d1)]) == 0
    assert run(["simulate", str(cfg), "--out-dir", str(d2)]) == 0
    assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["trials"] == 500
    assert summary["senders"] == 2
    assert 0 <= summary["first_collision_rate"] <= 1
    expected = 1 - math.exp(-2 * 1 * (4 / 80))
    assert summary["collision_model_probability"] == pytest.approx(expected)
    with (d1 / "trials.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    assert set(rows[0]) == {"trial_id", "phases", "latency_ticks", "collided_first", "failed"}
    found = [int(r["latency_ticks"]) for r in rows if r["latency_ticks"]]
    quantiles = summary["latency_ticks"]
    assert (quantiles["min"], quantiles["max"]) == (min(found), max(found))
    for key, share in (("p50", 0.50), ("p95", 0.95)):
        # nearest rank: the smallest latency with that share at or below it
        q = quantiles[key]
        assert sum(x <= q for x in found) >= share * len(found) > sum(x < q for x in found)


def test_simulate_unwritable_summary_leaves_no_trials_csv(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "summary.json").mkdir(parents=True)
    assert run(["simulate", str(sim_config(tmp_path, trials=20)), "--out-dir", str(out_dir)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
    assert os.listdir(out_dir) == ["summary.json"]


def test_simulate_summary_latency_is_null_without_discovery(tmp_path):
    # a 2-tick beacon never fits the 1-tick window under CONTAINED semantics
    e = beaconer([0], 10, omega=2)
    f = listener([(0, 1)], 10, omega=2, semantics=Semantics.CONTAINED)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"devices": [protocol_to_json(p) for p in (e, f)], "trials": 5}))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["failure_rate"] == 1.0
    assert summary["latency_ticks"] is None


@pytest.mark.parametrize(
    "key, value",
    [
        ("horizon", "200000"),
        ("horizon", 200000.5),
        ("horizon", True),
        ("latency_budget", "5"),
        ("latency_budget", 5.0),
        ("latency_budget", False),
        ("trials", 2.9),
        ("trials", "3"),
        ("trials", None),
        ("trials", True),
        ("seed", "11"),
        ("seed", 1.5),
        ("seed", None),
        ("seed", False),
        ("devices", 5),
        ("devices", {"0": None}),
        ("bogus", 1),
        ("Trials", 3),
        (None, [1, 2]),  # the whole config
        ("latency_budget", -3),  # every latency is at least one tick
        ("latency_budget", 0),
    ],
)
def test_simulate_rejects_mistyped_config_values(tmp_path, capsys, key, value):
    path = sim_config(tmp_path)
    doc = value if key is None else dict(json.loads(path.read_text()), **{key: value})
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert (key or "config") in err["detail"]
    assert not out_dir.exists()


def test_simulate_refuses_one_shot_reception_schedule(tmp_path, capsys):
    path = sim_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["devices"][1]["receptions"]["repetitive"] = False
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "repetitive reception schedule" in err["detail"]
    assert not out_dir.exists()


def test_simulate_refuses_one_beacon_finite_joiner_before_any_trial(
    tmp_path, capsys, monkeypatch
):
    # the loader refuses a beacon list that does not repeat
    def no_trials(cfg):
        raise AssertionError("trials ran for a config the loader refuses")

    monkeypatch.setattr("ndlab.cli.simulate_multi", no_trials)
    path = sim_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["devices"][0]["beacons"].update(times=[5], period=None)
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    [err] = [json.loads(line) for line in lines]
    assert err["error"] == "ValueError"
    assert err["detail"].startswith("a non-empty beacon list needs a period")
    assert not out_dir.exists()


def test_simulate_accepts_null_horizon_and_budget(tmp_path):
    path = sim_config(tmp_path, trials=20)
    doc = json.loads(path.read_text())
    doc["horizon"] = None
    doc["latency_budget"] = None
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["latency_budget"] is None
    assert summary["trials"] == 20


def test_exhaustive_pair_simulation_matches_oracle(tmp_path):
    e = beaconer([0, 20, 40, 60], 80)
    f = listener([(0, 20)], 80)
    cfg = {
        "devices": [protocol_to_json(e), protocol_to_json(f)],
        "offset_sampling": "exhaustive_ticks",
        "horizon": 400,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 0
    with (out_dir / "trials.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    worst = max(int(r["latency_ticks"]) for r in rows)
    assert worst == worst_case_latency_oracle(e, f)


def _sparse_budget_devices():
    """A joiner with a few irregular beacons every 495 ticks, a listener,
    and an interferer that sends every 33 ticks, a divisor of 495: on a few
    phases it jams every beacon the listener hears, and those trials leave
    blank latency cells."""
    joiner = ProtocolSpec(
        BeaconSchedule((3, 40, 95, 170, 260), 2, period=495),
        ReceptionSchedule((ReceptionWindow(0, 10),), 50),
        RadioModel(omega=2),
    )
    return joiner, listener([(0, 15), (30, 10)], 45, omega=2), beaconer([5], 33, omega=2)


#: simulate configs whose output files are pinned; "devices" holds specs.
_SIMULATE_CONFIGS = {
    "c7_S2": lambda: {"devices": c7_devices(2), "trials": 200, "seed": 7, "horizon": 200_000},
    "c7_S10": lambda: {"devices": c7_devices(10), "trials": 200, "seed": 8, "horizon": 200_000},
    "disco_x3": lambda: {"devices": [gen_disco(3, 5, 100, 10)] * 3, "trials": 200, "seed": 9},
    # the key is kept from when the joiner's beacon list did not repeat
    "finite_budget": lambda: {
        "devices": _sparse_budget_devices(), "trials": 200, "seed": 10, "latency_budget": 60,
    },
    "exhaustive": lambda: {
        "devices": [gen_disco(3, 5, 4, 1)] * 2,
        "offset_sampling": "exhaustive_ticks",
        "latency_budget": 40,
    },
}

#: sha256 of (trials.csv, summary.json), recorded before trials.csv rows
#: were built from columns and each trial's emissions from one rotation;
#: finite_budget was re-recorded on its repeating joiner by the code from
#: before every beacon list had to repeat.
_SIMULATE_DIGESTS = {
    "c7_S2": (
        "dae543140950cbeb2f731e6cf7ec5dac98b5f220cd0a127233e56ed0fc19c309",
        "21d905f77fb81822c72d5ecb49c5cb3aebac572162e2deaa8234b966b7f0521f",
    ),
    "c7_S10": (
        "cd25e236e5da3baa15ca87405c2366b4c805a703b345e0f44c0e7d8d03dc8c58",
        "c6098aa8990acbb5bbab16017f1e1e9bba71cef880800e4dc4e2e10a2e6b741b",
    ),
    "disco_x3": (
        "81dc54483b228fdb2163f787846d33808d5835a4750cbb6e22a3f2f03f6a4d3b",
        "cf8484f9cadb11057acfa1ff46b6208ccddeb73ed17c73ffe091ef66026ac4b6",
    ),
    "finite_budget": (
        "47e64affa6f88994f04667fa0e2f1aa96eabb4fc2f678a04a7d8c1b2c426a645",
        "5ed89fdeb89e5a85fdefacdfc9bf9573796cacea461f75624a5aa1e45a211875",
    ),
    "exhaustive": (
        "d51481742c95a43a524de84c80cf1602fa24a329efb5d2ef9ecd3b99ca55b58b",
        "8d6e6a89df7cef40e7ff3893b5f8882da117d1aebf31c2e56fe682854c71f2ac",
    ),
}


def _simulate_files(tmp_path, name):
    doc = _SIMULATE_CONFIGS[name]()
    doc["devices"] = [protocol_to_json(d) for d in doc["devices"]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 0
    return (out_dir / "trials.csv").read_bytes(), (out_dir / "summary.json").read_bytes()


@pytest.mark.parametrize("name", sorted(_SIMULATE_CONFIGS))
def test_simulate_output_digests_are_pinned(tmp_path, name):
    files = _simulate_files(tmp_path, name)
    assert tuple(hashlib.sha256(b).hexdigest() for b in files) == _SIMULATE_DIGESTS[name]


def test_pinned_simulate_output_has_blank_latencies_and_budget_misses(tmp_path):
    trials, _ = _simulate_files(tmp_path, "finite_budget")
    rows = list(csv.DictReader(trials.decode().splitlines()))
    assert any(r["latency_ticks"] == "" and r["failed"] == "1" for r in rows)
    assert any(r["latency_ticks"] != "" and r["failed"] == "1" for r in rows)
    assert any(r["failed"] == "0" for r in rows)


def _older_document_outputs(tmp_path, edit) -> tuple[str, ...]:
    """sha256 of analyze's report and coverage CSV and of simulate's
    trials.csv and summary.json, with every protocol document passed
    through ``edit`` before it is written."""
    e, f = gen_pi0m(3, 40, 2), gen_disco(3, 5, 20, 2)
    tmp_path.mkdir()
    pe, pf = tmp_path / "e.json", tmp_path / "f.json"
    pe.write_text(json.dumps(edit(protocol_to_json(e))))
    pf.write_text(json.dumps(edit(protocol_to_json(f))))
    report, cov = tmp_path / "report.json", tmp_path / "cov.csv"
    assert run(["analyze", str(pe), str(pf), "--coverage-csv", str(cov), "--out", str(report)]) == 0
    cfg = tmp_path / "config.json"
    devices = [edit(protocol_to_json(p)) for p in (e, f, e)]
    cfg.write_text(json.dumps({"devices": devices, "trials": 50, "seed": 4}))
    out_dir = tmp_path / "sim"
    assert run(["simulate", str(cfg), "--out-dir", str(out_dir)]) == 0
    files = (report, cov, out_dir / "trials.csv", out_dir / "summary.json")
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in files)


#: _older_document_outputs recorded while the loader still kept a
#: ``repetitive`` flag on reception schedules and every document carried it
_OLDER_DOCUMENT_DIGESTS = (
    "34c060e5cb70b8ad336a0e9b503488bbe5792283ad23a9628de793cbce000e9f",
    "bcd0b9be34c96e286a2a25fa7861374694134b7a181f3d80fdd268dcff1efbec",
    "9f80e24ab072a15981c97f249c2fa65d04865520e435ed38c44bf6b7e11f868c",
    "cf5a17c1808e6f2611edcefd4d5d12d9a368a996c1b53e0db710dfb2f7f22f20",
)


def test_older_repetitive_key_leaves_analyze_and_simulate_output_unchanged(tmp_path):
    with_key = _older_document_outputs(
        tmp_path / "with-key", lambda doc: with_field(doc, "receptions.repetitive", True)
    )
    assert with_key == _older_document_outputs(tmp_path / "without-key", lambda doc: doc)
    assert with_key == _OLDER_DOCUMENT_DIGESTS


def test_simulate_without_any_sender_fails_every_trial(tmp_path):
    # two silent listeners: nothing is sent, so nothing collides or is found
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"devices": [protocol_to_json(listener([(0, 3)], 10))] * 2,
                                "trials": 20}))
    out_dir = tmp_path / "out"
    assert run(["simulate", str(path), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["senders"] == 0
    assert summary["collision_model_probability"] == 0.0
    assert summary["failure_rate"] == 1.0
    with (out_dir / "trials.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert all(r["latency_ticks"] == "" and r["failed"] == "1" for r in rows)


def _analyze_argv(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(protocol_to_json(gen_pi0m(3, 40, 1))))
    return ["analyze", str(path), str(path)]


#: argv, less --out, of every command whose one output file may be stdout
_STDOUT_COMMANDS = {
    "bounds-sweep": lambda tmp_path: [
        "bounds", "--sweep", "eta=1/10:1/2:1/10", "--omega-us", "1"
    ],
    "bounds-deviation": lambda tmp_path: [
        "bounds", "--deviation", "--omega-us", "1", "--beta-steps", "3"
    ],
    "generate": lambda tmp_path: [
        "generate", "disco", "--p1", "3", "--p2", "5", "--slot-us", "20", "--omega-us", "2"
    ],
    "analyze": _analyze_argv,
}


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
@pytest.mark.parametrize("name", sorted(_STDOUT_COMMANDS))
def test_stdout_gets_the_bytes_of_the_out_file(tmp_path, capsysbinary, name, out):
    argv = _STDOUT_COMMANDS[name](tmp_path)
    path = tmp_path / "out"
    assert run(argv + ["--out", str(path)]) == 0
    assert run(argv + out) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


@pytest.mark.parametrize("text", ["x", "1/0"])
def test_bad_rational_flag_exits_2(capsys, text):
    with pytest.raises(SystemExit) as exc:
        run(["bounds", "--sweep", "eta=1/2:1:1/2", "--omega-us", "1", "--alpha", text])
    assert exc.value.code == 2
    assert f"not a rational number: {text!r}" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_python_m_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(bd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ndlab", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    ok = python_m("bounds", "--sweep", "eta=1/2:1:1/2", "--omega-us", "1")
    assert ok.returncode == 0, ok.stderr
    lines = ok.stdout.splitlines()
    assert lines[0] == (
        "eta,symmetric,symmetric_k,symmetric_branch,gamma_o,symmetric_approx,"
        "slotted_full_duplex,slotted_two_beacon,mutual_exclusive"
    )
    assert len(lines) == 3
    # main() with no argv reads the kind from sys.argv
    pi0m = python_m("generate", "pi0m", "--m", "3", "--d-us", "40", "--omega-us", "2")
    assert pi0m.returncode == 0, pi0m.stderr
    assert json.loads(pi0m.stdout) == protocol_to_json(gen_pi0m(3, 40, 2, RadioModel(omega=2)))
    bad = python_m("bogus")
    assert bad.returncode == 2
    assert "invalid choice" in bad.stderr


# ---------------------------------------------------------------------------
# boundary fuzz: analyze and simulate on documents, and bounds on flags, with
# one or two values mutated either fail cleanly or answer
# ---------------------------------------------------------------------------

_FUZZ_DEVICES = {
    "pi0m": protocol_to_json(gen_pi0m(3, 100, 1)),
    "disco": protocol_to_json(gen_disco(3, 5, 20, 2)),
    "diffcode": protocol_to_json(gen_diffcode(builtin_difference_set(7), 20, 2)),
}

_FUZZ_VALUES = st.one_of(
    st.integers(-(10**30), 10**30),
    st.sampled_from([0, 1, -1, 2, 2**63, 2**64, 10**12]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["exhaustive_ticks", "uniform_random", "ideal", "contained", "1/2"]),
    st.lists(st.integers(-(10**30), 10**30), max_size=3),
    st.dictionaries(st.sampled_from(["start", "d", "x"]), st.integers(-5, 10**30), max_size=2),
)


def _fuzz_paths(node, prefix=()):
    """The path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _fuzz_paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc, depth=1):
    """``doc`` with one or two values replaced or deleted, or a key added,
    each at least ``depth`` keys deep."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = [path for path in _fuzz_paths(doc) if len(path) >= depth]
        *parents, last = draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        how = draw(st.sampled_from(["set", "delete", "extra"]))
        if how == "set":
            node[last] = draw(_FUZZ_VALUES)
        elif how == "delete":
            del node[last]
        elif isinstance(node, dict):
            node["extra"] = draw(_FUZZ_VALUES)
        else:
            node.append(draw(_FUZZ_VALUES))
    return doc


_FUZZ_RATIONALS = st.one_of(
    st.sampled_from(["0", "-1", "1e-300", "1e400", "1/2", "-1/3", "1/0", "x", ""]),
    st.fractions(-10, 10, max_denominator=1000).map(str),
)

_FUZZ_COUNTS = st.one_of(
    st.integers(-5, 3000).map(str),
    st.sampled_from(["0", "1", "2", str(10**9), str(10**30), "-" + str(10**30), "1.5", "x"]),
)

#: The flags of the two bounds grids as ``nd-lab bounds`` defaults them,
#: and how the fuzz draws a mutated value of each.
_FUZZ_BOUNDS_FLAGS = {
    "--sweep": (
        "eta=1/10:1:1/10",
        st.one_of(
            st.tuples(_FUZZ_RATIONALS, _FUZZ_RATIONALS, _FUZZ_RATIONALS).map(
                lambda lo_hi_step: "eta=" + ":".join(lo_hi_step)
            ),
            st.sampled_from(["eta=1:2", "x=1:2:1", "eta=1/2:1:0", "eta=::", ""]),
        ),
    ),
    "--alpha": ("1", _FUZZ_RATIONALS),
    "--beta-lo": ("11/20000", _FUZZ_RATIONALS),
    "--beta-hi": ("111/2000", _FUZZ_RATIONALS),
    "--beta-steps": ("12", _FUZZ_COUNTS),
    "--k-lo": ("19", _FUZZ_COUNTS),
    "--k-hi": ("1818", _FUZZ_COUNTS),
}


@st.composite
def _fuzz_bounds_flags(draw):
    """The flags of an eta sweep or a deviation grid, one or two of them
    mutated, each given as ``--flag=value`` so that a value may start with
    a minus sign."""
    deviation = draw(st.booleans())
    flags = {k: v for k, (v, _) in _FUZZ_BOUNDS_FLAGS.items() if (k == "--sweep") != deviation}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2)):
        flags[flag] = draw(_FUZZ_BOUNDS_FLAGS[flag][1])
    return ["--deviation"] * deviation + [f"{k}={v}" for k, v in flags.items()]


@st.composite
def _fuzz_runs(draw):
    """(command, documents to write or bounds flags), one or two values
    mutated in all."""
    command = draw(st.sampled_from(["analyze", "simulate", "bounds"]))
    if command == "bounds":
        return command, draw(_fuzz_bounds_flags())
    kinds = draw(st.lists(st.sampled_from(sorted(_FUZZ_DEVICES)), min_size=2, max_size=3))
    devices = [_FUZZ_DEVICES[kind] for kind in kinds]
    if command == "analyze":
        # the two documents stay; what is inside them changes
        return "analyze", draw(_mutated(devices[:2], depth=2))
    config = {
        "devices": devices,
        "trials": 20,
        "seed": 5,
        "horizon": 4000,
        "offset_sampling": "uniform_random",
        "latency_budget": 2000,
    }
    return "simulate", [draw(_mutated(config))]


@settings(max_examples=300, deadline=None)
@given(_fuzz_runs())
def test_mutated_documents_answer_or_fail_with_one_json_line(tmp_path_factory, fuzz_run):
    # the simulator's and bounds' budgets are scaled down so that work they
    # admit runs in milliseconds; the refusal takes the same path.  A flag
    # argparse refuses (exit 2) ends in its usage error line instead
    command, inputs = fuzz_run
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "out"
    if command == "bounds":
        argv = ["bounds", "--omega-us", "1", *inputs, "--out", str(out / "bounds.csv")]
        out.mkdir()
    else:
        paths = [tmp / f"in{i}.json" for i in range(len(inputs))]
        for path, doc in zip(paths, inputs):
            path.write_text(json.dumps(doc))
        if command == "analyze":
            argv = ["analyze", *map(str, paths), "--out", str(out / "report.json"),
                    "--coverage-csv", str(out / "coverage.csv"), "--max-hyperperiod", "100000"]
            out.mkdir()
        else:
            argv = ["simulate", str(paths[0]), "--out-dir", str(out)]
    err = io.StringIO()
    usage = False
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(simulator, "_MAX_TRIALS", 2000)
        mp.setattr(simulator, "_MAX_SCANNED_EMISSIONS", 20000)
        mp.setattr("ndlab.cli.BOUNDS_ROW_BUDGET", 200)
        try:
            code = run(argv)
        except SystemExit as exc:
            code, usage = exc.code, True
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        if usage:
            assert command == "bounds" and code == 2
            assert lines[-1].startswith("nd-lab bounds: error: ")
        else:
            [line] = lines
            diagnostic = json.loads(line)
            assert set(diagnostic) == {"error", "detail"}
            # exit 3 is exactly a refusal, and a refusal is a DomainError
            assert (code == 3) == (diagnostic["error"] in _refusal_names())
        assert not out.exists() or not os.listdir(out)
