import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path: Path):
    """The script as a module: its imports run, its main does not."""
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_and_has_main(path):
    # a renamed or removed library name fails here rather than on a user's
    # next run
    assert callable(_load(path).main)


def test_collision_study_runs_up_to_twenty_senders(monkeypatch, capsys):
    # 21 devices at S = 20: more than any simulator test otherwise builds
    module = _load(next(p for p in SCRIPTS if p.stem == "collision_study"))
    monkeypatch.setattr(module, "TRIALS", 300)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"beta = {float(module.BETA)}, trials = 300"
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [2, 3, 5, 10, 20]
    for _, empirical, model, _, _ in rows:
        assert 0 <= float(empirical) <= 1 and 0 < float(model) < 1
