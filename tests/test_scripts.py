"""Smoke runs of the example scripts: exit status and the line each one checks."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_sq2_checks_every_component(capsys, tmp_path):
    assert _load("reproduce_sq2").main(["--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "l=4: 36 components agree (36 chain-level identities checked)" in lines
    assert "totals by degree: [0, 0, 0, 12, 112] (expected [0, 0, 0, 12, 112])" in lines
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sq2_l4_report.json", "sq2_types.json"]


def test_diagonality_survey_verdict(capsys):
    assert _load("diagonality_survey").main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "diagonal at every surveyed l: path:3, path:5, star:5, random-tree:7:2, "
        "cycle:4, complete:3, complete:4"
    )
