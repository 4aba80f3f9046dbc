"""Smoke runs of the example scripts and of README's library quick start."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # the two blocks run in one namespace, as a reader would paste them, and
    # every print line ends in a comment holding exactly what it prints
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    expected = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        expected += [
            line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")
        ]
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("name", ["reproduce_sq2", "diagonality_survey"])
def test_usage_line_names_only_options_the_script_has(name, capsys):
    module = _load(name)
    usage = module.__doc__.split("Usage:", 1)[1].strip().splitlines()[0]
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--help"])
    assert exit_info.value.code == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    flags = set(re.findall(r"--[a-z][a-z-]*", usage))
    assert flags and flags <= options, flags - options
