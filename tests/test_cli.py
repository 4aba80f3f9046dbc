import json

import pytest
from click.testing import CliRunner

import maghom.cli
from maghom import ComponentKey, CrossValidationReport, HomologyGroup, sq2_pair_types
from maghom.geometric import Mismatch
from maghom.homology import ZERO_GROUP
from maghom.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# --- compute -----------------------------------------------------------------


def test_compute_sq2_table(runner):
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "4")
    assert r.exit_code == 0
    rows = {ln.split()[0]: ln.split()[1] for ln in r.output.splitlines() if ln.startswith("k=")}
    assert rows == {"k=0": "0", "k=1": "0", "k=2": "0", "k=3": "12", "k=4": "112"}


def test_compute_single_pair(runner):
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "4", "--pair", "a,d")
    assert r.exit_code == 0
    rows = {ln.split()[0]: ln.split()[1] for ln in r.output.splitlines() if ln.startswith("k=")}
    assert rows["k=3"] == "2" and rows["k=4"] == "0"


def test_compute_length_range(runner):
    r = invoke(runner, "compute", "--graph", "path:3", "--l", "0-2", "--method", "direct")
    assert r.exit_code == 0
    assert r.output.count("magnitude homology") == 3
    assert "l=0" in r.output and "l=2" in r.output


def test_compute_kmax_limits_rows(runner):
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "4", "--kmax", "2")
    assert r.exit_code == 0
    assert "k=2" in r.output and "k=3" not in r.output


def test_compute_structured_deterministic(runner):
    args = ["compute", "--graph", "sq2", "--l", "4", "--format", "structured"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["format_version"] == 1
    assert doc["graph"]["spec"] == "sq2"
    totals = doc["results"][0]["totals"]
    assert [t["betti"] for t in totals] == [0, 0, 0, 12, 112]


def test_compute_structured_records_resolved_method(runner):
    r = invoke(runner, "compute", "--graph", "random-tree:6:3", "--l", "3",
               "--format", "structured")
    doc = json.loads(r.output)
    assert doc["results"][0]["method"] == "tree"
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "3", "--format", "structured")
    doc = json.loads(r.output)
    assert doc["results"][0]["method"] == "geometric"
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "2", "--format", "structured")
    doc = json.loads(r.output)
    assert doc["results"][0]["method"] == "direct"


def test_compute_types_table(runner, tmp_path):
    labeling_path = tmp_path / "types.json"
    labeling_path.write_text(json.dumps(sq2_pair_types()))
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "4",
               "--types", str(labeling_path))
    assert r.exit_code == 0
    row4 = next(ln for ln in r.output.splitlines() if ln.startswith("k=4"))
    assert row4.split()[1:] == ["12", "40", "0", "0", "32", "0", "20", "8", "112"]
    row3 = next(ln for ln in r.output.splitlines() if ln.startswith("k=3"))
    assert row3.split()[1:] == ["0", "0", "8", "4", "0", "0", "0", "0", "12"]


def test_compute_out_flag_writes_file(runner, tmp_path):
    out = tmp_path / "result.txt"
    r = invoke(runner, "compute", "--graph", "path:4", "--l", "2", "--out", str(out))
    assert r.exit_code == 0
    assert "k=2" in out.read_text()


def test_compute_graph_file_input(runner, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# tiny path\nx y\ny z\n")
    r = invoke(runner, "compute", "--graph", str(path), "--l", "2", "--format", "structured")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["graph"]["vertices"] == ["x", "y", "z"]


def test_compute_usage_errors(runner, tmp_path):
    comma_graph = tmp_path / "comma.txt"
    comma_graph.write_text("a,b c\n")
    cases = [
        ["compute", "--graph", "nosuch:3", "--l", "2"],
        ["compute", "--graph", "sq2", "--l", "banana"],
        ["compute", "--graph", "sq2", "--l", "5-3"],
        ["compute", "--graph", "sq2", "--l", "-1"],
        ["compute", "--graph", "sq2", "--l", "4", "--pair", "a"],
        ["compute", "--graph", "sq2", "--l", "4", "--pair", "a,zz"],
        ["compute", "--graph", "sq2", "--l", "4", "--method", "tree"],
        ["compute", "--graph", "sq2", "--l", "2", "--method", "geometric"],
        ["compute", "--graph", str(tmp_path / "missing.txt"), "--l", "2"],
        ["compute", "--graph", str(comma_graph), "--l", "2"],
        ["compute", "--graph", "sq2", "--l", "2", "--out", str(tmp_path / "no" / "x")],
        ["compute", "--graph", "sq2", "--l", "4", "--types", str(tmp_path / "no.json")],
        ["compute", "--graph", "sq2"],  # missing --l entirely
    ]
    for args in cases:
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (args, r.output)


def test_compute_types_must_cover_all_pairs(runner, tmp_path):
    labeling_path = tmp_path / "partial.json"
    labeling_path.write_text(json.dumps({"a,a": "diag"}))
    r = invoke(runner, "compute", "--graph", "sq2", "--l", "4",
               "--types", str(labeling_path))
    assert r.exit_code == 2
    assert "cover" in r.output


def test_compute_internal_check_failure_exits_4(runner, monkeypatch):
    # Force the tree totals check to see numbers that contradict the closed
    # form by lying about the closed form itself.
    monkeypatch.setattr(
        maghom.cli, "tree_magnitude_closed_form",
        lambda g, l, k: HomologyGroup(999),
    )
    r = invoke(runner, "compute", "--graph", "path:4", "--l", "3", "--method", "tree")
    assert r.exit_code == 4
    assert "closed form" in r.output


# --- check --------------------------------------------------------------------


def test_check_random_trials(runner):
    r = invoke(runner, "check", "--trials", "3", "--seed", "7")
    assert r.exit_code == 0
    assert "3/3 trials agree" in r.output
    assert r.output.count("trial ") == 3


def test_check_zero_trials_warns(runner):
    r = invoke(runner, "check", "--trials", "0")
    assert r.exit_code == 0
    assert "vacuous" in r.stderr


def test_check_single_graph(runner):
    r = invoke(runner, "check", "--graph", "sq2", "--l", "4")
    assert r.exit_code == 0
    assert "agree" in r.output


def test_check_single_graph_length_range(runner):
    r = invoke(runner, "check", "--graph", "cycle:5", "--l", "3-4")
    assert r.exit_code == 0
    assert r.output.count("agree") == 2


def test_check_usage_errors(runner):
    assert invoke(runner, "check", "--graph", "sq2", "--l", "2").exit_code == 2
    assert invoke(runner, "check", "--trials", "-1").exit_code == 2
    for n_max in ("0", "1"):
        r = invoke(runner, "check", "--n-max", n_max)
        assert r.exit_code == 2
        assert "--n-max" in r.stderr


def test_check_mismatch_exits_3(runner, monkeypatch):
    def fake_cross_validate(g, l, kmax=None, chain_level=True):
        mism = Mismatch(
            key=ComponentKey("x", "y", l), k=2,
            direct=HomologyGroup(1), geometric=ZERO_GROUP,
        )
        return CrossValidationReport(
            graph=g, l=l, kmax=l, pairs_checked=1, chain_checks=0, mismatch=mism,
        )

    monkeypatch.setattr(maghom.cli, "cross_validate", fake_cross_validate)
    r = invoke(runner, "check", "--trials", "1", "--seed", "0")
    assert r.exit_code == 3
    assert "counterexample" in r.stderr


# --- export -------------------------------------------------------------------


def test_export_writes_pair_and_off(runner, tmp_path):
    stem = tmp_path / "p5"
    r = invoke(runner, "export", "--graph", "path:5", "--l", "4",
               "--pair", "v0,v4", "--out", str(stem))
    assert r.exit_code == 0
    pair_doc = json.loads((tmp_path / "p5.pair.json").read_text())
    assert pair_doc["l"] == 4 and pair_doc["a"] == "v0"
    assert pair_doc["total"]["dim"] == 2
    assert pair_doc["total"]["maximal_simplices"] == [[[1, "v1"], [2, "v2"], [3, "v3"]]]
    assert pair_doc["sub"]["maximal_simplices"] == []
    lengths = {rec["interior_length"] for rec in pair_doc["total"]["simplices"]}
    assert lengths == {4}
    off_text = (tmp_path / "p5.total.off").read_text()
    assert off_text.splitlines()[0] == "OFF"
    assert (tmp_path / "p5.sub.off").exists()
    # path:5 is a tree, so the per-walk decomposition is exported too.
    deltas = json.loads((tmp_path / "p5.deltas.json").read_text())
    assert deltas["components"][0]["walk"] == ["v0", "v1", "v2", "v3", "v4"]
    assert deltas["components"][0]["turning_points"] == []


def test_export_skips_high_dimensional_off(runner, tmp_path):
    stem = tmp_path / "big"
    r = invoke(runner, "export", "--graph", "complete:3", "--l", "6",
               "--pair", "v0,v1", "--out", str(stem))
    assert r.exit_code == 0
    assert "skipping OFF" in r.stderr
    assert (tmp_path / "big.pair.json").exists()
    assert not (tmp_path / "big.total.off").exists()


def test_export_empty_component_notice(runner, tmp_path):
    stem = tmp_path / "empty"
    r = invoke(runner, "export", "--graph", "path:6", "--l", "3",
               "--pair", "v0,v5", "--out", str(stem))
    assert r.exit_code == 0
    assert "empty" in r.stderr
    doc = json.loads((tmp_path / "empty.pair.json").read_text())
    assert doc["total"]["maximal_simplices"] == []


def test_export_usage_errors(runner, tmp_path):
    stem = str(tmp_path / "x")
    assert invoke(runner, "export", "--graph", "sq2", "--l", "2",
                  "--pair", "a,b", "--out", stem).exit_code == 2
    assert invoke(runner, "export", "--graph", "sq2", "--l", "4",
                  "--pair", "a", "--out", stem).exit_code == 2
    assert invoke(runner, "export", "--graph", "sq2", "--l", "4",
                  "--pair", "a,zz", "--out", stem).exit_code == 2
    missing = tmp_path / "missing" / "dir"
    r = invoke(runner, "export", "--graph", "sq2", "--l", "4",
               "--pair", "a,b", "--out", str(missing / "x"))
    assert r.exit_code == 2
    assert str(missing) in r.stderr
    assert not (tmp_path / "missing").exists()


# --- entry point ----------------------------------------------------------------


def test_help_lists_commands(runner):
    r = invoke(runner, "--help")
    assert r.exit_code == 0
    for cmd in ("compute", "check", "export"):
        assert cmd in r.output
