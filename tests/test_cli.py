import hashlib
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import maghom.cli
import maghom.geometric
import maghom.graphs
import maghom.report
from maghom import ComponentKey, CrossValidationReport, HomologyGroup, generate, sq2_pair_types
from maghom.geometric import Mismatch
from maghom.graphs import InternalCheckError
from maghom.homology import ZERO_GROUP
from conftest import run_cli


# --- compute -----------------------------------------------------------------


def test_compute_sq2_table():
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "4")
    assert code == 0
    rows = {ln.split()[0]: ln.split()[1] for ln in out.splitlines() if ln.startswith("k=")}
    assert rows == {"k=0": "0", "k=1": "0", "k=2": "0", "k=3": "12", "k=4": "112"}


def test_compute_single_pair():
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "4", "--pair", "a,d")
    assert code == 0
    rows = {ln.split()[0]: ln.split()[1] for ln in out.splitlines() if ln.startswith("k=")}
    assert rows["k=3"] == "2" and rows["k=4"] == "0"


def test_compute_length_range():
    code, out, err = run_cli("compute", "--graph", "path:3", "--l", "0-2", "--method", "direct")
    assert code == 0
    assert out.count("magnitude homology") == 3
    assert "l=0" in out and "l=2" in out


def test_compute_kmax_limits_rows():
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "4", "--kmax", "2")
    assert code == 0
    assert "k=2" in out and "k=3" not in out


def test_compute_structured_deterministic():
    args = ["compute", "--graph", "sq2", "--l", "4", "--format", "structured"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first[0] == 0
    assert first[1] == second[1]
    doc = json.loads(first[1])
    assert doc["format_version"] == 1
    assert doc["graph"]["spec"] == "sq2"
    totals = doc["results"][0]["totals"]
    assert [t["betti"] for t in totals] == [0, 0, 0, 12, 112]


def test_compute_structured_records_resolved_method():
    code, out, err = run_cli("compute", "--graph", "random-tree:6:3", "--l", "3",
                             "--format", "structured")
    doc = json.loads(out)
    assert doc["results"][0]["method"] == "tree"
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "3", "--format", "structured")
    doc = json.loads(out)
    assert doc["results"][0]["method"] == "geometric"
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "2", "--format", "structured")
    doc = json.loads(out)
    assert doc["results"][0]["method"] == "direct"


def test_compute_types_table(tmp_path):
    labeling_path = tmp_path / "types.json"
    labeling_path.write_text(json.dumps(sq2_pair_types()))
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "4",
                             "--types", str(labeling_path))
    assert code == 0
    row4 = next(ln for ln in out.splitlines() if ln.startswith("k=4"))
    assert row4.split()[1:] == ["12", "40", "0", "0", "32", "0", "20", "8", "112"]
    row3 = next(ln for ln in out.splitlines() if ln.startswith("k=3"))
    assert row3.split()[1:] == ["0", "0", "8", "4", "0", "0", "0", "0", "12"]


# sha256 of the exact stdout of each command; the structured form carries
# the package version, so a version bump changes those three digests
PINNED_REPORTS = [
    (["--graph", "sq2", "--l", "4"],
     "ab6403deb5ed6db22bc68fafcefa5c32cd412144c2be719d92f933ccba3981fc"),
    (["--graph", "sq2", "--l", "4", "--format", "structured"],
     "c2f1707ba48b28f48e225bb511e4213a668d34690862799bf52262b5a305317e"),
    (["--graph", "sq2", "--l", "4", "--pair", "a,d"],
     "c0e68756c21457a1b41caf42dd2c8c33eeeba29e928bee26c8ed671f483d2392"),
    (["--graph", "sq2", "--l", "4", "--types", "{types}"],
     "7ab3ce6fef1800d6f36e9486acee22808bda5c47c394eeb6adadf8e9a3c87f94"),
    (["--graph", "sq2", "--l", "4", "--types", "{types}", "--format", "structured"],
     "1bb10bcb66553c36c84b977901516a23fd509d76b74402e06b0b066d82d9859c"),
    (["--graph", "sq2", "--l", "4", "--types", "{types}", "--pair", "b,c"],
     "962af15eca53622e2c1662fd4551384782fd6c906af66767dc6b79847e6ae470"),
    (["--graph", "sq2", "--l", "4", "--types", "{types}", "--pair", "b,c",
      "--format", "structured"],
     "cb05ca5cf7424b77ca2ced05dc9007a622f18d83a4faf06ca611466fc7a26d65"),
    (["--graph", "sq2", "--l", "3-5", "--types", "{types}"],
     "6d1831e5acce2c5a32ad22efa49a1e86527692d55ddd3ca190185257bc3156cd"),
    (["--graph", "random-tree:10:2", "--l", "3-6"],
     "334b7d13e222a05837e26100cc0fb6f9eed4fdcf65c6d5ccab7478dca7eb0d13"),
]


def test_compute_report_bytes_are_pinned(tmp_path):
    labeling_path = tmp_path / "types.json"
    labeling_path.write_text(json.dumps(sq2_pair_types()))
    for args, digest in PINNED_REPORTS:
        args = [arg.format(types=labeling_path) for arg in args]
        code, out, err = run_cli("compute", *args)
        assert code == 0, (args, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (args, out)


def test_compute_out_flag_writes_file(tmp_path):
    path = tmp_path / "result.txt"
    code, out, err = run_cli("compute", "--graph", "path:4", "--l", "2", "--out", str(path))
    assert code == 0
    assert "k=2" in path.read_text()


def test_compute_graph_file_input(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# tiny path\nx y\ny z\n")
    code, out, err = run_cli("compute", "--graph", str(path), "--l", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"]["vertices"] == ["x", "y", "z"]


def test_compute_usage_errors(tmp_path, monkeypatch):
    comma_graph = tmp_path / "comma.txt"
    comma_graph.write_text("a,b c\n")
    space_graph = tmp_path / "space.json"
    space_graph.write_text('{"vertices": [" a", "b"], "edges": [[" a", "b"]]}')
    missing = tmp_path / "missing.txt"
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("\u00e9 b\n".encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text('{"vertices": ' + "[" * 100000)
    twice = tmp_path / "twice.json"
    twice.write_text('{"v0,v0": "x", "v0,v1": "y", "v0,v1": "z", "v1,v0": "y", "v1,v1": "x"}')
    not_a_file = "not a builtin generator and not a file"
    cases = [
        (["--graph", "nosuch:3", "--l", "2"], f"{not_a_file}: 'nosuch:3'"),
        (["--graph", "sq2", "--l", "banana"],
         "--l expects an integer or a range like 3-5, got 'banana'"),
        (["--graph", "sq2", "--l", "5-3"], "empty --l range: '5-3'"),
        (["--graph", "sq2", "--l", "-1"], "--l must be nonnegative"),
        # --l takes ASCII digits only, not every form that int() accepts
        *[(["--graph", "path:2", "--l", l_spec],
           f"--l expects an integer or a range like 3-5, got {l_spec!r}")
          for l_spec in ("1_0", "+4", "\u0664", " 4 ", "3 - 5", "4\n", "-1-3")],
        (["--graph", "sq2", "--l", "4", "--pair", "a"], """--pair expects "u,v", got 'a'"""),
        # a value that begins with "-" is a value, not another option
        (["--graph", "sq2", "--l", "4", "--pair", "-a,b"], "unknown vertex: '-a'"),
        (["--graph", "sq2", "--l", "2", "--out", "-x"], "--out names a directory: '-x'"),
        (["--graph", "sq2", "--l", "4", "--pair", "a,zz"], "unknown vertex: 'zz'"),
        (["--graph", "sq2", "--l", "4", "--method", "tree"], "method tree needs a tree input"),
        (["--graph", "sq2", "--l", "4", "--kmax", "-1"], "--kmax must be nonnegative"),
        # --kmax takes ASCII digits and a leading "-" only, as --l does
        *[(["--graph", "path:3", "--l", "2", "--kmax", kmax],
           f"argument --kmax: invalid integer value: {kmax!r}")
          for kmax in ("1_0", "+2", " 4 ", "\u0664", "9" * 5000)],
        (["--graph", str(missing), "--l", "2"], f"{not_a_file}: {str(missing)!r}"),
        (["--graph", str(comma_graph), "--l", "2"], "vertex label contains ',': 'a,b'"),
        (["--graph", str(space_graph), "--l", "2"],
         "vertex label has leading or trailing whitespace: ' a'"),
        (["--graph", "sq2", "--l", "2", "--out", str(tmp_path / "no" / "x")],
         f"--out directory does not exist: {str(tmp_path / 'no')!r}"),
        (["--graph", "sq2", "--l", "2", "--out", str(tmp_path)],
         f"--out names a directory: {str(tmp_path)!r}"),
        (["--graph", "sq2", "--l", "2", "--out", f"{tmp_path / 'new'}/"],
         f"--out names a directory: {str(tmp_path / 'new') + '/'!r}"),
        (["--graph", "sq2", "--l", "4", "--types", str(tmp_path / "no.json")],
         f"labeling file not found: {str(tmp_path / 'no.json')!r}"),
        (["--graph", "sq2"], "the following arguments are required: --l"),
        # an option is named in full, never abbreviated, and an unknown one
        # is named before a missing one
        (["--gra", "sq2", "--l", "2"], "unrecognized arguments: --gra sq2"),
        (["--graph", "sq2", "--l", "2", "--form", "structured"],
         "unrecognized arguments: --form structured"),
        # a directory, or a name that cannot be opened, is no input file
        (["--graph", str(tmp_path), "--l", "2"], f"{not_a_file}: {str(tmp_path)!r}"),
        (["--graph", "", "--l", "2"], f"{not_a_file}: ''"),
        (["--graph", ".", "--l", "2"], f"{not_a_file}: '.'"),
        (["--graph", "x" * 5000, "--l", "2"], "File name too long"),
        (["--graph", "sq2", "--l", "4", "--types", str(tmp_path)],
         f"labeling file not found: {str(tmp_path)!r}"),
        # files that are not UTF-8, and a length int() refuses to read
        (["--graph", str(latin1), "--l", "2"], f"cannot read {str(latin1)!r}: not UTF-8 text"),
        (["--graph", "sq2", "--l", "4", "--types", str(latin1)],
         f"cannot read {str(latin1)!r}: not UTF-8 text"),
        (["--graph", "sq2", "--l", "9" * 5000], "--l has more than"),
        # JSON nested deeper than the parser's recursion limit
        (["--graph", str(deep), "--l", "2"], "invalid JSON graph file: maximum recursion depth"),
        (["--graph", "sq2", "--l", "4", "--types", str(deep)],
         "invalid labeling file: maximum recursion depth"),
        (["--graph", "path:2", "--l", "1", "--types", str(twice)],
         "labeling names pair (v0, v1) twice"),
    ]
    (tmp_path / "-x").mkdir()
    monkeypatch.chdir(tmp_path)
    for args, message in cases:
        code, out, err = run_cli("compute", *args)
        assert code == 2, (args, err)
        assert out == "", args
        assert message in err, (args, err)


def test_compute_routes_below_length_three_match_direct():
    # degrees 0 and 1 come from the direct route at every l, the rest from
    # each route's own pair or walks
    for graph, method in (("sq2", "geometric"), ("path:4", "tree")):
        rows = {}
        for m in (method, "direct"):
            code, out, err = run_cli("compute", "--graph", graph, "--l", "0-2", "--kmax", "3",
                                     "--method", m)
            assert code == 0, err
            rows[m] = [ln for ln in out.splitlines() if not ln.startswith("magnitude")]
        assert rows[method] == rows["direct"]
    assert rows["tree"][-5:] == ["  k  total", "k=0      0", "k=1      0", "k=2      6",
                                 "k=3      0"]


def test_compute_types_must_cover_all_pairs(tmp_path):
    labeling_path = tmp_path / "partial.json"
    labeling_path.write_text(json.dumps({"a,a": "diag"}))
    code, out, err = run_cli("compute", "--graph", "sq2", "--l", "4",
                             "--types", str(labeling_path))
    assert code == 2
    assert "cover" in err


def test_compute_input_errors_are_named(tmp_path):
    # each bad input stops with exit 2 and exactly one named error line
    json_graphs = {
        "no_vertices": ('{"vertices": [], "edges": []}',
                        "graph must have at least one vertex"),
        "unknown": ('{"vertices": ["a", "b"], "edges": [["z", "a"]]}',
                    "unknown vertex in edge: 'z'"),
        "numbers": ('{"vertices": ["a", "b"], "edges": [[1, 2]]}',
                    "malformed edge entry: [1, 2]"),
        "short": ('{"vertices": ["a", "b"], "edges": [["a"]]}',
                  "malformed edge entry: ['a']"),
    }
    cases = [("sq2:3", "sq2 takes no arguments: 'sq2:3'"),
             ("random-tree:3:x", "seed must be an integer in 'random-tree:3:x'")]
    for name, (text, message) in json_graphs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        cases.append((str(path), message))
    for spec, message in cases:
        code, out, err = run_cli("compute", "--graph", spec, "--l", "3")
        assert code == 2, (spec, err)
        assert out == ""
        assert err == f"error: {message}\n", (spec, err)


def test_input_files_may_start_with_a_byte_order_mark(tmp_path):
    # a leading UTF-8 BOM is dropped: each file reads as its BOM-free twin
    bom, plain = tmp_path / "bom", tmp_path / "plain"
    bom.mkdir()
    plain.mkdir()
    inputs = {
        "g.json": '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}',
        "g.txt": "a b\nb c\n",
        "types.json": json.dumps(sq2_pair_types()),
    }
    for name, text in inputs.items():
        (bom / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
        (plain / name).write_text(text)
    runs = [
        ["--graph", "{dir}/g.json", "--l", "2"],
        ["--graph", "{dir}/g.txt", "--l", "2", "--pair", "a,b"],
        ["--graph", "{dir}/g.txt", "--l", "2", "--format", "structured"],
        ["--graph", "sq2", "--l", "4", "--types", "{dir}/types.json"],
    ]
    for args in runs:
        outputs = []
        for directory in (bom, plain):
            code, out, err = run_cli("compute", *[arg.format(dir=directory) for arg in args])
            assert code == 0, (args, directory, err)
            outputs.append(out.replace(str(directory), "DIR"))
        assert outputs[0] == outputs[1], args
        assert "\ufeff" not in outputs[0], args


def test_tree_route_below_degree_three_matches_direct():
    # at kmax = 2 the tree route reads degree 2 from the walks
    outputs = {}
    for method in ("tree", "direct"):
        args = ["--graph", "random-tree:8:1", "--l", "4", "--kmax", "2", "--method", method]
        code, out, err = run_cli("compute", *args)
        assert code == 0, err
        outputs[method] = [ln for ln in out.splitlines() if ln.startswith("k=")]
        code, out, err = run_cli("compute", *args, "--format", "structured")
        assert code == 0, err
        outputs[method, "components"] = json.loads(out)["results"][0]["components"]
    assert outputs["tree"] == outputs["direct"] == ["k=0      0", "k=1      0", "k=2      0"]
    assert outputs["tree", "components"] == outputs["direct", "components"]


def test_compute_unwritable_out_exits_2(tmp_path):
    # a name the file system refuses is found before the work
    path = str(tmp_path / ("x" * 300))
    code, out, err = run_cli("compute", "--graph", "path:3", "--l", "2", "--out", path)
    assert code == 2, err
    assert err.startswith(f"error: cannot write {path!r}: ")
    # a link into a missing directory fails only when written, after the work
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "file")
    code, out, err = run_cli("compute", "--graph", "path:3", "--l", "2", "--out", str(link))
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"error: cannot write {str(link)!r}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["link"]


def test_internal_value_error_is_no_usage_error(monkeypatch, tmp_path):
    # only GraphError means bad input; any other ValueError is a fault and
    # must not pass for a usage error
    def broken(spec):
        raise ValueError("broken")

    monkeypatch.setattr(maghom.cli, "generate", broken)
    for args in (
        ["compute", "--graph", "sq2", "--l", "2"],
        ["check", "--graph", "sq2", "--l", "3"],
        ["export", "--graph", "sq2", "--l", "3", "--pair", "a,b", "--out", str(tmp_path / "x")],
    ):
        code, out, err = run_cli(*args)
        assert code == 1, args
        assert err.endswith("ValueError: broken\n"), args
        assert "error:" not in err, args


def test_compute_internal_check_failure_exits_4(monkeypatch):
    # Force the tree totals check to see numbers that contradict the closed
    # form by lying about the closed form itself.
    monkeypatch.setattr(
        maghom.report, "tree_magnitude_closed_form",
        lambda g, l, k: HomologyGroup(999),
    )
    code, out, err = run_cli("compute", "--graph", "path:4", "--l", "3", "--method", "tree")
    assert code == 4
    assert "closed form" in err


def test_compute_non_isometry_exits_4_naming_the_graph(monkeypatch):
    monkeypatch.setattr(
        maghom.graphs, "automorphism_generators", lambda dist: [(1, 0, 2, 3, 4)]
    )
    code, out, err = run_cli("compute", "--graph", "path:5", "--l", "3")
    assert code == 4
    assert "error: path:5 l=3: automorphism generator is not an isometry" in err


# --- check --------------------------------------------------------------------


def test_check_random_trials():
    code, out, err = run_cli("check", "--trials", "3", "--seed", "7")
    assert code == 0
    assert "3/3 trials agree" in out
    assert out.count("trial ") == 3


def test_check_zero_trials_warns():
    code, out, err = run_cli("check", "--trials", "0")
    assert code == 0
    assert "vacuous" in err


def test_check_single_graph():
    code, out, err = run_cli("check", "--graph", "sq2", "--l", "4")
    assert code == 0
    assert "agree" in out


def test_check_single_graph_length_range():
    code, out, err = run_cli("check", "--graph", "cycle:5", "--l", "3-4")
    assert code == 0
    assert out.count("agree") == 2


def test_check_single_graph_below_length_three():
    code, out, err = run_cli("check", "--graph", "sq2", "--l", "0-2")
    assert code == 0, err
    assert out.splitlines() == [
        f"sq2: l={l}: 36 components agree ({n} chain-level identities checked)"
        for l, n in ((0, 6), (1, 22), (2, 34))
    ]


def test_check_usage_errors(tmp_path):
    cases = [
        (["--graph", "sq2", "--l", ""], "--l expects an integer or a range like 3-5, got ''"),
        (["--graph", "sq2", "--l", "-1"], "--l must be nonnegative"),
        (["--graph", "sq2", "--l", "5-3"], "empty --l range: '5-3'"),
        (["--graph", str(tmp_path), "--l", "3"],
         f"not a builtin generator and not a file: {str(tmp_path)!r}"),
        (["--trials", "-1"], "--trials must be nonnegative"),
    ]
    cases += [
        (["--graph", "path:2", "--l", l_spec],
         f"--l expects an integer or a range like 3-5, got {l_spec!r}")
        for l_spec in ("1_0", "+4", "\u0664", " 4 ", "3 - 5")
    ]
    cases += [(["--n-max", n], f"--n-max must be at least 2, got {n}") for n in ("0", "1")]
    cases += [
        (["--l-max", n, "--trials", "2"], f"--l-max must be at least 3, got {n}")
        for n in ("2", "-1")
    ]
    # --l sets the length of --graph only; random trials must not ignore it
    cases += [
        (["--l", l_spec, "--trials", "2", "--seed", "5"],
         "--l needs --graph; random trials draw l up to --l-max")
        for l_spec in ("9", "2")
    ]
    # and the random-trial options must not be ignored by a single --graph
    cases += [
        (["--graph", "cycle:4", "--l", "3", option, value],
         f"{option} applies to random trials, not to --graph")
        for option, value in (("--trials", "999"), ("--seed", "5"), ("--n-max", "4"),
                              ("--l-max", "5"))
    ]
    # an option given at its default is given too
    cases += [
        (["--graph", "cycle:4", "--l", "3", option, value],
         f"{option} applies to random trials, not to --graph")
        for option, value in (("--trials", "20"), ("--seed", "0"), ("--n-max", "6"),
                              ("--l-max", "5"))
    ]
    for args, message in cases:
        code, out, err = run_cli("check", *args)
        assert code == 2, (args, err)
        assert f"error: {message}\n" == err, (args, err)
    # the integer options take ASCII digits and a leading "-" only, as --l does
    for option in ("--trials", "--seed", "--n-max", "--l-max"):
        for value in ("1_0", "+3", " 4 ", "\u0663"):
            code, out, err = run_cli("check", option, value)
            assert (code, out) == (2, ""), (option, value)
            assert f"argument {option}: invalid integer value: {value!r}" in err, err
    # an option is named in full, never abbreviated
    code, out, err = run_cli("check", "--tri", "3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tri 3" in err


def test_check_mismatch_exits_3(monkeypatch):
    def fake_cross_validate(g, l):
        mism = Mismatch(
            key=ComponentKey("x", "y", l), k=2,
            direct=HomologyGroup(1), geometric=ZERO_GROUP,
        )
        return CrossValidationReport(
            l=l, pairs_checked=1, chain_checks=0, mismatch=mism,
        )

    monkeypatch.setattr(maghom.cli, "cross_validate", fake_cross_validate)
    # random trials and a single --graph report a disagreement the same way
    for args in (
        ["--trials", "1", "--seed", "0", "--l-max", "3"],
        ["--graph", "sq2", "--l", "3-4"],
    ):
        code, out, err = run_cli("check", *args)
        assert code == 3, args
        assert "l=3: MISMATCH at component (a=x, b=y, l=3), degree 2" in out, args
        assert "l=4" not in out, args
        assert err == (
            "counterexample: component (a=x, b=y, l=3), degree 2: direct Z vs geometric 0\n"
        ), args


def test_check_internal_failure_exits_4_naming_the_run(monkeypatch):
    def failing_verify(*args):
        raise InternalCheckError("boundary sign identity fails at degree 1")

    monkeypatch.setattr(maghom.geometric, "verify_chain_map", failing_verify)
    # nothing is printed for the failing run, so the message names it
    for args, message in (
        (["--trials", "3", "--seed", "5"], r"trial 1/3: n=\d+ e=\d+ l=\d+"),
        (["--graph", "sq2", "--l", "3"], r"sq2: l=3"),
    ):
        code, out, err = run_cli("check", *args)
        assert code == 4, args
        assert out == "", args
        assert re.fullmatch(
            rf"error: {message}: boundary sign identity fails at degree 1\n", err
        ), (args, err)


# --- export -------------------------------------------------------------------


def test_export_writes_pair_and_off(tmp_path):
    stem = tmp_path / "p5"
    code, out, err = run_cli("export", "--graph", "path:5", "--l", "4",
                             "--pair", "v0,v4", "--out", str(stem))
    assert code == 0
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
    # A dotted stem is extended, never cut at its last dot.
    code, out, err = run_cli("export", "--graph", "path:5", "--l", "4",
                             "--pair", "v0,v4", "--out", str(tmp_path / "p5.v2"))
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("p5.v2.*")) == [
        "p5.v2.deltas.json", "p5.v2.pair.json", "p5.v2.sub.off", "p5.v2.total.off",
    ]


# sha256 of every file that export writes, keyed by (graph, pair, stem) at l = 4
PINNED_EXPORTS = {
    ("path:5", "v0,v4", "p5"): {
        "p5.pair.json": "0740a1bf8d986dda41c8f4524f5a4c91ee8902051c6dcdb7958b47952efa78f8",
        "p5.total.off": "0261948c29891d364ab6a5bd2a3d078732998b883e9d2694246663570b66baf8",
        "p5.sub.off": "3e5911a056895b33a80f0c2b8a4ffbe28896d4eb287627c837eb156ad5ddd3ce",
        "p5.deltas.json": "da3613ebcad98bdcb84449c2cfcb894782b5ea3a0a760a04bde92e74ff71939a",
    },
    ("sq2", "a,d", "sq2"): {
        "sq2.pair.json": "758c6ae99c473c825d048c3e807dba44a4dc564959d999f362210552136e5103",
        "sq2.total.off": "78c854ef316369cc0a501d875e5b88a9f7b497e3c189bf2b4fc7f5615d396e1c",
        "sq2.sub.off": "9e45d74c16182433ca9d311f5215a0d03fad5270f30d76cdbf918ca021095a98",
    },
}


def test_export_bytes_are_pinned(tmp_path):
    for (graph, pair, stem), digests in PINNED_EXPORTS.items():
        code, out, err = run_cli("export", "--graph", graph, "--l", "4", "--pair", pair,
                                 "--out", str(tmp_path / stem))
        assert code == 0, err
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob(f"{stem}.*")}
        assert written == digests


def test_export_skips_high_dimensional_off(tmp_path):
    stem = tmp_path / "big"
    code, out, err = run_cli("export", "--graph", "complete:3", "--l", "6",
                             "--pair", "v0,v1", "--out", str(stem))
    assert code == 0
    assert "skipping OFF" in err
    assert (tmp_path / "big.pair.json").exists()
    assert not (tmp_path / "big.total.off").exists()


def test_export_below_length_three_on_a_tree(tmp_path):
    # (l, pair, maximal simplices of K, walks with their turning points)
    cases = [
        ("0", "v0,v0", [], [(["v0"], [])]),
        ("1", "v0,v1", [], [(["v0", "v1"], [])]),
        ("2", "v0,v0", [[[1, "v1"]]], [(["v0", "v1", "v0"], [1])]),
    ]
    for l, pair, maximal, walks in cases:
        stem = tmp_path / f"l{l}"
        code, out, err = run_cli("export", "--graph", "path:3", "--l", l, "--pair", pair,
                                 "--out", str(stem))
        assert code == 0, err
        assert sorted(p.name for p in tmp_path.glob(f"l{l}.*")) == [
            f"l{l}.deltas.json", f"l{l}.pair.json", f"l{l}.sub.off", f"l{l}.total.off",
        ]
        doc = json.loads((tmp_path / f"l{l}.pair.json").read_text())
        assert doc["total"]["maximal_simplices"] == maximal
        assert doc["sub"]["maximal_simplices"] == []
        deltas = json.loads((tmp_path / f"l{l}.deltas.json").read_text())["components"]
        assert [(rec["walk"], rec["turning_points"]) for rec in deltas] == walks


def test_export_empty_component_notice(tmp_path):
    stem = tmp_path / "empty"
    code, out, err = run_cli("export", "--graph", "path:6", "--l", "3",
                             "--pair", "v0,v5", "--out", str(stem))
    assert code == 0
    assert "empty" in err
    doc = json.loads((tmp_path / "empty.pair.json").read_text())
    assert doc["total"]["maximal_simplices"] == []


def test_export_internal_failure_exits_4_naming_the_graph(monkeypatch, tmp_path):
    def failing_build(g, key):
        raise InternalCheckError(f"K pair check fails for {key}")

    monkeypatch.setattr(maghom.cli, "build_k_pair", failing_build)
    code, out, err = run_cli("export", "--graph", "path:5", "--l", "4", "--pair", "v0,v4",
                             "--out", str(tmp_path / "p5"))
    assert code == 4
    assert err == (
        "error: path:5 l=4: K pair check fails for ComponentKey(a='v0', b='v4', l=4)\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_export_usage_errors(tmp_path):
    stem = str(tmp_path / "x")

    def export(graph="sq2", l="4", pair="a,b", out=stem):
        code, _, err = run_cli("export", "--graph", graph, "--l", l, "--pair", pair, "--out", out)
        assert code == 2, err
        return err

    # one integer in ASCII digits, and a message that offers no range form
    for l in ("+4", "1_0", " 4", "\u0664", "-1", "3-5", "4-4"):
        assert export(l=l) == f"error: export --l expects one nonnegative integer, got {l!r}\n"
    assert export(l="9" * 5000).startswith("error: --l has more than")
    assert not list(tmp_path.glob("x.*"))
    assert export(pair="a") == """error: --pair expects "u,v", got 'a'\n"""
    assert export(pair="a,zz") == "error: unknown vertex: 'zz'\n"
    assert export(graph=str(tmp_path)) == (
        f"error: not a builtin generator and not a file: {str(tmp_path)!r}\n"
    )
    missing = tmp_path / "missing" / "dir"
    assert export(out=str(missing / "x")) == (
        f"error: --out directory does not exist: {str(missing)!r}\n"
    )
    assert not (tmp_path / "missing").exists()
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    assert export(out=str(outdir)) == f"error: --out names a directory: {str(outdir)!r}\n"
    assert list(outdir.iterdir()) == []
    assert not list(tmp_path.glob("outdir.*"))
    new = f"{tmp_path / 'new'}/"
    assert export(out=new) == f"error: --out names a directory: {new!r}\n"
    assert not (tmp_path / "new").exists() and not list(tmp_path.glob("new.*"))
    # an option is named in full, never abbreviated
    code, out, err = run_cli("export", "--graph", "sq2", "--l", "4", "--pai", "a,b", "--out", stem)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --pai a,b" in err


def test_export_write_failures_exit_2_with_nothing_written(tmp_path):
    # a target that is a directory is refused before any file is written
    (tmp_path / "p5.total.off").mkdir()
    args = ["export", "--graph", "path:5", "--l", "4", "--pair", "v0,v4", "--out"]
    code, out, err = run_cli(*args, str(tmp_path / "p5"))
    assert code == 2, err
    target = str(tmp_path / "p5.total.off")
    assert err == f"error: cannot write {target!r}: it is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p5.total.off"]
    assert not list((tmp_path / "p5.total.off").iterdir())
    # a stem the file system takes, but not with the first suffix added
    long_stem = str(tmp_path / ("x" * 250))
    code, out, err = run_cli(*args, long_stem)
    assert code == 2, err
    assert err.startswith(f"error: cannot write {long_stem + '.pair.json'!r}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["p5.total.off"]


# --- lengths past the recursion limit -------------------------------------------


def test_long_lengths_exit_2_naming_graph_and_l(tmp_path):
    # basis and walk enumeration recurse once per step, so l = 1200 passes
    # the recursion limit although path:2 has one cell per pair
    stem = str(tmp_path / "p2")
    for args, where in (
        (["compute", "--graph", "path:2", "--l", "1200"], "path:2 l=1200"),
        (["compute", "--graph", "path:2", "--l", "1200", "--method", "direct"], "path:2 l=1200"),
        (["compute", "--graph", "cycle:3", "--l", "1200", "--pair", "v0,v1",
          "--method", "geometric"], "cycle:3 l=1200"),
        (["check", "--graph", "path:2", "--l", "1200"], "path:2: l=1200"),
        (["export", "--graph", "path:2", "--l", "1200", "--pair", "v0,v1", "--out", stem],
         "path:2 l=1200"),
    ):
        code, out, err = run_cli(*args)
        assert code == 2, (args, err)
        assert out == "", args
        assert err == (
            f"error: {where}: l is too long: enumeration recurses once per step "
            "and hit the recursion limit\n"
        ), args
        assert "Traceback" not in err, args
    assert list(tmp_path.iterdir()) == []


def _one_gib_of_address_space():
    # runs in the child before exec: a request that allocates by l or kmax
    # then fails at once instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "args, message",
    [
        # the K pair's label universe holds (l - 1) * n labels
        (["compute", "--graph", "sq2", "--l", "10000000"], "sq2 l=10000000: "),
        (["export", "--graph", "sq2", "--l", "10000000", "--pair", "a,d"], "sq2 l=10000000: "),
        # enumeration and the chain complex hold one basis per degree up to l + 1
        (["compute", "--graph", "sq2", "--l", "1000000000", "--method", "direct"],
         "sq2 l=1000000000: "),
        (["check", "--graph", "sq2", "--l", "1000000000"], "sq2: l=1000000000: "),
        (["compute", "--graph", "sq2", "--l", "99999999999999999999999"],
         "sq2 l=99999999999999999999999: "),
        # a table holds one group per degree up to kmax
        (["compute", "--graph", "path:3", "--l", "2", "--kmax", "100000000"],
         "path:3 l=2: --kmax is past the recursion limit (1000); every degree above l is zero"),
        # random trials draw l up to --l-max
        (["check", "--trials", "2", "--l-max", "1000000000"],
         "--l-max is past the recursion limit (1000), got 1000000000"),
    ],
)
def test_long_requests_are_refused_before_allocating(tmp_path, args, message):
    if message.endswith(": "):
        message += maghom.cli.TOO_LONG
    if args[0] == "export":
        args = [*args, "--out", str(tmp_path / "sq")]
    src = str(Path(maghom.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    r = subprocess.run(
        [sys.executable, "-m", "maghom.cli", *args], capture_output=True, text=True,
        env=env, timeout=60, preexec_fn=_one_gib_of_address_space,
    )
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "call, message",
    [
        # the K pair's labels and the walks' positions are sized by l
        ('build_table(generate("sq2"), 10**7)', "Graph(6 vertices, 8 edges) l=10000000: "),
        ('build_table(generate("sq2"), 10**7, graph_spec="sq2")', "sq2 l=10000000: "),
        # one basis per degree up to l + 1, then the K pair
        ('cross_validate(generate("sq2"), 10**7)', "Graph(6 vertices, 8 edges) l=10000000: "),
        # one group per degree up to kmax
        ('build_table(generate("path:3"), 2, kmax=10**8)',
         "Graph(3 vertices, 2 edges) l=2: kmax is past the recursion limit (1000);"
         " every degree above l is zero"),
    ],
)
def test_library_long_requests_raise_graph_error(call, message):
    # library callers get the CLI's rule as a GraphError, before anything
    # sized by l or kmax is allocated
    if message.endswith(": "):
        message += maghom.cli.TOO_LONG
    code = (
        "from maghom import GraphError, build_table, cross_validate, generate\n"
        f"try:\n    {call}\nexcept GraphError as exc:\n    print(exc)\n"
    )
    src = str(Path(maghom.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
        preexec_fn=_one_gib_of_address_space,
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, f"{message}\n", "")


# --- entry point ----------------------------------------------------------------


def test_help_lists_commands():
    code, out, err = run_cli("--help")
    assert code == 0
    for cmd in ("compute", "check", "export"):
        assert cmd in out
    # each command's help lists its options
    options = {
        "compute": ["--graph", "--l", "--kmax", "--method", "--pair", "--types", "--out",
                    "--format"],
        "check": ["--graph", "--l", "--trials", "--seed", "--n-max", "--l-max"],
        "export": ["--graph", "--l", "--pair", "--out"],
    }
    for cmd, names in options.items():
        code, out, err = run_cli(cmd, "--help")
        assert (code, err) == (0, ""), cmd
        assert out.startswith(f"usage: maghom {cmd} "), cmd
        for name in names:
            assert f"  {name} " in out, (cmd, name)
    # a command is required
    code, out, err = run_cli()
    assert (code, out) == (2, "")
    assert err.startswith("usage: maghom ")


def test_import_and_compute_load_no_dataclasses_or_json():
    # every command runs in a fresh interpreter, so what importing maghom
    # loads is paid by every command; the snapshot is taken after argparse,
    # which the CLI is built on, and click, which it does not use, must not
    # come in through the import or the command
    code = (
        "import sys\n"
        "import argparse\n"
        "before = set(sys.modules)\n"
        "import maghom.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'click', 'dataclasses', 'json'}))\n"
        "maghom.cli.main(['compute', '--graph', 'cycle:4', '--l', '3'])\n"
        "print(sorted((set(sys.modules) - before) & {'click', 'json'}))\n"
    )
    src = str(Path(maghom.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith("magnitude homology  graph=cycle:4  l=3")
    assert lines[-1] == "[]"


# --- benchmark tracer ---------------------------------------------------------


def test_benchmark_tracer_finds_every_traced_function(rp2_complex):
    # The traced benchmark wraps maghom functions by name and its counters
    # read matrices and results, so renaming or deleting a function, or
    # changing what a counter reads, must fail here and not only in a traced
    # benchmark run.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def traced(run):
        tracer = spans.Tracer()
        undo = []
        try:
            undo = spans.install(tracer)
            run()
        except spans.CoverageError as exc:
            pytest.fail(f"the benchmark tracer lost a function: {exc}")
        finally:
            spans.uninstall(undo)
        assert undo
        return tracer

    def tables():
        # one small table per route, called through a patched binding
        maghom.report.build_table(generate("cycle:4"), 3, method="geometric")
        maghom.report.build_table(generate("path:4"), 3, method="tree")
        maghom.report.build_table(generate("sq2"), 2, method="direct")
        # the unit pairs leave the three tables nothing to hand to Smith
        # normal form, but they cannot remove RP^2's 2-torsion entry
        importlib.import_module("maghom.homology").homology_all(rp2_complex, 2)

    tracer = traced(tables)
    for name in (
        "homology.snf_calls", "homology.snf_nnz", "magnitude.basis_cells",
        "simplicial.relative_cells", "geometric.simplices", "graphs.walks",
        "trees.summands",
    ):
        assert tracer.counts[name] > 0, name
    # the counter reads K, which the pair builds on first read: the count is
    # still K's, and no span opened while the counter held the clock
    assert tracer.counts["geometric.simplices"] == 12
    negative = {name: value for name, value in tracer.layer_metrics().items()
                if name.endswith("_s") and name != "trace.overhead_s" and value < 0}
    assert not negative
    # a span opened inside a counter need not make a self time negative on
    # tables this small; it always adds a call, so the same tables traced
    # without counters must make the same calls
    spans.TIMED = tuple((m, f, metric, None) for m, f, metric, _ in spans.TIMED)
    spans.COUNTED = tuple((m, f, None) for m, f, _ in spans.COUNTED)
    assert traced(tables).calls == tracer.calls

    # cross-validation builds each component's complexes once: cycle:5 at
    # l = 4 has 25 components, all within distance 4
    tracer = traced(lambda: maghom.geometric.cross_validate(generate("cycle:5"), 4))
    for name in (
        "geometric.build_k_pair", "simplicial.relative_chain_complex",
        "magnitude.magnitude_chain_complex", "geometric.chain_map_t",
        "geometric.verify_chain_map",
    ):
        assert tracer.calls[name] == 25, name
