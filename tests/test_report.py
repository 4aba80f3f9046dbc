import itertools
import json
import random

import pytest

import maghom.graphs
import maghom.report
from maghom import (
    ComponentKey,
    GraphError,
    HomologyGroup,
    InternalCheckError,
    build_table,
    dump_json,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
    parse_pair_labeling,
    random_connected_graph,
    render_table,
    report_document,
    sq2_pair_types,
    tree_homology_by_pair,
)
from maghom.report import table_to_dict


@pytest.fixture(scope="module")
def sq2_table():
    g = generate("sq2")
    return build_table(g, 4, 4, "direct", graph_spec="sq2")


def test_totals_and_group_lookup(sq2_table):
    totals = sq2_table.totals()
    assert [h.betti for h in totals] == [0, 0, 0, 12, 112]
    assert sq2_table.pair_groups["a", "a"][4] == HomologyGroup(6)
    assert sq2_table.pair_groups["a", "d"][3] == HomologyGroup(2)
    assert len(sq2_table.pair_groups) == 36


def test_single_pair_table():
    g = generate("sq2")
    t = build_table(g, 4, 4, "direct", pair=("a", "d"), graph_spec="sq2")
    assert list(t.pair_groups) == [("a", "d")]
    assert [h.betti for h in t.totals()] == [0, 0, 0, 2, 0]


def test_apply_types_groups_pairs(sq2_table):
    labeling = {tuple(k.split(",")): v for k, v in sq2_pair_types().items()}
    sq2_table.apply_types(labeling)
    assert list(sq2_table.type_groups) == [
        "(a,a)", "(a,b)", "(a,c)", "(a,d)", "(b,b)", "(b,c)", "(b,f)", "(b,e)",
    ]
    k3 = {lab: groups[3].betti for lab, groups in sq2_table.type_groups.items()}
    k4 = {lab: groups[4].betti for lab, groups in sq2_table.type_groups.items()}
    assert k3 == {"(a,a)": 0, "(a,b)": 0, "(a,c)": 8, "(a,d)": 4,
                  "(b,b)": 0, "(b,c)": 0, "(b,f)": 0, "(b,e)": 0}
    assert k4 == {"(a,a)": 12, "(a,b)": 40, "(a,c)": 0, "(a,d)": 0,
                  "(b,b)": 32, "(b,c)": 0, "(b,f)": 20, "(b,e)": 8}


def test_apply_types_requires_full_coverage():
    g = generate("path:3")
    t = build_table(g, 2, 2, "direct")
    with pytest.raises(GraphError, match="cover"):
        t.apply_types({("v0", "v0"): "diag"})


def test_apply_types_on_a_single_pair_keeps_only_its_label(sq2):
    labeling = {tuple(k.split(",")): v for k, v in sq2_pair_types().items()}
    t = build_table(sq2, 4, 4, "direct", pair=("b", "a"))
    t.apply_types(labeling)
    assert list(t.type_groups) == ["(a,b)"]
    assert t.type_groups["(a,b)"] == t.pair_groups["b", "a"]
    assert "(a,a)" not in render_table(t)
    assert [record["label"] for record in table_to_dict(t)["types"]] == ["(a,b)"]


def test_render_table_totals_only():
    g = generate("path:3")
    t = build_table(g, 2, 2, "direct", graph_spec="path:3")
    text = render_table(t)
    assert "graph=path:3" in text and "total" in text
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert any(ln.split()[0] == "k=0" for ln in lines)
    row2 = next(ln for ln in lines if ln.split()[0] == "k=2")
    assert row2.split()[1] == "4"


def test_render_table_with_types(sq2_table):
    text = render_table(sq2_table)
    assert "(a,a)" in text and "(b,e)" in text and "total" in text
    row4 = next(ln for ln in text.splitlines() if ln.split() and ln.split()[0] == "k=4")
    assert row4.split()[1:] == ["12", "40", "0", "0", "32", "0", "20", "8", "112"]


def test_table_to_dict_structure(sq2_table):
    doc = table_to_dict(sq2_table)
    assert doc["l"] == 4 and doc["kmax"] == 4
    assert doc["method"] == "direct"
    assert len(doc["components"]) == 36
    rec = next(c for c in doc["components"] if c["a"] == "a" and c["b"] == "d")
    by_k = {r["k"]: r for r in rec["groups"]}
    assert by_k[3]["betti"] == 2 and by_k[3]["torsion"] == []
    assert [r["betti"] for r in doc["totals"]] == [0, 0, 0, 12, 112]


def test_report_document_and_json_stability():
    g = generate("path:4")
    tables = [build_table(g, l, l, "direct", graph_spec="path:4") for l in (2, 3)]
    doc = report_document(tables, "path:4", g, "direct")
    assert doc["format_version"] == 1
    assert doc["graph"]["spec"] == "path:4"
    assert doc["graph"]["vertices"] == ["v0", "v1", "v2", "v3"]
    assert doc["seed"] is None
    assert len(doc["results"]) == 2
    text = dump_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc
    # Rebuilding from scratch gives byte-identical output.
    tables2 = [build_table(g, l, l, "direct", graph_spec="path:4") for l in (2, 3)]
    assert dump_json(report_document(tables2, "path:4", g, "direct")) == text


def test_parse_pair_labeling_ok():
    g = generate("path:2")
    text = json.dumps({"v0,v0": "d", "v1,v1": "d", "v0,v1": "o", "v1,v0": "o"})
    labeling = parse_pair_labeling(text, g)
    assert labeling[("v0", "v1")] == "o"
    assert len(labeling) == 4


def test_parse_pair_labeling_errors():
    g = generate("path:2")
    # every error is a GraphError, which the CLI maps to exit code 2
    with pytest.raises(GraphError, match="unknown vertex"):
        parse_pair_labeling(json.dumps({"v0,v9": "x"}), g)
    with pytest.raises(GraphError, match="must be a JSON object"):
        parse_pair_labeling("[1, 2]", g)
    with pytest.raises(GraphError, match="invalid labeling file"):
        parse_pair_labeling("{not json", g)
    with pytest.raises(GraphError, match="u,v"):
        parse_pair_labeling(json.dumps({"v0": "x"}), g)
    with pytest.raises(GraphError, match="must be a string"):
        parse_pair_labeling(json.dumps({"v0,v0": 1}), g)
    with pytest.raises(GraphError, match=r"does not cover pair \(v0, v1\)"):
        parse_pair_labeling(json.dumps({"v0,v0": "d"}), g)
    # a pair named twice, by the same key or by two spellings of it
    for text in ('{"v0,v1": "y", "v0,v1": "z"}', '{"v0,v1": "y", " v0 , v1 ": "z"}'):
        with pytest.raises(GraphError, match=r"^labeling names pair \(v0, v1\) twice$"):
            parse_pair_labeling(text, g)


def test_build_table_auto_resolves_the_route(sq2):
    table = build_table(sq2, 3)
    assert table.l == 3 and table.kmax == 3 and table.method == "geometric"
    assert len(table.pair_groups) == 36
    assert build_table(sq2, 2).method == "direct"
    assert build_table(generate("path:4"), 3).method == "tree"
    assert build_table(sq2, 3, method="direct").totals() == table.totals()
    with pytest.raises(ValueError, match="unknown method"):
        build_table(sq2, 3, method="nosuch")


def test_build_table_checks_tree_totals_against_the_closed_form(monkeypatch):
    g = generate("path:4")
    build_table(g, 3, method="tree")
    monkeypatch.setattr(
        maghom.report, "tree_magnitude_closed_form", lambda g, l, k: HomologyGroup(999)
    )
    for method in ("tree", "auto"):
        # the check starts at degree 1, the first the closed form covers
        with pytest.raises(InternalCheckError, match="disagree with the closed form at k=1"):
            build_table(g, 3, method=method)
    # a single pair has no closed form to meet, and other routes are not checked
    build_table(g, 3, method="tree", pair=("v0", "v3"))
    build_table(g, 3, method="direct")


def _copy_test_graphs():
    rng = random.Random(31337)
    drawn = [random_connected_graph(rng) for _ in range(10)]
    named = [generate(spec) for spec in ("sq2", "cycle:6", "complete:4", "star:5", "path:5",
                                         "random-tree:7:1", "random-tree:8:2")]
    return named + drawn


ROUTES = {
    "direct": magnitude_homology_direct,
    "geometric": magnitude_homology_geometric,
    "tree": tree_homology_by_pair,
}


@pytest.mark.parametrize("g", _copy_test_graphs(), ids=repr)
def test_copied_groups_equal_direct_route_calls(g):
    l = 5
    for method, route in ROUTES.items():
        if method == "tree" and not g.is_tree():
            continue
        table = build_table(g, l, method=method)
        assert list(table.pair_groups) == [(a, b) for a in g.vertices for b in g.vertices]
        for a, b in table.pair_groups:
            assert table.pair_groups[a, b] == route(g, ComponentKey(a, b, l), l), (method, a, b)


@pytest.mark.parametrize("g", _copy_test_graphs(), ids=repr)
def test_every_route_matches_direct_below_length_three(g):
    # degrees 0 and 1 come from the direct route at every l; degree 2 and up
    # from each route's own pair or walks
    for l, kmax in itertools.product((0, 1, 2), (None, 4)):
        direct = build_table(g, l, kmax, method="direct").pair_groups
        for method in ("geometric", "tree") if g.is_tree() else ("geometric",):
            table = build_table(g, l, kmax, method=method)
            assert table.pair_groups == direct, (method, l, kmax)


def test_build_table_runs_the_route_once_per_orbit(sq2, monkeypatch):
    calls = []
    real = maghom.report.magnitude_homology_direct

    def counting(g, key, kmax):
        calls.append((key.a, key.b))
        return real(g, key, kmax)

    monkeypatch.setattr(maghom.report, "magnitude_homology_direct", counting)
    table = build_table(sq2, 4, method="direct")
    assert calls == [("a", "a"), ("a", "b"), ("a", "c"), ("a", "d"),
                     ("b", "b"), ("b", "c"), ("b", "e"), ("b", "f")]
    assert len(table.pair_groups) == 36
    assert table.totals() == build_table(sq2, 4, method="direct").totals()
    calls.clear()
    build_table(sq2, 4, method="direct", pair=("f", "c"))
    assert calls == [("f", "c")]


def test_build_table_rejects_a_non_isometry(monkeypatch):
    g = generate("path:5")
    # swapping v0 and v1 moves v0's neighbour v1 to distance 2
    monkeypatch.setattr(
        maghom.graphs, "automorphism_generators", lambda dist: [(1, 0, 2, 3, 4)]
    )
    with pytest.raises(InternalCheckError, match="not an isometry"):
        build_table(g, 3, method="direct")
    monkeypatch.setattr(
        maghom.graphs, "automorphism_generators", lambda dist: [(0, 0, 2, 3, 4)]
    )
    with pytest.raises(InternalCheckError, match="not a bijection"):
        build_table(g, 3, method="direct")
    # a single pair needs no orbits, so it does not search
    assert len(build_table(g, 3, method="direct", pair=("v0", "v4")).pair_groups) == 1
