import json

import pytest

from maghom import (
    HomologyGroup,
    build_table,
    dump_json,
    generate,
    parse_pair_labeling,
    render_table,
    report_document,
    sq2_pair_types,
)
from maghom.report import table_to_dict


@pytest.fixture(scope="module")
def sq2_table():
    g = generate("sq2")
    return build_table(g, 4, 4, "direct", graph_spec="sq2")


def test_totals_and_group_lookup(sq2_table):
    totals = sq2_table.totals()
    assert [h.betti for h in totals] == [0, 0, 0, 12, 112]
    assert sq2_table.group("a", "a", 4) == HomologyGroup(6)
    assert sq2_table.group("a", "d", 3) == HomologyGroup(2)
    assert len(sq2_table.pair_keys) == 36


def test_single_pair_table():
    g = generate("sq2")
    t = build_table(g, 4, 4, "direct", pair=("a", "d"), graph_spec="sq2")
    assert t.pair_keys == [("a", "d")]
    assert [h.betti for h in t.totals()] == [0, 0, 0, 2, 0]


def test_apply_types_groups_pairs(sq2_table):
    labeling = {tuple(k.split(",")): v for k, v in sq2_pair_types().items()}
    sq2_table.apply_types(labeling)
    assert sq2_table.type_labels == [
        "(a,a)", "(a,b)", "(a,c)", "(a,d)", "(b,b)", "(b,c)", "(b,f)", "(b,e)",
    ]
    k3 = {lab: sq2_table.type_totals(lab)[3].betti for lab in sq2_table.type_labels}
    k4 = {lab: sq2_table.type_totals(lab)[4].betti for lab in sq2_table.type_labels}
    assert k3 == {"(a,a)": 0, "(a,b)": 0, "(a,c)": 8, "(a,d)": 4,
                  "(b,b)": 0, "(b,c)": 0, "(b,f)": 0, "(b,e)": 0}
    assert k4 == {"(a,a)": 12, "(a,b)": 40, "(a,c)": 0, "(a,d)": 0,
                  "(b,b)": 32, "(b,c)": 0, "(b,f)": 20, "(b,e)": 8}


def test_apply_types_requires_full_coverage():
    g = generate("path:3")
    t = build_table(g, 2, 2, "direct")
    with pytest.raises(ValueError, match="cover"):
        t.apply_types({("v0", "v0"): "diag"})


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
    doc = report_document(tables, "path:4", g, "direct", seed=None)
    assert doc["format_version"] == 1
    assert doc["graph"]["spec"] == "path:4"
    assert doc["graph"]["vertices"] == ["v0", "v1", "v2", "v3"]
    assert len(doc["results"]) == 2
    text = dump_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc
    # Rebuilding from scratch gives byte-identical output.
    tables2 = [build_table(g, l, l, "direct", graph_spec="path:4") for l in (2, 3)]
    assert dump_json(report_document(tables2, "path:4", g, "direct", seed=None)) == text


def test_parse_pair_labeling_ok():
    g = generate("path:2")
    text = json.dumps({"v0,v0": "d", "v1,v1": "d", "v0,v1": "o", "v1,v0": "o"})
    labeling = parse_pair_labeling(text, g)
    assert labeling[("v0", "v1")] == "o"
    assert len(labeling) == 4


def test_parse_pair_labeling_errors():
    g = generate("path:2")
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_pair_labeling(json.dumps({"v0,v9": "x"}), g)
    with pytest.raises(ValueError):
        parse_pair_labeling("[1, 2]", g)
    with pytest.raises(ValueError):
        parse_pair_labeling("{not json", g)
    with pytest.raises(ValueError, match="u,v"):
        parse_pair_labeling(json.dumps({"v0": "x"}), g)


def test_build_table_auto_resolves_the_route(sq2):
    table = build_table(sq2, 3)
    assert table.l == 3 and table.kmax == 3 and table.method == "geometric"
    assert len(table.pair_keys) == 36
    assert build_table(sq2, 2).method == "direct"
    assert build_table(generate("path:4"), 3).method == "tree"
    assert build_table(sq2, 3, method="direct").totals() == table.totals()
    with pytest.raises(ValueError, match="unknown method"):
        build_table(sq2, 3, method="nosuch")
