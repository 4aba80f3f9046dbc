"""Torsion on the routes: face-poset graphs of cell complexes on RP^2.

The graph of a regular cell complex X (``oracles.face_poset_graph``) has
d(bottom, top) = 4 and MH_{k,4}(bottom, top) = H~_{k-2}(X), so a complex on
the projective plane puts Z/2 at k = 3.  Every other route fixture is
torsion-free; these check that a torsion class survives each route, the
orbit copies, the table and the structured output.
"""

import json

import pytest

from maghom import (
    ComponentKey,
    HomologyGroup,
    build_table,
    cross_validate,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
)
from maghom.homology import ZERO_GROUP, direct_sum
from conftest import run_cli
from oracles import cartesian_product

RP2_AT_4 = [ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, HomologyGroup(0, (2,)), ZERO_GROUP]


def test_face_poset_graph_sizes(hemi, rp2_graph):
    assert (hemi.num_vertices, hemi.num_edges) == (15, 31)
    assert (rp2_graph.num_vertices, rp2_graph.num_edges) == (33, 76)
    assert hemi.distances["bottom"]["top"] == rp2_graph.distances["bottom"]["top"] == 4


@pytest.mark.parametrize("route", [magnitude_homology_direct, magnitude_homology_geometric])
@pytest.mark.parametrize("graph", ["hemi", "rp2_graph"])
def test_projective_plane_torsion_on_both_routes(route, graph, request):
    g = request.getfixturevalue(graph)
    assert route(g, ComponentKey("bottom", "top", 4)) == RP2_AT_4


@pytest.mark.parametrize("method", ["direct", "geometric"])
def test_projective_plane_torsion_in_a_pair_table(hemi, method):
    table = build_table(hemi, 4, method=method, pair=("bottom", "top"))
    assert table.pair_groups == {("bottom", "top"): RP2_AT_4}
    assert table.totals() == RP2_AT_4


def test_projective_plane_torsion_in_structured_output(hemi, tmp_path):
    path = tmp_path / "hemi.json"
    path.write_text(json.dumps({"vertices": list(hemi.vertices), "edges": [list(e) for e in hemi.edges]}))
    code, out, err = run_cli("compute", "--graph", str(path), "--l", "4",
                             "--pair", "bottom,top", "--format", "structured")
    assert code == 0, err
    [result] = json.loads(out)["results"]
    [component] = result["components"]
    assert (component["a"], component["b"]) == ("bottom", "top")
    assert [(g["k"], g["betti"], g["torsion"]) for g in component["groups"]] == [
        (0, 0, []), (1, 0, []), (2, 0, []), (3, 0, [2]), (4, 0, []),
    ]


def test_cross_validate_agrees_on_every_pair_of_the_hemi_octahedron(hemi):
    report = cross_validate(hemi, 4)
    assert report.ok, report.describe()
    assert report.pairs_checked == 225


@pytest.mark.parametrize("method", ["direct", "geometric"])
def test_hemi_octahedron_totals_carry_torsion(hemi, method):
    # each pair's Z/2 adds up in the table: 2 summands at l = 4 (the
    # bottom-top pair and its reverse), 8 at l = 5
    assert build_table(hemi, 4, method=method).totals() == [
        ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, HomologyGroup(0, (2, 2)), HomologyGroup(584),
    ]
    assert build_table(hemi, 5, method=method).totals() == [
        ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, HomologyGroup(38, (2,) * 8), HomologyGroup(856),
    ]


def test_kunneth_formula_with_a_torsion_factor(hemi):
    # path:2 has MH_{j,j} = Z^2 in every degree and nothing else, all free,
    # so no Tor term appears: MH_{k,l}(hemi x path:2) is the sum over j of
    # MH_{k-j,l-j}(hemi)^2, torsion included
    product = cartesian_product(hemi, generate("path:2"))
    factor = [build_table(hemi, l, method="direct").totals() for l in range(6)]
    for l in range(6):
        totals = build_table(product, l, method="direct").totals()
        expected = [direct_sum(factor[l - j][k - j] for j in range(k + 1) for _ in range(2))
                    for k in range(l + 1)]
        assert totals == expected, l
    # at (k, l) = (4, 5): twice the 8 summands of MH_{4,5}(hemi) and the 2 of MH_{3,4}
    assert totals[4].torsion == (2,) * 20
