import importlib
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghom.geometric
import maghom.magnitude as magnitude_module
from maghom import (
    ComponentKey,
    HomologyGroup,
    InternalCheckError,
    KPair,
    build_k_pair,
    build_table,
    cross_validate,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
    random_connected_graph,
    tree_homology_by_pair,
)
from maghom.geometric import (
    CrossValidationReport,
    Mismatch,
    chain_map_t,
    verify_chain_map,
)
from maghom.export import interior_length, pair_complexes
from maghom.homology import ZERO_GROUP, IntegerChainComplex, IntegerMatrix, homology_all
from maghom.magnitude import enumerate_basis, magnitude_chain_complex
from maghom.simplicial import SimplicialComplex, relative_chain_complex
from oracles import (
    chain_complex,
    decoded_cells,
    decoded_columns,
    drop_positions,
    incidence_layers,
    k_pair_by_definition,
    membership_incidence,
    metric,
    random_graph_from_seed,
)


# --- the complex pair ------------------------------------------------------------


def _sub(kp):
    """K' of a K pair: the simplices of K that are no cell's interior."""
    return kp.total - {cell[1:-1] for cell in decoded_cells(kp)}


def test_geometric_route_below_length_three_matches_direct(sq2):
    # every cell is closed by (0, a) and (l, b): at l = 0 the one label (0, a)
    # is the degree-0 cell of a = b, and at l = 1 the empty interior is the
    # cell of an edge; at l = 2 the interiors are a's neighbours
    kp = build_k_pair(sq2, ComponentKey("a", "a", 0))
    assert kp.labels == ((0, "a"),) and decoded_cells(kp) == {((0, "a"),)}
    assert decoded_cells(build_k_pair(sq2, ComponentKey("a", "b", 0))) == frozenset()
    assert decoded_cells(build_k_pair(sq2, ComponentKey("a", "b", 1))) == {((0, "a"), (1, "b"))}
    assert decoded_cells(build_k_pair(sq2, ComponentKey("a", "c", 1))) == frozenset()
    assert decoded_cells(build_k_pair(sq2, ComponentKey("a", "a", 1))) == frozenset()
    kp = build_k_pair(sq2, ComponentKey("a", "a", 2))
    assert sorted(decoded_cells(kp)) == [
        ((0, "a"), (1, "b"), (2, "a")), ((0, "a"), (1, "f"), (2, "a")),
    ]
    assert _sub(kp) == frozenset()
    for l in (0, 1, 2):
        for a in sq2.vertices:
            for b in sq2.vertices:
                key = ComponentKey(a, b, l)
                for kmax in (None, 1, 4):
                    assert magnitude_homology_geometric(sq2, key, kmax) == (
                        magnitude_homology_direct(sq2, key, kmax)
                    ), (key, kmax)


def test_k_pair_sq2_diagonal(sq2):
    kp = build_k_pair(sq2, ComponentKey("a", "a", 4))
    assert kp.labels[0] == (0, "a") and kp.labels[-1] == (4, "a")
    total = SimplicialComplex(kp.labels[1:-1], kp.total)
    maximal = total.maximal_simplices()
    # One maximal simplex per 4-step round trip; each has the 3 interior
    # positions, hence dimension 2.
    assert len(maximal) == 8
    assert all(len(s) == 3 for s in maximal)
    assert all(s in kp.total for s in _sub(kp))
    # K's labels are (position, vertex) with interior positions only.
    for pos, v in total.labels:
        assert 1 <= pos <= 3
        assert v in sq2.vertices


def test_k_pair_is_an_immutable_value(sq2):
    kp = build_k_pair(sq2, ComponentKey("a", "d", 4))
    same = build_k_pair(sq2, ComponentKey("a", "d", 4))
    assert kp == same and hash(kp) == hash(same) and len({kp, same}) == 1
    assert kp != build_k_pair(sq2, ComponentKey("a", "d", 3))
    with pytest.raises(AttributeError):
        kp.incidence = {}
    # K is built once, on first read, and kept
    assert kp.total is kp.total
    assert kp == same  # a cached K takes no part in equality
    # the columns are found again from the cells in labels; the layers'
    # order is the basis order, so the oracle's sorted layers, which differ
    # from the descent's in degree 1 here, make another value
    copy = KPair(key=kp.key, labels=kp.labels, walks=kp.walks,
                 incidence=membership_incidence(kp.labels, decoded_cells(kp)))
    assert decoded_columns(copy.incidence) == decoded_columns(kp.incidence)
    assert copy.total == kp.total and decoded_cells(copy) == decoded_cells(kp)
    assert list(copy.incidence[0]) == list(kp.incidence[0]) and copy != kp


def test_k_pair_endpoint_distance_equal_length():
    # d(v0, v4) = 4 = l: no proper sub-walks exist, so the cut-out part is empty.
    g = generate("path:5")
    kp = build_k_pair(g, ComponentKey("v0", "v4", 4))
    assert len(_sub(kp)) == 0
    # the empty interior is a cell exactly because d(a, b) = l
    assert ((0, "v0"), (4, "v4")) in decoded_cells(kp)
    total = SimplicialComplex(kp.labels[1:-1], kp.total)
    assert total.maximal_simplices() == [((1, "v1"), (2, "v2"), (3, "v3"))]


def test_k_pair_unreachable_is_empty():
    # d(v0, v5) = 5 > 3: no walk fits in the length budget, both complexes
    # are empty.
    g = generate("path:6")
    kp = build_k_pair(g, ComponentKey("v0", "v5", 3))
    assert len(kp.total) == 0 and len(_sub(kp)) == 0 and decoded_cells(kp) == frozenset()


def test_interior_length_bounds(sq2):
    key = ComponentKey("a", "a", 4)
    kp = build_k_pair(sq2, key)
    sub = _sub(kp)
    for s in kp.total:
        if s in sub:
            assert interior_length(sq2, key, s) <= 3
        else:
            assert interior_length(sq2, key, s) == 4


def test_export_sub_is_k_minus_the_cell_interiors():
    # export takes K' by its definition, the simplices of K of interior
    # length at most l - 1; the descent's cells are K \ K', so the two agree
    components = 0
    for spec in ("sq2", "cycle:6", "path:5"):
        g = generate(spec)
        for l in range(6):
            for a in g.vertices:
                for b in g.vertices:
                    key = ComponentKey(a, b, l)
                    total, sub, _ = pair_complexes(g, key)
                    kp = build_k_pair(g, key)
                    assert set(total) == kp.total, key
                    assert set(sub) == _sub(kp), key
                    components += 1
    assert components == 6 * (36 + 36 + 25)


def test_shorter_length_complex_embeds(sq2):
    # Every simplex of the length-(l-1) complex appears in the length-l
    # cut-out subcomplex for the same endpoints.
    for a, b in [("a", "a"), ("a", "b"), ("b", "e")]:
        small = build_k_pair(sq2, ComponentKey(a, b, 3))
        big = build_k_pair(sq2, ComponentKey(a, b, 4))
        for s in small.total:
            assert s in _sub(big) or s in big.total


def _definition_battery():
    """Graphs and lengths on which the K pair is compared with its definition."""
    rng = random.Random(31337)
    for _ in range(20):
        # the draws of `maghom check --seed 31337` at the default sizes
        g = random_connected_graph(rng, n_max=6)
        yield g, rng.randint(3, 5)
    sq2 = generate("sq2")
    yield from ((sq2, l) for l in (4, 5, 6))
    yield generate("cycle:7"), 7
    yield generate("complete:5"), 5
    yield generate("cycle:6"), 3
    yield from ((generate("path:6"), l) for l in (3, 4))


def test_k_pair_matches_definition():
    # K, K' and the relative basis against a construction straight from the
    # definitions (all walks of at most l steps, closed lengths <= l - 1);
    # relative degree n holds the cells of n + 1 labels, endpoints included,
    # and the empty interior is the degree-1 cell exactly when d(a, b) = l
    components = 0
    for g, l in _definition_battery():
        for a in g.vertices:
            for b in g.vertices:
                key = ComponentKey(a, b, l)
                total, sub = k_pair_by_definition(g, key)
                kp = build_k_pair(g, key)
                assert kp.total == total, key
                assert _sub(kp) == sub, key
                rel = relative_chain_complex(kp.incidence)
                index = {lab: i for i, lab in enumerate(kp.labels)}
                closed = {((0, a), *s, (l, b)) for s in total - sub}
                if metric(g)[a][b] == l:
                    closed.add(((0, a), (l, b)))
                for n in range(l + 2):
                    expected = sorted(
                        (s for s in closed if len(s) == n + 1),
                        key=lambda s: [index[lab] for lab in s],
                    )
                    # the basis is in descent order, the expected cells in
                    # universe order
                    decoded = [tuple(map(kp.labels.__getitem__, cell))
                               for cell in sorted(rel.basis(n))]
                    assert decoded == expected, (key, n)
                components += 1
    assert components == 674


def _incidence_battery(hemi):
    """Graphs and lengths on which the descent's incidence is checked."""
    for spec in ("cycle:5", "cycle:7", "complete:4", "sq2"):
        g = generate(spec)
        yield from ((g, l) for l in range(7))
    yield from ((hemi, l) for l in (4, 5))
    rng = random.Random(31337)
    for _ in range(30):
        # the draws of the benchmark's `maghom check --trials 30 --seed 31337`
        g = random_connected_graph(rng, n_max=6)
        yield g, rng.randint(3, 5)


def test_descent_incidence_is_the_membership_incidence(hemi):
    # a facet of a relative cell is a cell iff its triangle is tight: each
    # column the descent writes, read as {facet cell: sign}, is the one
    # the membership oracle writes from the closed cells, where dropping an
    # endpoint never gives a cell; each layer is one degree, top first
    components = 0
    for g, l in _incidence_battery(hemi):
        for a in g.vertices:
            for b in g.vertices:
                kp = build_k_pair(g, ComponentKey(a, b, l))
                oracle = decoded_columns(membership_incidence(kp.labels, decoded_cells(kp)))
                columns = decoded_columns(kp.incidence)
                assert len(columns) == len(oracle), (a, b, l)
                for cell, column in columns.items():
                    assert column == oracle[cell], (a, b, l, cell)
                assert [{len(cell) for cell in layer} for layer in kp.incidence] == [
                    {size} for size in range(l + 1, l + 1 - len(kp.incidence), -1)
                ], (a, b, l)
                assert all(cell[0] == 0 and cell[-1] == len(kp.labels) - 1
                           for cell in columns), (a, b, l)
                components += 1
    assert components == 1907


def test_descent_order_is_walk_order(sq2, hemi):
    # the top layer lists the cells of the walks of exactly l steps in the
    # order they are enumerated, and each layer below numbers a facet where
    # the first cell to reach it names it: numbers first appear in order
    for g, key in ((sq2, ComponentKey("a", "a", 4)), (sq2, ComponentKey("a", "d", 5)),
                   (hemi, ComponentKey("bottom", "top", 4))):
        kp = build_k_pair(g, key)
        walks = [walk for walk in kp.walks if len(walk) == key.l + 1]
        assert [tuple(kp.labels[i][1] for i in cell) for cell in kp.incidence[0]] == walks
        for layer, below in zip(kp.incidence, kp.incidence[1:]):
            numbers = dict.fromkeys(j for column in layer.values() for j in column)
            assert list(numbers) == list(range(len(below))), key


_BASES_AND_UNIT_PAIRS = """
import random
from maghom import ComponentKey, build_k_pair, generate, random_connected_graph
from maghom.homology import _pair_units
from maghom.simplicial import relative_chain_complex

rng = random.Random(31337)
check = random_connected_graph(rng, n_max=6), rng.randint(3, 5)
for g, l in ((generate("cycle:7"), 7), check):
    for a in g.vertices:
        for b in g.vertices:
            rel = relative_chain_complex(build_k_pair(g, ComponentKey(a, b, l)).incidence)
            pairs, _ = _pair_units(rel, rel.top_degree)
            print(a, b, l, rel.bases, pairs)
"""


def test_relative_bases_do_not_depend_on_the_hash_seed():
    # the bases are in descent order, not sorted, so the walks and the
    # dicts that number the cells must not follow string hashes: cycle:7 at
    # l = 7 and the first graph of `maghom check --seed 31337` give the same
    # bases and unit pairs under two hash seeds
    src = str(Path(maghom.geometric.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _BASES_AND_UNIT_PAIRS], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}, timeout=120,
        )
        for seed in ("1", "2")
    ]
    assert [(r.returncode, r.stderr) for r in outputs] == [(0, "")] * 2
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stdout.count("\n") > 49


def test_geometric_route_builds_no_simplicial_complex(monkeypatch):
    # the route and cross-validation work on simplex sets; only export wraps
    # them in validated complexes
    def refuse(self, labels, simplices):
        raise AssertionError("SimplicialComplex built on the geometric route")

    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    built = []

    def recording(g, key):
        built.append(build_k_pair(g, key))
        return built[-1]

    monkeypatch.setattr(maghom.geometric, "build_k_pair", recording)
    table = build_table(generate("cycle:7"), 5, method="geometric")
    # the direct route's totals, torsion-free
    assert table.totals() == [HomologyGroup(b) for b in (0, 0, 0, 42, 0, 14)]
    # K is built on first read of ``total``, and the route reads only the
    # relative cells
    assert built and not any("total" in vars(kp) for kp in built)
    assert cross_validate(generate("cycle:5"), 4).ok
    # not even at d(a, b) = l, where the cell (a, b) stands for the empty K':
    # the antipodal pairs of the 6-cycle at l = 3
    built.clear()
    g = generate("cycle:6")
    assert cross_validate(g, 3).ok
    assert len(built) == 36
    assert any(g.distances[kp.key.a][kp.key.b] == 3 for kp in built)
    assert not any("total" in vars(kp) for kp in built)


# --- the chain-level correspondence ------------------------------------------------


def _relative_complex(g, key):
    """The K pair of a component and its relative complex."""
    kp = build_k_pair(g, key)
    return kp, relative_chain_complex(kp.incidence)


def test_chain_map_on_sq2_components(sq2):
    for a, b in [("a", "a"), ("a", "d"), ("b", "e"), ("a", "b")]:
        key = ComponentKey(a, b, 4)
        (kp, rel), mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
        verify_chain_map(kp, rel, mag, chain_map_t(sq2, kp, rel, mag))


def test_chain_map_bijection_shapes(sq2):
    key = ComponentKey("a", "a", 4)
    (kp, rel), mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    index_by_degree = chain_map_t(sq2, kp, rel, mag)
    expected = magnitude_chain_complex(sq2, key, 4)
    assert len(index_by_degree) == key.l + 1
    for n, places in enumerate(index_by_degree):
        # a permutation of the magnitude basis in the same degree, sending
        # each relative cell to its vertices in position order
        assert sorted(places) == list(range(expected.dim(n)))
        basis = mag.basis(n)
        assert [basis[i] for i in places] == [
            tuple(kp.labels[i][1] for i in cell) for cell in rel.basis(n)
        ]


def test_chain_map_detects_corrupted_boundary(sq2):
    # Feed the verifier a magnitude complex with one sign flipped, then one
    # with one nonzero removed; the degreewise identity must fail loudly.
    real = magnitude_chain_complex
    key = ComponentKey("a", "a", 4)
    kp, rel = _relative_complex(sq2, key)
    for corruption in ("flip", "remove"):

        def corrupted(g, key, kmax):
            # the whole boundaries of the real complex, stored with one changed
            c = real(g, key, kmax)
            boundaries = [c.boundary(n) for n in range(c.top_degree + 1)]
            for n, mat in enumerate(boundaries):
                columns = [dict(column) for column in mat.columns]
                j = next((j for j, column in enumerate(columns) if column), None)
                if j is not None:
                    row = min(columns[j])
                    if corruption == "flip":
                        columns[j][row] = -columns[j][row]
                    else:
                        del columns[j][row]
                    boundaries[n] = IntegerMatrix(mat.rows, mat.cols, columns)
                    return IntegerChainComplex(c.bases, boundaries)
            return c

        mag = corrupted(sq2, key, key.l + 1)
        with pytest.raises(InternalCheckError):
            verify_chain_map(kp, rel, mag, chain_map_t(sq2, kp, rel, mag))


@pytest.mark.parametrize(
    "drop, add, message",
    [
        # (a, b, f, d) keeps length 4, but f sits at distance 2, not 3
        ({((0, "a"), (1, "b"), (2, "f"), (4, "d"))}, {((0, "a"), (1, "b"), (3, "f"), (4, "d"))},
         "position mismatch"),
        # (a, b, c, d) has length 3 < l
        (set(), {((0, "a"), (1, "b"), (2, "c"), (4, "d"))}, "interior length != l"),
    ],
)
def test_chain_map_rejects_bad_cells(sq2, drop, add, message):
    key = ComponentKey("a", "d", 4)
    kp = build_k_pair(sq2, key)
    assert drop <= decoded_cells(kp) and not add & decoded_cells(kp)
    cells = (decoded_cells(kp) - drop) | add
    bad = KPair(key=key, labels=kp.labels, walks=kp.walks,
                incidence=membership_incidence(kp.labels, cells))
    rel = relative_chain_complex(bad.incidence)
    mag = magnitude_chain_complex(sq2, key, key.l + 1)
    with pytest.raises(InternalCheckError, match=message):
        chain_map_t(sq2, bad, rel, mag)


def test_chain_map_failures_name_the_component_and_degree():
    g = generate("path:3")
    labels = ((0, "v0"), (1, "v1"), (2, "v1"), (2, "v2"), (4, "v2"))
    for key, cells, message in (
        # (v0, v1, v2) has length 2 = l, but v1 sits at distance 1, not 2;
        # the degree-1 cell (v0, v2) is right
        (ComponentKey("v0", "v2", 2), {((0, "v0"), (2, "v2")), ((0, "v0"), (2, "v1"), (2, "v2"))},
         "degree 2 position mismatch in ((0, 'v0'), (2, 'v1'), (2, 'v2')) of "
         "ComponentKey(a='v0', b='v2', l=2): 2 != 1"),
        # (v0, v1, v2) has length 2 < l
        (ComponentKey("v0", "v2", 4), {((0, "v0"), (1, "v1"), (4, "v2"))},
         "degree 2 relative cell ((0, 'v0'), (1, 'v1'), (4, 'v2')) of "
         "ComponentKey(a='v0', b='v2', l=4) has interior length != l"),
    ):
        kp = KPair(key=key, labels=labels, walks=(), incidence=membership_incidence(labels, cells))
        rel = relative_chain_complex(kp.incidence)
        mag = magnitude_chain_complex(g, key, key.l + 1)
        with pytest.raises(InternalCheckError) as excinfo:
            chain_map_t(g, kp, rel, mag)
        assert str(excinfo.value) == message


def test_chain_map_rejects_a_foreign_magnitude_basis(sq2):
    # the relative complex of (a, d, 4) against the magnitude complex of
    # (a, c, 4): every relative cell is well formed, but the bases differ
    key = ComponentKey("a", "d", 4)
    kp, rel = _relative_complex(sq2, key)
    mag = magnitude_chain_complex(sq2, ComponentKey("a", "c", 4), 5)
    message = (
        "degree 2 basis bijection fails for ComponentKey(a='a', b='d', l=4): "
        "0 relative cells vs 1 sequences"
    )
    with pytest.raises(InternalCheckError) as excinfo:
        chain_map_t(sq2, kp, rel, mag)
    assert str(excinfo.value) == message


def test_chain_map_detects_swapped_cells(sq2):
    # two cells of one degree trade places in the identification; at
    # (a, a, 4) the first two cells of degrees 2 and 3 have different
    # boundary columns, so the swapped map is no chain map
    key = ComponentKey("a", "a", 4)
    (kp, rel), mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    for n in (2, 3):
        index_by_degree = chain_map_t(sq2, kp, rel, mag)
        places = index_by_degree[n]
        places[0], places[1] = places[1], places[0]
        with pytest.raises(InternalCheckError, match="boundary identity fails"):
            verify_chain_map(kp, rel, mag, index_by_degree)
    # the first two cells of degree 4 both have zero boundary, and degree 5
    # is empty at l = 4, so swapping them still gives a chain map
    index_by_degree = chain_map_t(sq2, kp, rel, mag)
    places = index_by_degree[4]
    assert not any(rel.boundary(4).columns[:2])
    places[0], places[1] = places[1], places[0]
    assert verify_chain_map(kp, rel, mag, index_by_degree)


@pytest.mark.parametrize("repeat", ["in place", "appended"])
def test_chain_map_rejects_a_repeated_sequence(sq2, repeat):
    # the degree-2 magnitude basis names one tuple twice: in place of the
    # next tuple, which then has no cell, or as one more sequence than cells
    key = ComponentKey("a", "a", 4)
    (kp, rel), mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    basis = mag.bases[2]
    cells = len(basis)
    if repeat == "in place":
        basis[1] = basis[0]
    else:
        basis.append(basis[0])
    message = (
        "degree 2 basis bijection fails for ComponentKey(a='a', b='a', l=4): "
        f"{cells} relative cells vs {len(basis)} sequences"
    )
    with pytest.raises(InternalCheckError) as excinfo:
        chain_map_t(sq2, kp, rel, mag)
    assert str(excinfo.value) == message


# --- homology via the pair ----------------------------------------------------------


def test_geometric_matches_direct_on_sq2(sq2):
    for a in sq2.vertices:
        for b in sq2.vertices:
            key = ComponentKey(a, b, 4)
            assert magnitude_homology_geometric(sq2, key) == magnitude_homology_direct(sq2, key)


@pytest.mark.parametrize("spec, a, b", [("sq2", "a", "d"), ("path:4", "v0", "v1")])
def test_routes_agree_on_every_length_and_degree_bound(spec, a, b):
    # kmax defaults to l on every route, so at l = -1 there is no degree;
    # degrees past l, where there are no chains, read zero on every route
    g = generate(spec)
    routes = [magnitude_homology_direct, magnitude_homology_geometric]
    if g.is_tree():
        routes.append(tree_homology_by_pair)
    for l in range(-1, 5):
        for kmax in (None, 0, 1, l + 3):
            groups = [route(g, ComponentKey(a, b, l), kmax) for route in routes]
            assert len(groups[0]) == (l if kmax is None else kmax) + 1, (l, kmax)
            assert groups[1:] == groups[:-1], (l, kmax)
            assert all(h == ZERO_GROUP for h in groups[0][l + 1:]), (l, kmax)


def test_geometric_route_never_calls_the_direct_route(monkeypatch):
    # the routes stay independent: the geometric route builds no magnitude
    # complex, in the low degrees either, on every pair of cycle:6 and sq2
    expected = {}
    for spec in ("cycle:6", "sq2"):
        g = generate(spec)
        for l in range(6):
            for a in g.vertices:
                for b in g.vertices:
                    for kmax in (None, 1):
                        key = ComponentKey(a, b, l)
                        expected[g, key, kmax] = magnitude_homology_direct(g, key, kmax)

    def refuse(*args, **kwargs):
        raise AssertionError("the geometric route called into the direct route")

    for module in (importlib.import_module("maghom.magnitude"), maghom.geometric, maghom):
        for name in ("magnitude_homology_direct", "magnitude_chain_complex", "enumerate_basis"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for (g, key, kmax), groups in expected.items():
        assert magnitude_homology_geometric(g, key, kmax) == groups, (key, kmax)


def test_geometric_route_frees_the_k_pair_before_homology(monkeypatch):
    # the walks and the incidence are the route's largest objects: once the
    # relative complex is assembled, nothing may keep the K pair alive
    pairs = []

    def recording(g, key):
        kp = build_k_pair(g, key)
        pairs.append(weakref.ref(kp))
        return kp

    def checked(complex_, up_to):
        assert pairs[-1]() is None, "the K pair is alive while homology runs"
        return homology_all(complex_, up_to=up_to)

    monkeypatch.setattr(maghom.geometric, "build_k_pair", recording)
    monkeypatch.setattr(maghom.geometric, "homology_all", checked)
    components = 0
    for g in (generate("cycle:6"), generate("sq2")):
        for l in (3, 4, 5):
            for a in g.vertices:
                for b in g.vertices:
                    key = ComponentKey(a, b, l)
                    assert magnitude_homology_geometric(g, key) == magnitude_homology_direct(g, key)
                    components += 1
    assert len(pairs) == components == 216


def test_geometric_unreachable_zero():
    g = generate("path:6")
    key = ComponentKey("v0", "v5", 3)
    groups = magnitude_homology_geometric(g, key)
    assert all(h == ZERO_GROUP for h in groups)
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_distance_equals_length():
    # Antipodal points on a 6-cycle at l = 3: two geodesics, disconnected
    # interior complex, reduced homology Z.  K' is empty, and the cell
    # (a, b) of the empty interior is what reduces H_0 of K.
    g = generate("cycle:6")
    key = ComponentKey("v0", "v3", 3)
    kp = build_k_pair(g, key)
    assert len(_sub(kp)) == 0
    assert ((0, "v0"), (3, "v3")) in decoded_cells(kp)
    total = SimplicialComplex(kp.labels[1:-1], kp.total)
    assert homology_all(chain_complex(total), up_to=0)[0] == HomologyGroup(2)
    groups = magnitude_homology_geometric(g, key)
    assert groups[2] == HomologyGroup(1)
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_single_geodesic_is_zero():
    g = generate("cycle:7")
    key = ComponentKey("v0", "v3", 3)
    groups = magnitude_homology_geometric(g, key)
    assert groups[2] == ZERO_GROUP
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_distance_below_length():
    # d(v0, v2) = 2 < 3 on a 5-cycle: relative degree-zero homology is Z,
    # and the empty interior is no cell.
    g = generate("cycle:5")
    key = ComponentKey("v0", "v2", 3)
    assert ((0, "v0"), (3, "v2")) not in decoded_cells(build_k_pair(g, key))
    groups = magnitude_homology_geometric(g, key)
    assert groups[2] == HomologyGroup(1)
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_distance_below_length_zero_case(sq2):
    key = ComponentKey("a", "b", 4)
    groups = magnitude_homology_geometric(sq2, key)
    assert groups[2] == ZERO_GROUP
    assert groups == magnitude_homology_direct(sq2, key)


# --- cross validation -----------------------------------------------------------------


def test_cross_validate_sq2(sq2):
    report = cross_validate(sq2, 4)
    assert report.ok
    assert report.pairs_checked == 36
    assert report.chain_checks == 36
    assert "agree" in report.describe()
    # path:6 at l = 3 has 6 pairs at distance > l: compared, not chain-checked
    report = cross_validate(generate("path:6"), 3)
    assert report.ok
    assert report.pairs_checked == 36
    assert report.chain_checks == 30


def test_cross_validate_assembles_each_magnitude_column_once(sq2, monkeypatch):
    # the chain check reads every column of the magnitude complex, so each
    # boundary is built whole once and homology reads the kept matrices:
    # one request per degree 1..l + 1 of every pair, none skipping a cell,
    # and as many columns as cells in those degrees
    calls = []
    real = magnitude_module._boundary_from_bases

    def recording(g, prev, cur, skip=()):
        calls.append((len(cur), set(skip)))
        return real(g, prev, cur, skip)

    monkeypatch.setattr(magnitude_module, "_boundary_from_bases", recording)
    for g, l in ((sq2, 4), (generate("cycle:5"), 5)):
        calls.clear()
        assert cross_validate(g, l).ok
        cells = sum(len(basis) for a in g.vertices for b in g.vertices
                    for basis in enumerate_basis(g, ComponentKey(a, b, l), l + 1)[1:])
        assert len(calls) == len(g.vertices) ** 2 * (l + 1)
        assert not any(skip for _, skip in calls)
        assert sum(cols for cols, _ in calls) == cells > 0


def _edited(kp, drops):
    """The layers of a K pair with cells added, each given with its drop positions."""
    return incidence_layers({**drop_positions(kp.incidence), **drops})


def test_cross_validate_reports_mismatch(sq2, monkeypatch):
    real = build_k_pair

    def lying(g, key):
        # one more cycle in the top degree of (a, a, 4): the closed tuple
        # (a, a, a, a, a) as a cell without boundary
        kp = real(g, key)
        if key.a == "a" and key.b == "a":
            foreign = tuple(kp.labels.index((pos, "a")) for pos in range(5))
            kp = KPair(key=key, labels=kp.labels, walks=kp.walks,
                       incidence=_edited(kp, {foreign: ()}))
        return kp

    monkeypatch.setattr(maghom.geometric, "build_k_pair", lying)
    report = cross_validate(sq2, 4)
    assert not report.ok
    mism = report.mismatch
    assert (mism.key.a, mism.key.b, mism.k) == ("a", "a", 4)
    assert mism.geometric != mism.direct
    assert "MISMATCH" in report.describe()

    def edgeless(g, key):
        # the cells (a, b) of the edges dropped: degree 1 reads zero
        kp = real(g, key)
        drops = {cell: entries for cell, entries in drop_positions(kp.incidence).items()
                 if len(cell) != 2}
        return KPair(key=key, labels=kp.labels, walks=kp.walks, incidence=incidence_layers(drops))

    monkeypatch.setattr(maghom.geometric, "build_k_pair", edgeless)
    report = cross_validate(sq2, 1)
    assert report.mismatch == Mismatch(ComponentKey("a", "b", 1), 1, HomologyGroup(1), ZERO_GROUP)


@pytest.mark.parametrize("change", ["collapse", "expansion", "above l"])
def test_cross_validate_refuses_a_changed_cell_set(monkeypatch, change):
    # cycle:6 at (v0, v3, 3), where K' is empty: each change keeps every
    # group, so only the chain-level identity can see it
    g = generate("cycle:6")
    key = ComponentKey("v0", "v3", 3)
    kp = build_k_pair(g, key)
    a, b = (0, "v0"), (3, "v3")

    def code(*labels):
        return tuple(map(kp.labels.index, labels))

    if change == "collapse":
        # a top cell dropped with the one facet that no other cell has
        top, free = code(a, (1, "v1"), (2, "v2"), b), code(a, (1, "v1"), b)
        assert top in drop_positions(kp.incidence) and free in drop_positions(kp.incidence)
        dropped = {tuple(map(kp.labels.__getitem__, cell)) for cell in (top, free)}
        incidence = membership_incidence(kp.labels, decoded_cells(kp) - dropped)
    elif change == "expansion":
        # a foreign cycle (v0, v3, v3) added with a foreign cell that bounds it
        cycle, filler = code(a, (1, "v3"), b), code(a, (1, "v3"), (2, "v3"), b)
        incidence = _edited(kp, {cycle: (), filler: (2,)})
    else:
        # a foreign cell of degree l + 1, above the degrees that are compared
        incidence = _edited(kp, {code(a, (1, "v1"), (1, "v2"), (2, "v2"), b): ()})
    bad = KPair(key=key, labels=kp.labels, walks=kp.walks, incidence=incidence)
    rel = relative_chain_complex(bad.incidence)
    assert homology_all(rel, up_to=3) == magnitude_homology_direct(g, key)

    monkeypatch.setattr(maghom.geometric, "build_k_pair",
                        lambda g, k: bad if k == key else build_k_pair(g, k))
    with pytest.raises(InternalCheckError, match="basis bijection fails|position mismatch"):
        cross_validate(g, 3)


def test_mismatch_and_report_values():
    key = ComponentKey("x", "y", 3)
    mism = Mismatch(key=key, k=2, direct=HomologyGroup(1), geometric=ZERO_GROUP)
    assert mism == Mismatch(key, 2, HomologyGroup(1), ZERO_GROUP)
    assert hash(mism) == hash(Mismatch(key, 2, HomologyGroup(1), ZERO_GROUP))
    assert mism != Mismatch(key, 3, HomologyGroup(1), ZERO_GROUP)
    with pytest.raises(AttributeError):
        mism.k = 3
    report = CrossValidationReport(l=3, pairs_checked=1, chain_checks=0, mismatch=mism)
    assert report == CrossValidationReport(3, 1, 0, mism) and not report.ok
    assert CrossValidationReport(l=3) == CrossValidationReport(3, 0, 0, None)
    assert CrossValidationReport(l=3).ok
    report.chain_checks += 1
    report.mismatch = None
    assert report.ok and report == CrossValidationReport(3, 1, 1)
    with pytest.raises(TypeError):
        hash(report)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cross_validate_random_graphs(seed):
    g = random_graph_from_seed(seed, n_max=5)
    for l in (0, 1, 2, random.Random(seed).randint(3, 4)):
        report = cross_validate(g, l)
        assert report.ok, report.describe()

