import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghom.geometric
from maghom import (
    ComponentKey,
    GraphError,
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
    interior_length,
    interior_tuple,
    pair_groups,
    verify_chain_map,
)
from maghom.homology import ZERO_GROUP, IntegerMatrix, homology_all
from maghom.magnitude import magnitude_chain_complex
from maghom.simplicial import SimplicialComplex, relative_chain_complex
from oracles import chain_complex, k_pair_by_definition, random_graph_from_seed


# --- the complex pair ------------------------------------------------------------


def test_geometric_route_below_length_three_matches_direct(sq2):
    # degrees 0 and 1 come from the direct route at every l, and degree 2
    # from the pair; at l <= 1 a walk's interior is empty, so nothing is a cell
    for l in (0, 1):
        assert build_k_pair(sq2, ComponentKey("a", "b", l)).cells == frozenset()
    kp = build_k_pair(sq2, ComponentKey("a", "a", 2))
    assert sorted(kp.cells) == [((1, "b"),), ((1, "f"),)] and kp.sub == frozenset()
    for l in (0, 1, 2):
        for a in sq2.vertices:
            for b in sq2.vertices:
                key = ComponentKey(a, b, l)
                for kmax in (None, 1, 4):
                    assert magnitude_homology_geometric(sq2, key, kmax) == (
                        magnitude_homology_direct(sq2, key, kmax)
                    ), (key, kmax)
    # below degree 2 the pair has no groups to give
    kp = build_k_pair(sq2, ComponentKey("a", "b", 1))
    assert pair_groups(sq2, kp, relative_chain_complex(kp.labels, kp.cells), 1) == []


def test_k_pair_sq2_diagonal(sq2):
    kp = build_k_pair(sq2, ComponentKey("a", "a", 4))
    total = SimplicialComplex(kp.labels, kp.total)
    maximal = total.maximal_simplices()
    # One maximal simplex per 4-step round trip; each has the 3 interior
    # positions, hence dimension 2.
    assert len(maximal) == 8
    assert all(len(s) == 3 for s in maximal)
    assert all(s in kp.total for s in kp.sub)
    # Labels are (position, vertex) with interior positions only.
    for pos, v in total.labels:
        assert 1 <= pos <= 3
        assert v in sq2.vertices


def test_k_pair_is_an_immutable_value(sq2):
    kp = build_k_pair(sq2, ComponentKey("a", "d", 4))
    same = build_k_pair(sq2, ComponentKey("a", "d", 4))
    assert kp == same and hash(kp) == hash(same) and len({kp, same}) == 1
    assert kp != build_k_pair(sq2, ComponentKey("a", "d", 3))
    with pytest.raises(AttributeError):
        kp.cells = frozenset()
    # K is built once, on first read, and kept
    assert kp.total is kp.total
    assert kp == same  # a cached K takes no part in equality
    copy = KPair(key=kp.key, labels=kp.labels, walks=kp.walks, cells=kp.cells)
    assert copy == kp and copy.total == kp.total


def test_k_pair_endpoint_distance_equal_length():
    # d(v0, v4) = 4 = l: no proper sub-walks exist, so the cut-out part is empty.
    g = generate("path:5")
    kp = build_k_pair(g, ComponentKey("v0", "v4", 4))
    assert len(kp.sub) == 0
    total = SimplicialComplex(kp.labels, kp.total)
    assert total.maximal_simplices() == [((1, "v1"), (2, "v2"), (3, "v3"))]


def test_k_pair_unreachable_is_empty():
    # d(v0, v5) = 5 > 3: no walk fits in the length budget, both complexes
    # are empty.
    g = generate("path:6")
    kp = build_k_pair(g, ComponentKey("v0", "v5", 3))
    assert len(kp.total) == 0 and len(kp.sub) == 0


def test_interior_length_bounds(sq2):
    key = ComponentKey("a", "a", 4)
    kp = build_k_pair(sq2, key)
    for s in kp.total:
        if s in kp.sub:
            assert interior_length(sq2, key, s) <= 3
        else:
            assert interior_length(sq2, key, s) == 4


def test_shorter_length_complex_embeds(sq2):
    # Every simplex of the length-(l-1) complex appears in the length-l
    # cut-out subcomplex for the same endpoints.
    for a, b in [("a", "a"), ("a", "b"), ("b", "e")]:
        small = build_k_pair(sq2, ComponentKey(a, b, 3))
        big = build_k_pair(sq2, ComponentKey(a, b, 4))
        for s in small.total:
            assert s in big.sub or s in big.total


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
    # definitions (all walks of at most l steps, closed lengths <= l - 1)
    components = 0
    for g, l in _definition_battery():
        for a in g.vertices:
            for b in g.vertices:
                key = ComponentKey(a, b, l)
                total, sub = k_pair_by_definition(g, key)
                kp = build_k_pair(g, key)
                assert kp.total == total, key
                assert kp.sub == sub, key
                rel = relative_chain_complex(kp.labels, kp.cells)
                index = {lab: i for i, lab in enumerate(kp.labels)}
                for n in range(l - 1):
                    expected = sorted(
                        (s for s in total - sub if len(s) == n + 1),
                        key=lambda s: [index[lab] for lab in s],
                    )
                    assert rel.basis(n) == expected, (key, n)
                components += 1
    assert components == 674


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
    # K is built on first read of ``total``; no pair of cycle:7 has d(a, b) = 5,
    # so the route reads only the relative cells
    assert built and not any("total" in vars(kp) for kp in built)
    assert cross_validate(generate("cycle:5"), 4).ok
    # the degree-2 branch reads K exactly on the pairs at distance l: the
    # antipodal pairs of the 6-cycle at l = 3
    built.clear()
    g = generate("cycle:6")
    assert cross_validate(g, 3).ok
    assert len(built) == 36
    assert {kp.key for kp in built if "total" in vars(kp)} == {
        ComponentKey(a, b, 3) for a in g.vertices for b in g.vertices if g.distances[a][b] == 3
    }


# --- the chain-level correspondence ------------------------------------------------


def _relative_complex(g, key):
    kp = build_k_pair(g, key)
    return relative_chain_complex(kp.labels, kp.cells)


def test_chain_map_on_sq2_components(sq2):
    for a, b in [("a", "a"), ("a", "d"), ("b", "e"), ("a", "b")]:
        key = ComponentKey(a, b, 4)
        rel, mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
        verify_chain_map(key, rel, mag, chain_map_t(sq2, key, rel, mag))


def test_chain_map_bijection_shapes(sq2):
    key = ComponentKey("a", "a", 4)
    rel, mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    index_by_degree = chain_map_t(sq2, key, rel, mag)
    expected = magnitude_chain_complex(sq2, key, 4)
    assert len(index_by_degree) == key.l - 1
    for n, places in enumerate(index_by_degree):
        # a permutation of the magnitude basis two degrees up, sending each
        # relative cell to its endpoint-closed tuple
        assert sorted(places) == list(range(expected.dim(n + 2)))
        basis = mag.basis(n + 2)
        assert [basis[i] for i in places] == [interior_tuple(key, s) for s in rel.basis(n)]


def test_chain_map_detects_corrupted_boundary(sq2):
    # Feed the verifier a magnitude complex with one sign flipped, then one
    # with one nonzero removed; the degreewise identity must fail loudly.
    real = magnitude_chain_complex
    key = ComponentKey("a", "a", 4)
    rel = _relative_complex(sq2, key)
    for corruption in ("flip", "remove"):

        def corrupted(g, key, kmax):
            c = real(g, key, kmax)
            for n in range(1, c.top_degree + 1):
                mat = c.boundaries[n]
                columns = [dict(column) for column in mat.columns]
                j = next((j for j, column in enumerate(columns) if column), None)
                if j is not None:
                    row = min(columns[j])
                    if corruption == "flip":
                        columns[j][row] = -columns[j][row]
                    else:
                        del columns[j][row]
                    c.boundaries[n] = IntegerMatrix(mat.rows, mat.cols, columns)
                    return c
            return c

        mag = corrupted(sq2, key, key.l + 1)
        with pytest.raises(InternalCheckError):
            verify_chain_map(key, rel, mag, chain_map_t(sq2, key, rel, mag))


@pytest.mark.parametrize(
    "drop, add, message",
    [
        # (a, b, f, d) keeps length 4, but f sits at distance 2, not 3
        ({((1, "b"), (2, "f"))}, {((1, "b"), (3, "f"))}, "position mismatch"),
        # (a, b, c, d) has length 3 < l
        (set(), {((1, "b"), (2, "c"))}, "interior length != l"),
    ],
)
def test_chain_map_rejects_bad_cells(sq2, drop, add, message):
    key = ComponentKey("a", "d", 4)
    kp = build_k_pair(sq2, key)
    assert drop <= kp.cells and not add & kp.cells
    rel = relative_chain_complex(kp.labels, (kp.cells - drop) | add)
    mag = magnitude_chain_complex(sq2, key, key.l + 1)
    with pytest.raises(InternalCheckError, match=message):
        chain_map_t(sq2, key, rel, mag)


def test_chain_map_failures_name_the_component_and_degree():
    g = generate("path:3")
    labels = ((1, "v1"), (2, "v1"))
    for key, cell, message in (
        # (v0, v1, v2) has length 2 = l, but v1 sits at distance 1, not 2
        (ComponentKey("v0", "v2", 2), ((2, "v1"),),
         "degree 0 position mismatch in ((2, 'v1'),) of "
         "ComponentKey(a='v0', b='v2', l=2): 2 != 1"),
        # (v0, v1, v2) has length 2 < l
        (ComponentKey("v0", "v2", 4), ((1, "v1"),),
         "degree 0 relative simplex ((1, 'v1'),) of "
         "ComponentKey(a='v0', b='v2', l=4) has interior length != l"),
    ):
        rel = relative_chain_complex(labels, {cell})
        mag = magnitude_chain_complex(g, key, key.l + 1)
        with pytest.raises(InternalCheckError) as excinfo:
            chain_map_t(g, key, rel, mag)
        assert str(excinfo.value) == message


def test_chain_map_rejects_a_foreign_magnitude_basis(sq2):
    # the relative complex of (a, d, 4) against the magnitude complex of
    # (a, c, 4): every relative cell is well formed, but the bases differ
    key = ComponentKey("a", "d", 4)
    rel = _relative_complex(sq2, key)
    mag = magnitude_chain_complex(sq2, ComponentKey("a", "c", 4), 5)
    message = (
        "degree 0 basis bijection fails for ComponentKey(a='a', b='d', l=4): "
        "0 relative simplices vs 1 sequences"
    )
    with pytest.raises(InternalCheckError) as excinfo:
        chain_map_t(sq2, key, rel, mag)
    assert str(excinfo.value) == message


def test_chain_map_detects_swapped_cells(sq2):
    # two cells of one degree trade places in the identification; at
    # (a, a, 4) the first two cells of relative degrees 0 and 1 have
    # different boundary columns, so the swapped map is no chain map
    key = ComponentKey("a", "a", 4)
    rel, mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    for n in (0, 1):
        index_by_degree = chain_map_t(sq2, key, rel, mag)
        places = index_by_degree[n]
        places[0], places[1] = places[1], places[0]
        with pytest.raises(InternalCheckError, match="boundary sign identity fails"):
            verify_chain_map(key, rel, mag, index_by_degree)
    # the first two cells of degree 2 both have zero boundary, and relative
    # degree 3 is empty at l = 4, so swapping them still gives a chain map
    index_by_degree = chain_map_t(sq2, key, rel, mag)
    places = index_by_degree[2]
    assert not any(rel.boundary(2).columns[:2])
    places[0], places[1] = places[1], places[0]
    assert verify_chain_map(key, rel, mag, index_by_degree)


@pytest.mark.parametrize("repeat", ["in place", "appended"])
def test_chain_map_rejects_a_repeated_sequence(sq2, repeat):
    # the degree-2 magnitude basis names one tuple twice: in place of the
    # next tuple, which then has no cell, or as one more sequence than cells
    key = ComponentKey("a", "a", 4)
    rel, mag = _relative_complex(sq2, key), magnitude_chain_complex(sq2, key, 5)
    basis = mag.bases[2]
    cells = len(basis)
    if repeat == "in place":
        basis[1] = basis[0]
    else:
        basis.append(basis[0])
    message = (
        "degree 0 basis bijection fails for ComponentKey(a='a', b='a', l=4): "
        f"{cells} relative simplices vs {len(basis)} sequences"
    )
    with pytest.raises(InternalCheckError) as excinfo:
        chain_map_t(sq2, key, rel, mag)
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


def test_geometric_low_degrees_delegate(sq2):
    groups = magnitude_homology_geometric(sq2, ComponentKey("a", "b", 3), kmax=1)
    direct = magnitude_homology_direct(sq2, ComponentKey("a", "b", 3), kmax=1)
    assert groups == direct


def test_geometric_unreachable_zero():
    g = generate("path:6")
    key = ComponentKey("v0", "v5", 3)
    groups = magnitude_homology_geometric(g, key)
    assert all(h == ZERO_GROUP for h in groups)
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_distance_equals_length():
    # Antipodal points on a 6-cycle at l = 3: two geodesics, disconnected
    # interior complex, reduced homology Z.
    g = generate("cycle:6")
    key = ComponentKey("v0", "v3", 3)
    kp = build_k_pair(g, key)
    assert len(kp.sub) == 0
    total = SimplicialComplex(kp.labels, kp.total)
    assert homology_all(chain_complex(total), up_to=0)[0] == HomologyGroup(2)
    groups = magnitude_homology_geometric(g, key)
    assert groups[2] == HomologyGroup(1)
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_rejects_nonempty_sub(monkeypatch):
    # At d(a, b) = l the reduced-H_0 reading is only valid for an empty K'.
    g = generate("cycle:6")
    key = ComponentKey("v0", "v3", 3)
    kp = build_k_pair(g, key)
    vertex = min(s for s in kp.total if len(s) == 1)
    # K keeps the vertex, the cells lose it, so K' = K minus the cells holds it
    bad = KPair(key=key, labels=kp.labels, walks=kp.walks, cells=kp.cells - {vertex})
    assert bad.sub == {vertex}
    monkeypatch.setattr(maghom.geometric, "build_k_pair", lambda g, key: bad)
    with pytest.raises(InternalCheckError, match="not empty"):
        magnitude_homology_geometric(g, key)


def test_degree_two_branch_rejects_a_cell_outside_k(monkeypatch):
    # The other direction: a cell that no walk interior holds leaves K' empty
    # but makes the cells more than K, so they are no longer K's chains.
    g = generate("cycle:6")
    key = ComponentKey("v0", "v3", 3)
    kp = build_k_pair(g, key)
    foreign = ((1, "v3"),)
    assert foreign not in kp.total
    bad = KPair(key=key, labels=kp.labels, walks=kp.walks, cells=kp.cells | {foreign})
    assert bad.sub == frozenset()
    monkeypatch.setattr(maghom.geometric, "build_k_pair", lambda g, key: bad)
    with pytest.raises(InternalCheckError, match="not empty"):
        magnitude_homology_geometric(g, key)


def test_degree_two_branch_single_geodesic_is_zero():
    g = generate("cycle:7")
    key = ComponentKey("v0", "v3", 3)
    groups = magnitude_homology_geometric(g, key)
    assert groups[2] == ZERO_GROUP
    assert groups == magnitude_homology_direct(g, key)


def test_degree_two_branch_distance_below_length():
    # d(v0, v2) = 2 < 3 on a 5-cycle: relative degree-zero homology is Z.
    g = generate("cycle:5")
    key = ComponentKey("v0", "v2", 3)
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


def test_cross_validate_reports_mismatch(sq2, monkeypatch):
    real = pair_groups

    def lying(g, kpair, rel, kmax):
        groups = real(g, kpair, rel, kmax)
        if kpair.key.a == "a" and kpair.key.b == "a":
            groups = list(groups)
            groups[-1] = HomologyGroup(groups[-1].betti + 1, groups[-1].torsion)
        return groups

    monkeypatch.setattr(maghom.geometric, "pair_groups", lying)
    report = cross_validate(sq2, 4)
    assert not report.ok
    mism = report.mismatch
    assert (mism.key.a, mism.key.b) == ("a", "a")
    assert mism.geometric != mism.direct
    assert "MISMATCH" in report.describe()


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

