import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghom.geometric
from maghom import (
    ComponentKey,
    HomologyGroup,
    InternalCheckError,
    build_k_pair,
    cross_validate,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
)
from maghom.geometric import chain_map_t, interior_length, verify_chain_map
from maghom.homology import ZERO_GROUP
from maghom.magnitude import magnitude_chain_complex
from oracles import random_graph_from_seed


# --- the complex pair ------------------------------------------------------------


def test_k_pair_requires_length_three(sq2):
    with pytest.raises(ValueError):
        build_k_pair(sq2, ComponentKey("a", "a", 2))


def test_k_pair_sq2_diagonal(sq2):
    kp = build_k_pair(sq2, ComponentKey("a", "a", 4))
    maximal = kp.total.maximal_simplices()
    # One maximal simplex per 4-step round trip; each has the 3 interior
    # positions, hence dimension 2.
    assert len(maximal) == 8
    assert all(len(s) == 3 for s in maximal)
    assert kp.sub.is_subcomplex_of(kp.total)
    # Labels are (position, vertex) with interior positions only.
    for pos, v in kp.total.labels:
        assert 1 <= pos <= 3
        assert v in sq2.vertices


def test_k_pair_endpoint_distance_equal_length():
    # d(v0, v4) = 4 = l: no proper sub-walks exist, so the cut-out part is empty.
    g = generate("path:5")
    kp = build_k_pair(g, ComponentKey("v0", "v4", 4))
    assert len(kp.sub) == 0
    assert kp.total.maximal_simplices() == [((1, "v1"), (2, "v2"), (3, "v3"))]


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


# --- the chain-level correspondence ------------------------------------------------


def test_chain_map_on_sq2_components(sq2):
    for a, b in [("a", "a"), ("a", "d"), ("b", "e"), ("a", "b")]:
        mapping = chain_map_t(sq2, build_k_pair(sq2, ComponentKey(a, b, 4)))
        verify_chain_map(sq2, mapping)


def test_chain_map_bijection_shapes(sq2):
    key = ComponentKey("a", "a", 4)
    mapping = chain_map_t(sq2, build_k_pair(sq2, key))
    mag = magnitude_chain_complex(sq2, key, 4)
    for n, pairs in enumerate(mapping.pairs_by_degree):
        assert len(pairs) == mag.dim(n + 2)


def test_chain_map_detects_corrupted_boundary(sq2, monkeypatch):
    # Feed the verifier a magnitude complex with one sign flipped; the
    # degreewise identity must fail loudly.
    real = magnitude_chain_complex

    def corrupted(g, key, kmax):
        c = real(g, key, kmax)
        for n in range(1, c.top_degree + 1):
            mat = c.boundaries[n].to_lists()
            if mat and mat[0] and any(any(row) for row in mat):
                for r, row in enumerate(mat):
                    for col, val in enumerate(row):
                        if val:
                            mat[r][col] = -val
                            c.boundaries[n] = type(c.boundaries[n])(mat)
                            return c
        return c

    monkeypatch.setattr(maghom.geometric, "magnitude_chain_complex", corrupted)
    key = ComponentKey("a", "a", 4)
    with pytest.raises(InternalCheckError):
        mapping = chain_map_t(sq2, build_k_pair(sq2, key))
        verify_chain_map(sq2, mapping)


# --- homology via the pair ----------------------------------------------------------


def test_geometric_matches_direct_on_sq2(sq2):
    for a in sq2.vertices:
        for b in sq2.vertices:
            key = ComponentKey(a, b, 4)
            assert magnitude_homology_geometric(sq2, key) == magnitude_homology_direct(sq2, key)


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
    assert kp.total.component_count() == 2
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


def test_cross_validate_reports_mismatch(sq2, monkeypatch):
    real = magnitude_homology_direct

    def lying(g, key, kmax=None):
        groups = real(g, key, kmax)
        if key.a == "a" and key.b == "a":
            groups = list(groups)
            groups[-1] = HomologyGroup(groups[-1].betti + 1, groups[-1].torsion)
        return groups

    monkeypatch.setattr(maghom.geometric, "magnitude_homology_direct", lying)
    report = cross_validate(sq2, 4, chain_level=False)
    assert not report.ok
    mism = report.mismatch
    assert (mism.key.a, mism.key.b) == ("a", "a")
    assert mism.geometric != mism.direct
    assert "MISMATCH" in report.describe()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cross_validate_random_graphs(seed):
    g = random_graph_from_seed(seed, n_max=5)
    l = random.Random(seed).randint(3, 4)
    report = cross_validate(g, l, chain_level=True)
    assert report.ok, report.describe()
