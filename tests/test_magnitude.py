import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import (
    ComponentKey,
    Graph,
    HomologyGroup,
    build_table,
    generate,
    magnitude_homology_direct,
)
from maghom.homology import ZERO_GROUP
from maghom.magnitude import enumerate_basis, magnitude_chain_complex
from oracles import brute_force_magnitude_basis, random_graph_from_seed


# --- basis enumeration ---------------------------------------------------------


def test_basis_degree_zero():
    g = generate("path:3")
    assert enumerate_basis(g, ComponentKey("v0", "v0", 0), 0) == [[("v0",)]]
    assert enumerate_basis(g, ComponentKey("v0", "v0", 1), 0) == [[]]
    assert enumerate_basis(g, ComponentKey("v0", "v1", 0), 0) == [[]]


def test_basis_sq2_diagonal_component(sq2):
    per_degree = enumerate_basis(sq2, ComponentKey("a", "a", 4), 4)
    sizes = [len(b) for b in per_degree]
    # Degree k basis has consecutive-distinct (k+1)-tuples of total length 4.
    assert sizes[0] == 0 and sizes[1] == 0
    assert sizes[4] == 8  # the eight 4-step round trips from a
    for k, basis in enumerate(per_degree):
        for seq in basis:
            assert len(seq) == k + 1
            assert seq[0] == "a" and seq[-1] == "a"
            assert all(seq[i] != seq[i + 1] for i in range(k))
            assert sum(sq2.distance(seq[i], seq[i + 1]) for i in range(k)) == 4


def test_basis_matches_brute_force_on_sq2(sq2):
    for a, b, l in [("a", "a", 4), ("a", "d", 4), ("b", "e", 3), ("a", "b", 2)]:
        per_degree = enumerate_basis(sq2, ComponentKey(a, b, l), l)
        for k in range(l + 1):
            assert per_degree[k] == brute_force_magnitude_basis(sq2, a, b, l, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_basis_matches_brute_force_random(seed):
    g = random_graph_from_seed(seed, n_max=5)
    rng = random.Random(seed)
    a, b = rng.choice(g.vertices), rng.choice(g.vertices)
    l = rng.randint(0, 4)
    kmax = min(l, 4)
    per_degree = enumerate_basis(g, ComponentKey(a, b, l), kmax)
    for k in range(kmax + 1):
        assert per_degree[k] == brute_force_magnitude_basis(g, a, b, l, k)


def test_basis_empty_beyond_length():
    # A (k+1)-sequence needs at least k steps, so k > l gives nothing.
    g = generate("cycle:5")
    per_degree = enumerate_basis(g, ComponentKey("v0", "v0", 2), 5)
    assert [len(b) for b in per_degree] == [0, 0, 2, 0, 0, 0]


# --- boundary matrices -----------------------------------------------------------


def test_boundary_hand_example():
    # Path v0-v1-v2: the only degree-2 chain in the (v0, v2, 2) component is
    # (v0, v1, v2); dropping the middle vertex keeps the length, giving
    # d(v0,v1,v2) = -(v0,v2).
    g = generate("path:3")
    key = ComponentKey("v0", "v2", 2)
    assert enumerate_basis(g, key, 2)[2] == [("v0", "v1", "v2")]
    d2 = magnitude_chain_complex(g, key, 2).boundary(2)
    assert d2.to_lists() == [[-1]]


def test_boundary_drops_only_geodesic_middles():
    # In a 4-cycle the two midpoints between opposite vertices both lie on
    # geodesics; in the (v0, v2, 2) component d kills nothing else.
    g = generate("cycle:4")
    key = ComponentKey("v0", "v2", 2)
    basis2 = enumerate_basis(g, key, 2)[2]
    assert basis2 == [("v0", "v1", "v2"), ("v0", "v3", "v2")]
    d2 = magnitude_chain_complex(g, key, 2).boundary(2)
    assert d2.to_lists() == [[-1, -1]]


def test_boundary_skips_non_geodesic_drop(sq2):
    # (a, b, a) has d(a,b)+d(b,a) = 2 > d(a,a) = 0, so the middle vertex
    # cannot be dropped and the boundary is zero.
    key = ComponentKey("a", "a", 2)
    assert enumerate_basis(sq2, key, 2)[2] == [("a", "b", "a"), ("a", "f", "a")]
    assert magnitude_chain_complex(sq2, key, 2).boundary(2).is_zero()


def test_chain_complex_boundary_identity(sq2):
    for key in [ComponentKey("a", "a", 4), ComponentKey("a", "d", 4), ComponentKey("b", "e", 3)]:
        c = magnitude_chain_complex(sq2, key, key.l)
        c.verify_boundary_identity()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_chain_complex_boundary_identity_random(seed):
    g = random_graph_from_seed(seed, n_max=5)
    rng = random.Random(seed)
    a, b = rng.choice(g.vertices), rng.choice(g.vertices)
    l = rng.randint(0, 4)
    magnitude_chain_complex(g, ComponentKey(a, b, l), l).verify_boundary_identity()


# --- homology ----------------------------------------------------------------------


def test_low_degrees_on_an_edge():
    g = Graph(["x", "y"], [("x", "y")])
    assert magnitude_homology_direct(g, ComponentKey("x", "x", 0)) == [HomologyGroup(1)]
    groups = magnitude_homology_direct(g, ComponentKey("x", "y", 1))
    assert groups == [ZERO_GROUP, HomologyGroup(1)]


def test_unreachable_length_is_zero(sq2):
    # d(a, d) = 3 > 2, so the (a, d, 2) component is empty.
    groups = magnitude_homology_direct(sq2, ComponentKey("a", "d", 2))
    assert all(h == ZERO_GROUP for h in groups)


def test_sq2_component_values(sq2):
    groups = magnitude_homology_direct(sq2, ComponentKey("a", "a", 4))
    assert [h.short() for h in groups] == ["0", "0", "0", "0", "6"]
    groups = magnitude_homology_direct(sq2, ComponentKey("a", "d", 4))
    assert [h.short() for h in groups] == ["0", "0", "0", "2", "0"]


def test_sq2_graph_totals(sq2):
    table = build_table(sq2, 4, 4, "direct")
    totals = table.totals()
    assert [h.betti for h in totals] == [0, 0, 0, 12, 112]
    assert all(h.torsion == () for h in totals)
    assert table.method == "direct"


def test_diagonal_length_zero():
    # MH_{0,0} picks up one Z per vertex; nothing else lives at l = 0.
    g = generate("path:4")
    table = build_table(g, 0, 2, "direct")
    assert [h.betti for h in table.totals()] == [4, 0, 0]


def test_length_one_counts_oriented_edges():
    g = generate("cycle:5")
    table = build_table(g, 1, 2, "direct")
    assert [h.betti for h in table.totals()] == [0, 10, 0]


def test_relabeling_invariance(sq2):
    # The same graph with scrambled vertex declaration order gives the same
    # homology in every component.
    order = ["d", "b", "f", "a", "c", "e"]
    scrambled = Graph(order, sq2.edges)
    for key in [ComponentKey("a", "a", 4), ComponentKey("a", "d", 4)]:
        assert magnitude_homology_direct(scrambled, key) == magnitude_homology_direct(sq2, key)


def test_euler_characteristic_matches_betti_alternation(sq2):
    # Exactness of rank: alternating sums of dims and of betti numbers agree
    # componentwise (torsion never contributes).
    for a in sq2.vertices:
        for b in sq2.vertices:
            key = ComponentKey(a, b, 3)
            c = magnitude_chain_complex(sq2, key, 3)
            groups = magnitude_homology_direct(sq2, key)
            dims = sum((-1) ** k * c.dim(k) for k in range(4))
            bettis = sum((-1) ** k * groups[k].betti for k in range(4))
            assert dims == bettis


def test_kmax_defaults_to_length(sq2):
    groups = magnitude_homology_direct(sq2, ComponentKey("a", "a", 3))
    assert len(groups) == 4
    groups = magnitude_homology_direct(sq2, ComponentKey("a", "a", 3), kmax=2)
    assert len(groups) == 3
