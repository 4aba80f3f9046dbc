import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import (
    ComponentKey,
    GraphError,
    HomologyGroup,
    build_table,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
    tree_homology_by_pair,
    tree_magnitude_closed_form,
)
from maghom.homology import ZERO_GROUP, direct_sum, homology_all
from maghom.magnitude import enumerate_basis
from maghom.export import build_delta_pair
from maghom.trees import classify_delta, decompose_tree_component, turning_points
from oracles import (
    adjacency,
    alternating_walk_count,
    metric,
    pair_chain_complex,
    path_of_sequence,
    tree_geodesic,
    tuple_length,
    walk_counts_by_steps,
)


def random_tree(seed, n=None):
    rng = random.Random(seed)
    size = n if n is not None else rng.randint(3, 8)
    return generate(f"random-tree:{size}:{seed}")


# --- turning points ---------------------------------------------------------------


def test_turning_points_on_geodesic():
    assert turning_points(("v0", "v1", "v2", "v3")) == ()
    assert turning_points(("v0", "v1", "v0")) == (1,)
    assert turning_points(("v0", "v1", "v0", "v1")) == (1, 2)
    assert turning_points(("v0", "v1", "v2", "v1")) == (2,)


def test_turning_points_of_short_walks():
    # one or two vertices leave no interior position
    assert turning_points(("v0",)) == ()
    assert turning_points(("v0", "v1")) == ()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_turning_points_are_backtracks_on_trees(seed):
    # On a tree the strict triangle inequality at an interior position is
    # equivalent to stepping back to the previous vertex.
    g = random_tree(seed)
    rng = random.Random(seed + 1)
    adj, d = adjacency(g), metric(g)
    walk = [rng.choice(g.vertices)]
    for _ in range(5):
        walk.append(rng.choice(adj[walk[-1]]))
    pts = turning_points(tuple(walk))
    expected = tuple(
        i
        for i in range(1, len(walk) - 1)
        if d[walk[i - 1]][walk[i + 1]]
        < d[walk[i - 1]][walk[i]] + d[walk[i]][walk[i + 1]]
    )
    assert pts == expected


# --- per-walk decomposition ----------------------------------------------------------


def test_decompose_rejects_non_trees(sq2):
    with pytest.raises(ValueError, match="tree"):
        decompose_tree_component(sq2, ComponentKey("a", "a", 3))


def test_decompose_path_components():
    g = generate("path:4")
    walks = decompose_tree_component(g, ComponentKey("v0", "v3", 3))
    assert walks == [("v0", "v1", "v2", "v3")]
    assert turning_points(walks[0]) == ()

    walks = decompose_tree_component(g, ComponentKey("v0", "v1", 3))
    assert walks == [("v0", "v1", "v0", "v1"), ("v0", "v1", "v2", "v1")]
    assert [turning_points(w) for w in walks] == [(1, 2), (2,)]


def test_decompose_walks_have_exact_length():
    g = random_tree(5, n=7)
    for a, b in itertools.product(g.vertices[:3], repeat=2):
        for walk in decompose_tree_component(g, ComponentKey(a, b, 4)):
            assert len(walk) - 1 == 4
            assert tuple_length(g, walk) == 4


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_decompose_counts_match_adjacency_powers(seed):
    # a pair whose distance differs from l in parity lists no walk; the
    # others list every walk of l steps; both read against powers of A
    g = random_tree(seed, n=7)
    for a, b in itertools.product(g.vertices, repeat=2):
        counts = walk_counts_by_steps(g, a, b, 7)
        for l in range(8):
            assert len(decompose_tree_component(g, ComponentKey(a, b, l))) == counts[l], (a, b, l)


# --- position pairs and their homotopy types -------------------------------------------


def test_delta_pair_shapes():
    g = generate("path:4")
    walk = decompose_tree_component(g, ComponentKey("v0", "v1", 3))[0]
    total, sub = build_delta_pair(turning_points(walk), 3)
    # Positions 1..2; sub keeps faces missing at least one turning point.
    assert total.labels == (1, 2)
    rel = pair_chain_complex(total, sub)
    assert [tuple(map(total.labels.__getitem__, cell)) for cell in rel.basis(1)] == [(1, 2)]
    assert rel.basis(0) == []
    # with no positions the full simplex has no nonempty face
    for l in (0, 1):
        total, sub = build_delta_pair((), l)
        assert (total.dim, sub.dim) == (-1, -1)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_classification_matches_relative_homology(l):
    # Take every possible turning-point set and compare the closed-form
    # classification against the homology engine.
    positions = range(1, l)
    for m in range(0, l):
        for phi in itertools.combinations(positions, m):
            kind = classify_delta(phi, l)
            c = pair_chain_complex(*build_delta_pair(phi, l))
            groups = homology_all(c, l - 2) if c.dim(0) or c.top_degree else []
            if kind == "empty":
                assert m == 0
                assert groups[0] == HomologyGroup(1)
                assert all(h == ZERO_GROUP for h in groups[1:])
            elif kind == "sphere":
                assert m == l - 1
                assert groups[l - 2] == HomologyGroup(1)
                assert all(h == ZERO_GROUP for h in groups[: l - 2])
            else:
                assert 0 < m < l - 1
                assert all(h == ZERO_GROUP for h in groups)


def test_sphere_walks_alternate_across_one_edge():
    # A walk is sphere type exactly when every interior position turns, i.e.
    # it bounces back and forth across a single edge.
    g = generate("path:4")
    for l in (3, 4):
        for a, b in itertools.product(g.vertices, repeat=2):
            for walk in decompose_tree_component(g, ComponentKey(a, b, l)):
                if classify_delta(turning_points(walk), l) == "sphere":
                    assert len(set(walk)) == 2
                    assert metric(g)[walk[0]][walk[1]] == 1


# --- partition of the magnitude basis ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_per_walk_partition_of_basis(seed):
    # Every degree-k basis sequence (k >= 2) corresponds to exactly one pair
    # (walk of l steps, set of marked positions containing its turning
    # points); counting both sides gives the same dimensions.
    g = random_tree(seed, n=6)
    rng = random.Random(seed + 7)
    a, b = rng.choice(g.vertices), rng.choice(g.vertices)
    l = rng.randint(3, 4)
    walks = decompose_tree_component(g, ComponentKey(a, b, l))
    bases = enumerate_basis(g, ComponentKey(a, b, l), l)
    seen = set()
    for k in range(2, l + 1):
        for seq in bases[k]:
            walk = path_of_sequence(g, seq)
            assert len(walk) - 1 == l
            assert walk in walks
            marks = [tuple_length(g, seq[: i + 1]) for i in range(1, len(seq) - 1)]
            phi = turning_points(walk)
            assert set(phi) <= set(marks)
            token = (walk, tuple(marks))
            assert token not in seen
            seen.add(token)
        # Count (n+1)-subsets of positions containing all turning points.
        n = k - 2
        expected = sum(
            1
            for w in walks
            for s in itertools.combinations(range(1, l), n + 1)
            if set(turning_points(w)) <= set(s)
        )
        assert len(bases[k]) == expected


@pytest.mark.parametrize("spec", ["path:5", "star:5", "random-tree:9:2"])
def test_turning_point_tally_gives_basis_dimensions(spec):
    # a walk with m turning points carries one degree-(n+2) cell per set of
    # n+1 marked positions out of l-1 that holds all m of them, so with N_m
    # the number of walks with m turning points,
    # dim MC_{n+2,l}(a, b) = sum over m of N_m * C(l-1-m, n+1-m)
    g = generate(spec)
    for a, b, l in itertools.product(g.vertices, g.vertices, range(2, 9)):
        key = ComponentKey(a, b, l)
        walks = decompose_tree_component(g, key)
        tally = Counter(len(turning_points(w)) for w in walks)
        for walk in walks:
            # the route's slice rule: every interior position turns
            assert (walk[:-2] == walk[2:]) == (len(turning_points(walk)) == l - 1), walk
        bases = enumerate_basis(g, key, l)
        for n in range(l - 1):
            expected = sum(count * math.comb(l - 1 - m, n + 1 - m) for m, count in tally.items() if m <= n + 1)
            assert len(bases[n + 2]) == expected, (key, n)


def test_tree_route_classifies_once_per_sphere_component(monkeypatch):
    # only the walks that turn at every interior position are classified,
    # and only the first of them: one call per component that has any
    calls = []

    def counting(phi, l):
        calls.append(len(phi))
        return classify_delta(phi, l)

    monkeypatch.setattr("maghom.trees.classify_delta", counting)
    build_table(generate("random-tree:14:1"), 9, method="tree")
    assert calls == [8] * 9


# --- closed form and per-pair homology ----------------------------------------------------


def test_closed_form_values():
    star = generate("star:4")
    assert tree_magnitude_closed_form(star, 4, 4) == HomologyGroup(6)
    assert tree_magnitude_closed_form(star, 4, 3) == ZERO_GROUP
    assert tree_magnitude_closed_form(star, 3, 5) == ZERO_GROUP
    path = generate("path:2")
    assert tree_magnitude_closed_form(path, 7, 7) == HomologyGroup(2)


def test_closed_form_domain_errors(sq2):
    star = generate("star:4")
    for l in (0, 3):
        with pytest.raises(ValueError, match=r"^the closed form covers k >= 1, got k=0$"):
            tree_magnitude_closed_form(star, l, 0)
    with pytest.raises(ValueError, match="tree"):
        tree_magnitude_closed_form(sq2, 3, 3)
    # every length is in the domain: at k = l = 1, the ordered adjacent pairs
    assert tree_magnitude_closed_form(star, 1, 1) == HomologyGroup(6)
    assert tree_magnitude_closed_form(star, 2, 3) == ZERO_GROUP
    assert tree_magnitude_closed_form(star, 0, 1) == ZERO_GROUP


@pytest.mark.parametrize("spec", ["path:1", "path:2", "path:4", "star:5", "random-tree:6:1"])
def test_closed_form_matches_direct_totals(spec):
    g = generate(spec)
    for l in range(8):
        totals = build_table(g, l, l + 1, method="direct").totals()
        for k in range(1, l + 2):
            assert totals[k] == tree_magnitude_closed_form(g, l, k), (l, k)


def test_tree_route_matches_direct_per_pair():
    # degree 2 and up come from the walks, degrees 0 and 1 from the direct route
    trees = [generate("path:1"), generate("path:3"), generate("star:4"), random_tree(11, n=6)]
    for g, l in itertools.product(trees, range(8)):
        for kmax in sorted({l, l + 1, 3}):
            for a, b in itertools.product(g.vertices, repeat=2):
                key = ComponentKey(a, b, l)
                assert tree_homology_by_pair(g, key, kmax) == (
                    magnitude_homology_direct(g, key, kmax)
                ), (g, key, kmax)


def test_tree_route_matches_geometric_per_pair():
    g = random_tree(13, n=5)
    for a, b in itertools.product(g.vertices, repeat=2):
        key = ComponentKey(a, b, 4)
        assert tree_homology_by_pair(g, key) == magnitude_homology_geometric(g, key)


@pytest.mark.parametrize("spec", ["random-tree:6:4", "random-tree:7:9", "star:5"])
def test_sphere_count_is_alternating_walk_count(spec):
    # per pair, not only summed over the table: MH_{l,l}(a, b) counts the
    # walks that go back and forth along one edge
    g = generate(spec)
    for l in range(2, 9):
        for a, b in itertools.product(g.vertices, repeat=2):
            groups = tree_homology_by_pair(g, ComponentKey(a, b, l))
            assert groups[l] == HomologyGroup(alternating_walk_count(g, a, b, l)), (a, b, l)


def test_tree_totals_equal_closed_form():
    g = generate("random-tree:8:1")
    l = 5
    per_degree = [ZERO_GROUP] * (l + 1)
    sums = [[] for _ in range(l + 1)]
    for a, b in itertools.product(g.vertices, repeat=2):
        groups = tree_homology_by_pair(g, ComponentKey(a, b, l))
        for k, h in enumerate(groups):
            sums[k].append(h)
    totals = [direct_sum(gs) for gs in sums]
    assert totals[5] == HomologyGroup(14)  # 2 * 7 edges
    for k in range(3, l):
        assert totals[k] == ZERO_GROUP
    assert totals[5] == tree_magnitude_closed_form(g, 5, 5)


def test_tree_route_needs_a_tree_at_every_length(sq2):
    g = generate("path:3")
    for a, b in itertools.product(g.vertices, repeat=2):
        key = ComponentKey(a, b, 2)
        assert tree_homology_by_pair(g, key) == magnitude_homology_direct(g, key)
    for l in (2, 3):
        with pytest.raises(GraphError, match=r"^method tree needs a tree input$"):
            tree_homology_by_pair(sq2, ComponentKey("a", "b", l))


# --- geodesic helpers -------------------------------------------------------------------


def test_tree_geodesic():
    g = generate("path:5")
    assert tree_geodesic(g, "v1", "v4") == ("v1", "v2", "v3", "v4")
    assert tree_geodesic(g, "v2", "v2") == ("v2",)
    star = generate("star:4")
    assert tree_geodesic(star, "v1", "v2") == ("v1", "v0", "v2")


def test_path_of_sequence():
    g = generate("path:5")
    assert path_of_sequence(g, ("v0", "v2", "v1")) == ("v0", "v1", "v2", "v1")
    assert path_of_sequence(g, ("v3",)) == ("v3",)
