"""Geodesic components are order complexes: a third computation of MH at d(a, b) = l.

When d(a, b) = l, every tuple of length l from a to b lies on a geodesic,
and its interior is a chain in the open interval (a, b) of the geodesic
order.  So MH_{k,l}(a, b) is the reduced homology H~_{k-2} of the interval's
order complex for k >= 1 (Kaneta-Yoshinaga, arXiv:1803.04247), and
``oracles.geodesic_interval_betti`` computes that from the oracle metric
alone.  Over GF(2), a Z/d with d even in MH_k adds one to the Betti numbers
of H~_{k-2} and of H~_{k-1} (universal coefficients), which is how the
torsion of the hemi-octahedron shows.
"""

import itertools
import random

import pytest

from maghom import (
    ComponentKey,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
    random_connected_graph,
    tree_homology_by_pair,
)
from oracles import geodesic_interval_betti, metric


def even_factors(group):
    return sum(1 for d in group.torsion if d % 2 == 0)


def assert_intervals_match_routes(g, pairs=None):
    """Every pair at d(a, b) = l >= 1: the direct route against the interval's
    Betti numbers, and the geometric route (and the tree route on a tree)
    against the direct route.  Returns how many pairs carry even torsion."""
    d = metric(g)
    if pairs is None:
        pairs = [(a, b) for a, b in itertools.product(g.vertices, repeat=2) if a != b]
    routes = [magnitude_homology_geometric] + ([tree_homology_by_pair] if g.is_tree() else [])
    with_torsion = 0
    for a, b in pairs:
        key = ComponentKey(a, b, d[a][b])
        rational, mod2 = geodesic_interval_betti(g, a, b)
        direct = magnitude_homology_direct(g, key)
        for k in range(1, key.l + 1):
            assert direct[k].betti == rational[k - 2], (key, k)
            from_torsion = even_factors(direct[k]) + even_factors(direct[k - 1])
            assert direct[k].betti + from_torsion == mod2[k - 2], (key, k)
        for route in routes:
            assert route(g, key) == direct, (route.__name__, key)
        with_torsion += any(even_factors(h) for h in direct)
    return with_torsion


@pytest.mark.parametrize(
    "spec",
    ["path:5", "cycle:5", "cycle:6", "cycle:7", "complete:4", "star:5", "sq2", "random-tree:9:2"],
)
def test_builtin_families_are_order_complexes(spec):
    assert assert_intervals_match_routes(generate(spec)) == 0


def test_check_battery_graphs_are_order_complexes():
    # the graphs that `maghom check --trials 30 --seed 31337` draws
    rng = random.Random(31337)
    for _ in range(30):
        assert assert_intervals_match_routes(random_connected_graph(rng, n_max=6)) == 0
        rng.randint(3, 5)  # the length check draws after each graph


def test_hemi_octahedron_is_an_order_complex(hemi):
    # bottom-top and its reverse carry Z/2 at k = 3, seen only over GF(2)
    assert assert_intervals_match_routes(hemi) == 2
    rational, mod2 = geodesic_interval_betti(hemi, "bottom", "top")
    assert (rational, mod2) == ({-1: 0, 0: 0, 1: 0, 2: 0}, {-1: 0, 0: 0, 1: 1, 2: 1})


def test_projective_plane_pair_is_an_order_complex(rp2_graph):
    assert assert_intervals_match_routes(rp2_graph, [("bottom", "top")]) == 1
