"""The magnitude power series against computed homology, on every route.

For each ordered pair, sum_k (-1)^k rank MH_{k,l}(a, b) is the coefficient
of q^l in (Z_G(q)^{-1})_{ab} (Leinster, arXiv:1401.4623; Hepworth and
Willerton, arXiv:1505.04125).  The oracle derives the metric from the edge
list by its own breadth-first search, so it shares no code with any route,
with the distance table or with the orbit solving.  The checks run on every
pair, so groups copied along an orbit are checked as well as solved ones.
The identity sees chain and cell counts, orbit copies, the distance table
and the tree route's sphere count; it does not see boundary signs or
torsion.
"""

import random

import pytest

from maghom import HomologyGroup, build_table, generate, random_connected_graph
from maghom.homology import ZERO_GROUP
from oracles import magnitude_series_coefficients


def assert_matches_series(g, table):
    expected = magnitude_series_coefficients(g, table.l)
    assert table.kmax == table.l
    assert list(table.pair_groups) == list(expected)
    for pair, groups in table.pair_groups.items():
        euler = sum((-1) ** k * group.betti for k, group in enumerate(groups))
        assert euler == expected[pair], (table.method, table.l, pair)


@pytest.mark.parametrize(
    "spec, l, method",
    [
        ("sq2", 7, "direct"),
        ("sq2", 7, "geometric"),
        ("cycle:7", 7, "direct"),
        ("cycle:7", 7, "geometric"),
        ("random-tree:14:1", 9, "tree"),
        ("random-tree:14:3", 9, "tree"),
    ],
)
def test_every_pair_matches_the_series(spec, l, method):
    g = generate(spec)
    assert_matches_series(g, build_table(g, l, method=method))


def test_check_battery_graphs_match_the_series():
    # the graphs and lengths that `maghom check --trials 30 --seed 31337` draws
    rng = random.Random(31337)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=6)
        l = rng.randint(3, 5)
        for method in ("direct", "geometric"):
            assert_matches_series(g, build_table(g, l, method=method))


def test_sq2_whole_graph_series():
    sq2 = generate("sq2")
    values = [6, -16, 32, -58, 100, -168, 278, -456, 744, -1210, 1964]
    assert [sum(magnitude_series_coefficients(sq2, l).values()) for l in range(11)] == values
    for l, value in enumerate(values[:8]):
        totals = build_table(sq2, l).totals()
        assert sum((-1) ** k * group.betti for k, group in enumerate(totals)) == value
    # rungs past the two-route battery, on the direct route, checked pair by pair
    for l, top in [
        (8, [76, 900, 1568]),
        (9, [2, 284, 2180, 3108]),
        (10, [20, 924, 5124, 6184]),
    ]:
        table = build_table(sq2, l, method="direct")
        totals = table.totals()
        assert totals == [ZERO_GROUP] * (l + 1 - len(top)) + [HomologyGroup(b) for b in top]
        assert sum((-1) ** k * group.betti for k, group in enumerate(totals)) == values[l]
        assert_matches_series(sq2, table)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_graph_closed_form(n):
    # every step of a tuple on K_n has length 1, so MH_{k,l}(K_n) is
    # concentrated on k = l and free of rank n (n - 1)^l there
    g = generate(f"complete:{n}")
    for l in range(5):
        expected = [ZERO_GROUP] * l + [HomologyGroup(n * (n - 1) ** l)]
        assert sum(magnitude_series_coefficients(g, l).values()) == (-1) ** l * n * (n - 1) ** l
        for method in ("direct", "geometric"):
            assert build_table(g, l, method=method).totals() == expected, (method, l)
