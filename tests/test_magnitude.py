import ast
import itertools
import random
from pathlib import Path

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
    random_connected_graph,
    render_table,
)
import maghom.homology as homology_module
import maghom.magnitude as magnitude_module
from maghom.graphs import pair_orbits
from maghom.homology import ZERO_GROUP, IntegerChainComplex, _pair_units, direct_sum, homology_all
from maghom.magnitude import _boundary_from_bases, enumerate_basis, magnitude_chain_complex
from oracles import (
    assert_boundary_squares_to_zero,
    blocks,
    boundary_by_definition,
    brute_force_magnitude_basis,
    cartesian_product,
    random_graph_from_seed,
    tuple_length,
    wedge,
)


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
            assert tuple_length(sq2, seq) == 4


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
    # a budget below l leaves states whose budget is under their remaining
    # length, and one above l leaves an empty top degree
    kmax = rng.randint(0, l + 1)
    per_degree = enumerate_basis(g, ComponentKey(a, b, l), kmax)
    assert len(per_degree) == kmax + 1
    for k in range(kmax + 1):
        assert per_degree[k] == brute_force_magnitude_basis(g, a, b, l, k)


@pytest.mark.parametrize("spec", ["random-tree:14:1", "random-tree:14:3"])
def test_delegated_degrees_match_brute_force_on_trees(spec):
    # the tree route hands degrees 0 and 1 to the direct route, which
    # enumerates through degree 2: the steps of the vertices reached, and
    # the last step straight to b
    g = generate(spec)
    for a, b in itertools.product(g.vertices, repeat=2):
        bases = enumerate_basis(g, ComponentKey(a, b, 9), 2)
        assert bases == [brute_force_magnitude_basis(g, a, b, 9, k) for k in range(3)], (a, b)


def test_basis_and_signs_follow_an_unsorted_declaration_order(sq2):
    # the vertex order is the declaration order, not the order of the labels
    g = Graph(["e", "b", "f", "a", "d", "c"], sq2.edges)
    for a, b, l in [("a", "a", 4), ("e", "c", 4), ("b", "d", 5)]:
        key = ComponentKey(a, b, l)
        bases = enumerate_basis(g, key, l)
        assert any(basis != sorted(basis) for basis in bases)
        for k, basis in enumerate(bases):
            assert basis == brute_force_magnitude_basis(g, a, b, l, k)
        complex_ = magnitude_chain_complex(g, key, l)
        for k in range(1, l + 1):
            assert list(complex_.boundary(k).columns) == boundary_by_definition(g, key, k), (key, k)


@pytest.mark.parametrize("spec", ["sq2", "path:4", "cycle:5", "complete:4"])
def test_boundary_columns_match_the_definition(spec):
    # every column, in basis order, of every boundary of every pair at l <= 5
    g = generate(spec)
    for a, b in itertools.product(g.vertices, repeat=2):
        for l in range(6):
            key = ComponentKey(a, b, l)
            complex_ = magnitude_chain_complex(g, key, l)
            for k in range(1, l + 1):
                expected = boundary_by_definition(g, key, k)
                assert list(complex_.boundary(k).columns) == expected, (key, k)


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
    d2 = magnitude_chain_complex(sq2, key, 2).boundary(2)
    assert d2.cols == 2 and not any(d2.columns)


def test_chain_complex_boundary_identity(sq2):
    for key in [ComponentKey("a", "a", 4), ComponentKey("a", "d", 4), ComponentKey("b", "e", 3)]:
        c = magnitude_chain_complex(sq2, key, key.l)
        assert_boundary_squares_to_zero(c)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_chain_complex_boundary_identity_random(seed):
    g = random_graph_from_seed(seed, n_max=5)
    rng = random.Random(seed)
    a, b = rng.choice(g.vertices), rng.choice(g.vertices)
    l = rng.randint(0, 4)
    assert_boundary_squares_to_zero(magnitude_chain_complex(g, ComponentKey(a, b, l), l))


# --- boundaries assembled on request ---------------------------------------------


def _check_battery_and_sq2():
    """The graphs and lengths of `maghom check --trials 30 --seed 31337`, then sq2 at l <= 6."""
    rng = random.Random(31337)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=6)
        yield g, rng.randint(3, 5)
    sq2 = generate("sq2")
    yield from ((sq2, l) for l in range(7))


def test_boundaries_on_request_equal_an_eager_assembly():
    # each whole boundary asked of the complex, top degree first as homology
    # asks, equals one built straight from the bases; a request that skips
    # cells is that matrix with their columns empty, and is not kept, while
    # a whole one is kept and read again
    components = 0
    for g, l in _check_battery_and_sq2():
        for a, b in itertools.product(g.vertices, repeat=2):
            key = ComponentKey(a, b, l)
            bases = enumerate_basis(g, key, l + 1)
            complex_ = magnitude_chain_complex(g, key, l + 1)
            for k in range(l + 1, 0, -1):
                eager = _boundary_from_bases(g, bases[k - 1], bases[k])
                skip = set(range(0, len(bases[k]), 2))
                part = complex_.boundary(k, skip)
                assert complex_.boundaries[k] is None
                assert list(part.columns) == [
                    {} if j in skip else column for j, column in enumerate(eager.columns)
                ], (key, k)
                whole = complex_.boundary(k)
                assert (whole.rows, whole.cols) == (eager.rows, eager.cols)
                assert whole.columns == eager.columns, (key, k)
                assert complex_.boundary(k, skip) is whole
            components += 1
    assert components == 827


def test_pairing_on_request_matches_the_stored_complex(sq2, hemi):
    # the pairing gets each boundary without the columns its pairs already
    # took, or the whole stored matrices of a second complex: the same pairs,
    # the same remainders (the hemi-octahedron's keep a -2) and the same
    # groups, and the complex asked on request keeps nothing
    for g, lengths in ((sq2, range(7)), (hemi, (4, 5))):
        for l in lengths:
            for a, b in set(pair_orbits(g).values()):
                key = ComponentKey(a, b, l)
                lazy = magnitude_chain_complex(g, key, l + 1)
                whole = magnitude_chain_complex(g, key, l + 1)
                stored = IntegerChainComplex(whole.bases, [whole.boundary(n) for n in range(l + 2)])
                (pairs, remainders), expected = _pair_units(lazy, l + 1), _pair_units(stored, l + 1)
                assert pairs == expected[0], key
                assert [(d.rows, d.cols, d.columns) for d in remainders] == [
                    (d.rows, d.cols, d.columns) for d in expected[1]
                ], key
                assert lazy.boundaries[1:] == [None] * (l + 1)
                assert homology_all(lazy, l) == homology_all(stored, l), key


def test_negative_kmax_gives_the_complex_with_no_degree(sq2):
    key = ComponentKey("a", "a", 2)
    assert enumerate_basis(sq2, key, -1) == []
    c = magnitude_chain_complex(sq2, key, -1)
    assert (c.top_degree, c.bases, c.dim(0)) == (-1, [], 0)
    assert c.boundary(0).to_lists() == []
    assert homology_all(c, up_to=2) == [ZERO_GROUP] * 3


def test_unit_pairs_leave_the_taken_columns_unbuilt(sq2, monkeypatch):
    # on sq2's 8 orbit representatives at l = 7, 2,400 of the 5,065 cells
    # in degrees 1..8 are taken as a row by a pair of the degree above
    # before their own boundary is asked for, so their columns are never
    # written: the matrices handed to the pairing hold 27 % fewer entries
    # than the whole boundaries, and the table is unchanged
    expected = build_table(sq2, 7, method="direct")
    calls = []
    real = magnitude_module._boundary_from_bases

    def recording(g, prev, cur, skip=()):
        d = real(g, prev, cur, skip)
        calls.append((len(cur), len(skip), sum(map(len, d.columns))))
        return d

    monkeypatch.setattr(magnitude_module, "_boundary_from_bases", recording)
    assert build_table(sq2, 7, method="direct") == expected
    assert len(calls) == 8 * 8
    assert sum(cols for cols, _, _ in calls) == 5065
    assert sum(cols - skipped for cols, skipped, _ in calls) == 2665
    assert sum(entries for _, _, entries in calls) == 5239  # of 7,191


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


def test_degrees_above_length_read_zero_without_chains(sq2, monkeypatch):
    # every degree above l has no chains, so the direct route stops building
    # at l + 1 however far kmax reaches
    l = 3
    short = render_table(build_table(sq2, l, l, "direct")).splitlines()
    built = []
    real = magnitude_module.magnitude_chain_complex
    monkeypatch.setattr(
        magnitude_module, "magnitude_chain_complex",
        lambda g, key, kmax: built.append(kmax) or real(g, key, kmax),
    )
    long = render_table(build_table(sq2, l, l + 50, "direct")).splitlines()
    assert set(built) == {l + 1}
    assert long[0] == short[0].replace(f"kmax={l}", f"kmax={l + 50}")
    # the grid widens its k column for two-digit degrees, so compare cells
    cells = [line.split() for line in long[1:]]
    assert cells[:len(short) - 1] == [line.split() for line in short[1:]]
    assert cells[len(short) - 1:] == [[f"k={k}", "0"] for k in range(l + 1, l + 51)]


# --- Kunneth formula for Cartesian products ---------------------------------------


def _rank_tables(g, lmax):
    """rank MH_{k,l}(g) for 0 <= k <= l <= lmax by the direct route, torsion-free."""
    ranks = []
    for l in range(lmax + 1):
        totals = build_table(g, l, l, "direct").totals()
        assert all(h.torsion == () for h in totals), (g, l)
        ranks.append([h.betti for h in totals])
    return ranks


@pytest.mark.parametrize(
    "g_spec, h_spec, lmax, diagonal",
    [
        ("complete:3", "path:2", 8, [6, 18, 42, 90, 186, 378, 762, 1530, 3066]),
        ("path:3", "path:2", 8, list(range(6, 71, 8))),
        ("cycle:4", "path:2", 7, [8, 24, 48, 80, 120, 168, 224, 288]),
    ],
)
def test_kunneth_formula_for_cartesian_products(g_spec, h_spec, lmax, diagonal):
    # Hepworth-Willerton: MH(G x H) is MH(G) (x) MH(H), bigraded by k and l.
    # The factors here are torsion-free, so ranks convolve and no Tor term
    # appears: rank MH_{k,l}(G x H) = sum of rank MH_{k1,l1}(G) rank
    # MH_{k2,l2}(H) over k1 + k2 = k and l1 + l2 = l.
    g, h = generate(g_spec), generate(h_spec)
    rg, rh = _rank_tables(g, lmax), _rank_tables(h, lmax)
    product = _rank_tables(cartesian_product(g, h), lmax)
    for l in range(lmax + 1):
        expected = [0] * (l + 1)
        for l1 in range(l + 1):
            for k1, x in enumerate(rg[l1]):
                for k2, y in enumerate(rh[l - l1]):
                    expected[k1 + k2] += x * y
        assert product[l] == expected, l
    assert [product[l][l] for l in range(lmax + 1)] == diagonal
    assert all(product[l][k] == 0 for l in range(lmax + 1) for k in range(l))


# --- wedge sums ---------------------------------------------------------------------


def test_wedge_totals_are_direct_sums():
    # Hepworth-Willerton: MH_{k,l}(G v H) = MH_{k,l}(G) + MH_{k,l}(H) for
    # k >= 1, torsion included; in degree 0 the glued vertex counts once
    sq2, c5, c4, k3 = (generate(spec) for spec in ("sq2", "cycle:5", "cycle:4", "complete:3"))
    # a chain of three blocks: the triangle in the middle, glued at two vertices
    chain = wedge(wedge(c4, "v0", k3, "v0"), "R|v1", c5, "v2")
    for g, blocks, lmax in [(wedge(sq2, "a", c5, "v0"), (sq2, c5), 8), (chain, (c4, k3, c5), 7)]:
        assert g.num_vertices == sum(h.num_vertices for h in blocks) - len(blocks) + 1
        for l in range(1, lmax + 1):
            totals = build_table(g, l, method="direct").totals()
            parts = [build_table(h, l, method="direct").totals() for h in blocks]
            for k in range(1, l + 1):
                assert totals[k] == direct_sum(part[k] for part in parts), (g, l, k)


def test_block_split_of_wedges_and_trees():
    sq2, c5, c4, k3 = (generate(spec) for spec in ("sq2", "cycle:5", "cycle:4", "complete:3"))
    chain = wedge(wedge(c4, "v0", k3, "v0"), "R|v1", c5, "v2")
    for g, sizes in [
        (sq2, [6]),
        (wedge(sq2, "a", c5, "v0"), [6, 5]),
        (chain, [4, 3, 5]),
        # every edge of a tree is a block, and the centre of a star is in each
        (generate("star:4"), [2, 2, 2]),
        (generate("path:1"), []),
    ]:
        parts = blocks(g)
        assert sorted(h.num_vertices for h in parts) == sorted(sizes), g
        edges = [frozenset(e) for h in parts for e in h.edges]
        assert len(edges) == g.num_edges and set(edges) == {frozenset(e) for e in g.edges}


def test_totals_are_direct_sums_over_blocks():
    # Hepworth-Willerton: gluing at a cut vertex adds the totals in every
    # degree k >= 1, so a graph's totals are the sums over its biconnected
    # blocks; the graphs are random draws, not built as wedges
    rng = random.Random(1)
    kept = shared = 0
    for _ in range(40):
        g = random_connected_graph(rng, n_max=7)
        parts = blocks(g)
        if len(parts) < 2:
            continue
        # the blocks and cut vertices form a tree
        assert g.num_vertices == sum(h.num_vertices for h in parts) - len(parts) + 1
        kept += 1
        shared += any(sum(v in h.vertices for h in parts) >= 3 for v in g.vertices)
        for l in range(1, 6):
            totals = build_table(g, l, method="direct").totals()
            sums = [build_table(h, l, method="direct").totals() for h in parts]
            for k in range(1, l + 1):
                assert totals[k] == direct_sum(part[k] for part in sums), (g, l, k)
    # some draws glue three or more blocks at one vertex
    assert kept >= 20 and shared >= 3, (kept, shared)


# --- layering ------------------------------------------------------------------


def _package_imports(module):
    """The maghom modules that a module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import names a module of the package, or the package
            prefix = "maghom." if node.level else ""
            found.add(prefix + node.module if node.module else "maghom")
    return {name for name in found if name.split(".")[0] == "maghom"}


def test_the_direct_route_depends_on_the_reduction_module_alone():
    # the reduction engine and its complex type sit below every route, and
    # the direct route, which checks the others, builds on nothing else
    assert _package_imports(homology_module) == set()
    assert _package_imports(magnitude_module) == {"maghom.homology"}


def _unread_imports(path):
    """The names a module's source imports and never reads, by line."""
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            # a package reads what it re-exports through __all__
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(Path(magnitude_module.__file__).parent.glob("*.py"))
    assert len(modules) >= 8, "the guard found too few modules to check"
    unread = {path.name: _unread_imports(path) for path in modules}
    assert {name: found for name, found in unread.items() if found} == {}
