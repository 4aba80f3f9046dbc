import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghom
from maghom import (
    Graph,
    GraphError,
    enumerate_walks,
    generate,
    parse_graph,
    random_connected_graph,
    sq2_pair_types,
)
from maghom.graphs import (
    automorphism_generators,
    is_generator_spec,
    pair_orbits,
)
from oracles import (
    brute_force_pair_orbits,
    cartesian_product,
    metric,
    random_graph_from_seed,
    walk_counts_by_steps,
    walks_by_extension,
)


def diameter(g):
    return max(max(row.values()) for row in g.distances.values())


def neighbors(g, v):
    return [w for w, d in g.distances[v].items() if d == 1]


def test_graph_basics():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.num_vertices == 3
    assert g.num_edges == 2
    assert g.distances["a"]["c"] == 2
    assert g.distances["b"]["b"] == 0
    assert neighbors(g, "b") == ["a", "c"]
    assert g.is_tree()
    assert diameter(g) == 2


def test_graph_validation_errors():
    with pytest.raises(GraphError, match="duplicate vertex"):
        Graph(["a", "a"], [])
    with pytest.raises(GraphError, match="unknown vertex"):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(GraphError, match="self-loop"):
        Graph(["a"], [("a", "a")])
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError, match="disconnected"):
        Graph(["a", "b", "c"], [("a", "b")])


def test_distance_rows_are_read_only():
    g = generate("path:3")
    assert g.distances["v0"]["v2"] == 2
    assert list(g.distances) == list(g.distances["v1"]) == list(g.vertices)
    with pytest.raises(TypeError):
        g.distances["v0"] = {}
    with pytest.raises(TypeError):
        g.distances["v0"]["v2"] = 1
    # the numbered view and the numbering behind index() are read-only too
    assert g.distance_rows == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert dict(g.numbering) == {"v0": 0, "v1": 1, "v2": 2}
    with pytest.raises(TypeError):
        g.numbering["v3"] = 3


def test_parse_edge_list():
    text = "# comment line\na b\nb c\n\nc d\n"
    g = parse_graph(text)
    assert g.vertices == ("a", "b", "c", "d")
    assert g.num_edges == 3


def test_parse_edge_list_malformed():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("a b\na b c\n")
    with pytest.raises(GraphError, match="no edges"):
        parse_graph("# nothing here\n")
    with pytest.raises(GraphError, match="'a,b'"):
        parse_graph("a,b c\n")


def test_parse_structured():
    text = '{"vertices": ["x", "y", "z"], "edges": [["x", "y"], ["y", "z"]]}'
    g = parse_graph(text)
    assert g.vertices == ("x", "y", "z")
    assert g.distances["x"]["z"] == 2
    with pytest.raises(GraphError):
        parse_graph('{"vertices": ["x"], "edges": "oops"}')
    with pytest.raises(GraphError):
        parse_graph('{"edges": []}')
    with pytest.raises(GraphError):
        parse_graph("{not json")
    with pytest.raises(GraphError, match="'x,y'"):
        parse_graph('{"vertices": ["x,y", "z"], "edges": [["x,y", "z"]]}')
    # --pair and labeling keys strip names, so such a label could not be named.
    with pytest.raises(GraphError, match="whitespace: ' x'"):
        parse_graph('{"vertices": [" x", "z"], "edges": [[" x", "z"]]}')
    with pytest.raises(GraphError, match="whitespace: 'z '"):
        parse_graph('{"vertices": ["x", "z "], "edges": [["x", "z "]]}')


def test_generate_families():
    p = generate("path:4")
    assert p.num_vertices == 4 and p.num_edges == 3
    assert diameter(p) == 3
    c = generate("cycle:5")
    assert c.num_vertices == 5 and c.num_edges == 5 and c.distances["v0"]["v3"] == 2
    k = generate("complete:4")
    assert k.num_edges == 6
    assert diameter(k) == 1
    s = generate("star:5")
    assert s.num_edges == 4 and neighbors(s, "v0") == ["v1", "v2", "v3", "v4"]
    assert s.distances["v1"]["v2"] == 2
    q = generate("sq2")
    assert q.num_vertices == 6 and q.num_edges == 8


def test_generate_random_tree_deterministic():
    t1 = generate("random-tree:7:42")
    t2 = generate("random-tree:7:42")
    t3 = generate("random-tree:7:43")
    assert t1.edges == t2.edges
    assert t1.edges != t3.edges
    assert t1.is_tree() and t3.is_tree()


def test_random_edge_lists_are_pinned():
    # the spanning-tree draw and the edge order behind random-tree specs and
    # the check battery's graphs
    assert generate("random-tree:8:1").edges == (
        ("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v0", "v4"),
        ("v3", "v5"), ("v3", "v6"), ("v3", "v7"),
    )
    g = random_connected_graph(random.Random(7))
    assert g.vertices == ("v0", "v1", "v2", "v3")
    assert g.edges == (("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v2"), ("v1", "v3"))


def test_generate_errors():
    for bad in ["path", "path:0", "path:-2", "path:x", "cycle:2", "blob:3",
                "random-tree:5", "complete:3:9"]:
        with pytest.raises(GraphError):
            generate(bad)
    # counts and seeds are ASCII digits, as --l is, not every form int() takes
    for bad in ["cycle:+3", "path:1_0", "path: 3", "cycle:\u0663"]:
        with pytest.raises(GraphError, match=r"^vertex count must be an integer in "):
            generate(bad)
    with pytest.raises(GraphError, match=r"^seed must be an integer in 'random-tree:5:\+1'$"):
        generate("random-tree:5:+1")
    # random.Random(-1) would draw the stream of seed 1, so the sign is refused
    with pytest.raises(GraphError, match=r"^seed must be nonnegative in 'random-tree:5:-1'$"):
        generate("random-tree:5:-1")
    assert generate("random-tree:5:0").num_vertices == 5


def test_is_generator_spec():
    assert is_generator_spec("path:3")
    assert is_generator_spec("sq2")
    assert is_generator_spec("random-tree:5:1")
    assert not is_generator_spec("graph.txt")
    assert not is_generator_spec("./sq2")


def test_sq2_structure(sq2):
    # Two triangles sharing no edge, glued onto a 4-cycle b-c-e-f.
    assert set(map(frozenset, sq2.edges)) == {
        frozenset(e)
        for e in [("a", "b"), ("a", "f"), ("b", "f"), ("b", "c"),
                  ("f", "e"), ("c", "e"), ("c", "d"), ("e", "d")]
    }
    assert sq2.distances["a"]["d"] == 3
    assert diameter(sq2) == 3


def test_enumerate_walks_includes_zero_step(sq2):
    walks = enumerate_walks(sq2, "a", "a", 2)
    assert ("a",) in walks
    assert ("a", "b", "a") in walks
    assert all(w[0] == "a" and w[-1] == "a" for w in walks)


def test_enumerate_walks_sq2_frozen(sq2):
    # Walk inventories pinned by hand from the edge list above.
    aa4 = [w for w in enumerate_walks(sq2, "a", "a", 4) if len(w) == 5]
    assert sorted(aa4) == sorted(
        [
            ("a", "b", "a", "b", "a"),
            ("a", "b", "a", "f", "a"),
            ("a", "f", "a", "b", "a"),
            ("a", "f", "a", "f", "a"),
            ("a", "b", "f", "b", "a"),
            ("a", "f", "b", "f", "a"),
            ("a", "b", "c", "b", "a"),
            ("a", "f", "e", "f", "a"),
        ]
    )
    ad4 = [w for w in enumerate_walks(sq2, "a", "d", 4) if len(w) == 5]
    assert len(ad4) == 4
    ad3 = [w for w in enumerate_walks(sq2, "a", "d", 3) if len(w) == 4]
    assert sorted(ad3) == [("a", "b", "c", "d"), ("a", "f", "e", "d")]


def test_enumerate_walks_negative_budget(sq2):
    # no walk has a negative number of steps, but the vertices are checked first
    assert enumerate_walks(sq2, "a", "a", -1) == []
    assert enumerate_walks(sq2, "a", "d", -1) == []
    with pytest.raises(GraphError, match="^unknown vertex: 'zz'$"):
        enumerate_walks(sq2, "a", "zz", -1)


def test_enumerate_walks_lex_order():
    g = generate("complete:3")
    walks = enumerate_walks(g, "v0", "v0", 2)
    assert walks == [("v0",), ("v0", "v1", "v0"), ("v0", "v2", "v0")]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walks_match_the_extension_oracle_on_random_graphs(seed):
    g = random_graph_from_seed(seed, n_max=5)
    rng = random.Random(seed)
    a = rng.choice(g.vertices)
    b = rng.choice(g.vertices)
    assert enumerate_walks(g, a, b, 4) == walks_by_extension(g, a, b, 4)


@pytest.mark.parametrize(
    "spec", ["sq2", "cycle:5", "complete:4", "path:4", "random-tree:7:1", "random-tree:8:2"])
def test_walks_match_the_extension_oracle_on_every_pair(spec):
    # whole lists, in order, so that a wrong walk of the right length shows;
    # l = -1 has no walk and l = 0 only the zero-step one
    g = generate(spec)
    for a, b in itertools.product(g.vertices, repeat=2):
        for l in range(-1, 7):
            assert enumerate_walks(g, a, b, l) == walks_by_extension(g, a, b, l), (a, b, l)


@pytest.mark.parametrize("spec, l", [("random-tree:14:1", 9), ("random-tree:14:3", 9), ("sq2", 7)])
def test_walk_counts_on_every_pair(spec, l):
    # long enough that one state's walk list is shared by several states
    # one step further from b; each list is strictly increasing in
    # vertex-index order: sorted, no repeats
    g = generate(spec)
    for a, b in itertools.product(g.vertices, repeat=2):
        walks = enumerate_walks(g, a, b, l)
        by_steps = [sum(1 for w in walks if len(w) == s + 1) for s in range(l + 1)]
        assert by_steps == walk_counts_by_steps(g, a, b, l), (a, b)
        ranks = [[g.index(v) for v in w] for w in walks]
        assert all(x < y for x, y in zip(ranks, ranks[1:])), (a, b)


def assert_distances_are_the_oracle_metric(g):
    # the rows and each row's entries in vertex order, and every entry the
    # oracle's breadth-first search over the edge list
    assert list(g.distances) == list(g.vertices)
    assert all(list(row) == list(g.vertices) for row in g.distances.values())
    oracle = metric(g)
    assert {u: dict(row) for u, row in g.distances.items()} == oracle
    # the numbered view: the same metric as tuples, row and entry i for vertex i
    assert type(g.distance_rows) is tuple
    assert all(type(row) is tuple for row in g.distance_rows)
    assert g.distance_rows == tuple(
        tuple(oracle[u][v] for v in g.vertices) for u in g.vertices
    )


@pytest.mark.parametrize(
    "spec",
    ["path:1", "path:2", "path:9", "cycle:3", "cycle:10", "cycle:11", "complete:1",
     "complete:5", "star:2", "star:8", "random-tree:14:1", "random-tree:14:3", "sq2"],
)
def test_distances_on_builtin_families(spec):
    assert_distances_are_the_oracle_metric(generate(spec))


def test_distances_on_check_battery_graphs():
    # the graphs that `maghom check --trials 30 --seed 31337` draws
    rng = random.Random(31337)
    for _ in range(30):
        assert_distances_are_the_oracle_metric(random_connected_graph(rng, n_max=6))
        rng.randint(3, 5)  # the length check draws after each graph


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_max=st.integers(2, 12))
def test_distances_on_random_graphs(seed, n_max):
    assert_distances_are_the_oracle_metric(random_graph_from_seed(seed, n_max=n_max))


def test_random_connected_graph_bounds():
    for seed in range(30):
        g = random_connected_graph(random.Random(seed), n_max=6)
        assert 2 <= g.num_vertices <= 6


def test_sq2_pair_types(sq2):
    types = sq2_pair_types()
    assert types == {
        "a,a": "(a,a)", "d,d": "(a,a)",
        "a,b": "(a,b)", "b,a": "(a,b)", "a,f": "(a,b)", "f,a": "(a,b)",
        "d,c": "(a,b)", "c,d": "(a,b)", "d,e": "(a,b)", "e,d": "(a,b)",
        "a,c": "(a,c)", "c,a": "(a,c)", "a,e": "(a,c)", "e,a": "(a,c)",
        "d,b": "(a,c)", "b,d": "(a,c)", "d,f": "(a,c)", "f,d": "(a,c)",
        "a,d": "(a,d)", "d,a": "(a,d)",
        "b,b": "(b,b)", "f,f": "(b,b)", "c,c": "(b,b)", "e,e": "(b,b)",
        "b,c": "(b,c)", "c,b": "(b,c)", "f,e": "(b,c)", "e,f": "(b,c)",
        "b,f": "(b,f)", "f,b": "(b,f)", "c,e": "(b,f)", "e,c": "(b,f)",
        "b,e": "(b,e)", "e,b": "(b,e)", "c,f": "(b,e)", "f,c": "(b,e)",
    }
    # --types orders its columns by first appearance of each label
    assert list(dict.fromkeys(types.values())) == [
        "(a,a)", "(a,b)", "(a,c)", "(a,d)", "(b,b)", "(b,c)", "(b,f)", "(b,e)",
    ]
    # Every ordered pair of vertices is covered.
    assert set(types) == {f"{u},{v}" for u in sq2.vertices for v in sq2.vertices}


@pytest.mark.parametrize(
    "spec, count",
    [(f"cycle:{n}", n // 2 + 1) for n in range(3, 10)]
    + [(f"complete:{n}", 2) for n in range(2, 7)]
    + [(f"star:{n}", 4) for n in (3, 4, 5, 8, 20)]
    + [("sq2", 8), ("complete:1", 1), ("path:5", 9), ("path:6", 12)],
)
def test_pair_orbit_counts(spec, count):
    # star:20 has 19! isometries, so the search must never list the group
    assert len(set(pair_orbits(generate(spec)).values())) == count


@pytest.mark.parametrize(
    "g",
    [generate(spec) for spec in ("sq2", "cycle:6", "complete:4", "star:5", "path:5",
                                 "random-tree:7:1", "random-tree:7:2")]
    + [random_graph_from_seed(seed) for seed in range(40)],
    ids=lambda g: repr(g),
)
def test_pair_orbits_match_brute_force(g):
    orbits = pair_orbits(g)
    assert list(orbits) == [(a, b) for a in g.vertices for b in g.vertices]
    classes = {}
    for pair, rep in orbits.items():
        classes.setdefault(rep, set()).add(pair)
    assert {frozenset(c) for c in classes.values()} == brute_force_pair_orbits(g)
    # the representative is its orbit's first pair in row-major order
    keys = list(orbits)
    for rep, members in classes.items():
        assert rep in members
        assert min(keys.index(p) for p in members) == keys.index(rep)


def test_automorphism_generators_are_isometries():
    for spec in ("sq2", "cycle:8", "complete:5", "star:20", "random-tree:14:1"):
        g = generate(spec)
        n = g.num_vertices
        d = metric(g)
        dist = [[d[x][y] for y in g.vertices] for x in g.vertices]
        for sigma in automorphism_generators(dist):
            assert sorted(sigma) == list(range(n))
            assert all(
                dist[x][y] == dist[sigma[x]][sigma[y]] for x in range(n) for y in range(n)
            )


def test_isometry_search_tries_only_vertices_of_the_same_row(monkeypatch):
    # an isometry keeps each vertex's sorted distance row, so the search
    # tries to send i to c only where the two rows are equal
    real, tried = maghom.graphs._extend_isometry, []

    def recording(dist, profile, i, c):
        tried.append((i, c))
        return real(dist, profile, i, c)

    monkeypatch.setattr(maghom.graphs, "_extend_isometry", recording)
    for spec in ("path:6", "sq2", "cycle:8", "star:20", "random-tree:14:1"):
        g = generate(spec)
        d = metric(g)
        dist = [[d[x][y] for y in g.vertices] for x in g.vertices]
        tried.clear()
        automorphism_generators(dist)
        assert tried, spec
        assert all(sorted(dist[i]) == sorted(dist[c]) for i, c in tried), spec


def test_pair_orbits_of_hemi_squared(hemi):
    # 225 vertices and 50,625 ordered pairs
    assert len(set(pair_orbits(cartesian_product(hemi, hemi)).values())) == 309


def test_pair_orbits_keep_no_table_per_generator():
    # star:120 has 118 generators, so a list of all 14,400 pair images per
    # generator would peak near 67 MiB; one representative per pair needs
    # about 2 MiB
    g = generate("star:120")
    tracemalloc.start()
    try:
        pair_orbits(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_graph_size_never_meets_the_recursion_limit():
    # the isometry search backtracks in a loop, so a graph of 300 vertices
    # passes a recursion limit of 250, which bounds l alone
    code = (
        "import sys\n"
        "import maghom.cli\n"
        "sys.setrecursionlimit(250)\n"
        'maghom.cli.main(["compute", "--graph", "cycle:300", "--l", "1"])\n'
    )
    src = str(Path(maghom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert r.stdout.splitlines()[-1] == "k=1    600"
