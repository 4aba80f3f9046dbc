"""Finite connected graphs with the shortest-path metric.

Vertices are opaque string labels, free of commas and of leading or
trailing whitespace, with a fixed total order given by declaration order.
All downstream constructions (walk enumeration, chain bases, simplex
orientations) reference this order, which makes every computation in the
package deterministic for a given input.
"""

from __future__ import annotations

import json
import random
from collections import deque


class GraphError(ValueError):
    """Raised for malformed graph sources or invalid graph lookups."""


class Graph:
    """An undirected, simple, connected graph.

    Construction validates the input and precomputes the full shortest-path
    distance table (breadth-first search from every vertex).  Instances are
    treated as immutable.
    """

    __slots__ = ("vertices", "edges", "_index", "_adj", "_dist")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise GraphError("graph must have at least one vertex")
        self._index = {}
        for v in self.vertices:
            if v in self._index:
                raise GraphError(f"duplicate vertex declaration: {v!r}")
            if "," in v:
                # "u,v" is how --pair and labeling files name a pair
                raise GraphError(f"vertex label contains ',': {v!r}")
            if v != v.strip():
                raise GraphError(f"vertex label has leading or trailing whitespace: {v!r}")
            self._index[v] = len(self._index)

        seen = set()
        normalized = []
        for e in edges:
            u, v = e
            if u not in self._index:
                raise GraphError(f"unknown vertex in edge: {u!r}")
            if v not in self._index:
                raise GraphError(f"unknown vertex in edge: {v!r}")
            if u == v:
                raise GraphError(f"self-loop present at vertex: {u!r}")
            key = frozenset((u, v))
            if key in seen:
                raise GraphError(f"duplicate edge: {u!r} {v!r}")
            seen.add(key)
            normalized.append((u, v))
        self.edges = tuple(normalized)

        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in self.vertices:
            adj[v].sort(key=self._index.__getitem__)
        self._adj = adj

        self._dist = {}
        for s in self.vertices:
            level = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in level:
                        level[w] = level[u] + 1
                        queue.append(w)
            if len(level) != len(self.vertices):
                missing = next(v for v in self.vertices if v not in level)
                raise GraphError(
                    f"disconnected graph: no walk between {s!r} and {missing!r}"
                )
            for t, d in level.items():
                self._dist[s, t] = d

    # -- basic queries ----------------------------------------------------

    def index(self, v):
        """Position of a vertex in the declaration order."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex: {v!r}") from None

    def distance(self, u, v):
        """Shortest-path distance (number of edges) between two vertices."""
        if u not in self._index:
            raise GraphError(f"unknown vertex: {u!r}")
        if v not in self._index:
            raise GraphError(f"unknown vertex: {v!r}")
        return self._dist[u, v]

    def neighbors(self, v):
        """Neighbors of v, sorted by the vertex order."""
        if v not in self._index:
            raise GraphError(f"unknown vertex: {v!r}")
        return tuple(self._adj[v])

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    def is_tree(self):
        return self.num_edges == self.num_vertices - 1

    def __repr__(self):
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


def sequence_length(g, points):
    """Total length of a tuple of vertices: the sum of consecutive distances.

    Defined for arbitrary vertex tuples; repeated consecutive entries
    contribute zero.
    """
    return sum(g.distance(points[i], points[i + 1]) for i in range(len(points) - 1))


# -- parsing ---------------------------------------------------------------


def parse_graph(text):
    """Parse a graph source string.

    Two formats are accepted.  A structured JSON object carries an explicit
    vertex list plus an edge list:

        {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    Anything else is read as an edge-list text file, one ``u v`` pair per
    line, with ``#`` starting a comment.  Vertices of an edge list are
    ordered by first appearance.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(stripped)
    return _parse_edge_list(text)


def _parse_structured(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON graph file: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("structured graph file must be a JSON object")
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError('structured graph file needs a "vertices" array of strings')
    if not isinstance(edges, list):
        raise GraphError('structured graph file needs an "edges" array')
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise GraphError(f"malformed edge entry: {e!r}")
        pairs.append((e[0], e[1]))
    return Graph(vertices, pairs)


def _parse_edge_list(text):
    vertices = []
    seen = set()
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphError(f"malformed edge line {lineno}: {raw.strip()!r}")
        for v in tokens:
            if v not in seen:
                seen.add(v)
                vertices.append(v)
        pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise GraphError("edge-list graph file contains no edges")
    return Graph(vertices, pairs)


# -- builtin generators ----------------------------------------------------


def _gen_path(n):
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])


def _gen_cycle(n):
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Graph(verts, edges)


def _gen_complete(n):
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(verts, edges)


def _gen_star(n):
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(verts[0], verts[i]) for i in range(1, n)])


def _gen_random_tree(n, seed):
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    return Graph(verts, edges)


def _gen_sq2():
    # Two triangles (a b f) and (c d e) glued to opposite sides of the
    # square b c e f.  The edge set is pinned down by the walk inventories
    # in the regression tests.
    vertices = ["a", "b", "c", "d", "e", "f"]
    edges = [
        ("a", "b"), ("a", "f"), ("b", "f"), ("b", "c"),
        ("f", "e"), ("c", "e"), ("c", "d"), ("e", "d"),
    ]
    return Graph(vertices, edges)


GENERATOR_FAMILIES = ("path", "cycle", "complete", "star", "random-tree", "sq2")


def generate(name):
    """Build a graph from a builtin generator spec.

    Recognized specs: ``path:n``, ``cycle:n``, ``complete:n``, ``star:n``
    (all on n vertices), ``random-tree:n:seed``, and ``sq2``.
    """
    parts = name.split(":")
    family, args = parts[0], parts[1:]

    def positive(value, what):
        try:
            n = int(value)
        except ValueError:
            raise GraphError(f"{what} must be an integer in {name!r}") from None
        if n < 1:
            raise GraphError(f"{what} must be positive in {name!r}")
        return n

    if family == "sq2":
        if args:
            raise GraphError(f"sq2 takes no arguments: {name!r}")
        return _gen_sq2()
    if family == "random-tree":
        if len(args) != 2:
            raise GraphError(f"expected random-tree:n:seed, got {name!r}")
        n = positive(args[0], "vertex count")
        try:
            seed = int(args[1])
        except ValueError:
            raise GraphError(f"seed must be an integer in {name!r}") from None
        return _gen_random_tree(n, seed)
    simple = {"path": _gen_path, "cycle": _gen_cycle, "complete": _gen_complete, "star": _gen_star}
    if family in simple:
        if len(args) != 1:
            raise GraphError(f"expected {family}:n, got {name!r}")
        return simple[family](positive(args[0], "vertex count"))
    raise GraphError(f"unknown generator: {name!r}")


def is_generator_spec(name):
    return name.split(":")[0] in GENERATOR_FAMILIES


# -- walk enumeration ------------------------------------------------------


def enumerate_walks(g, a, b, max_steps):
    """All walks from a to b with at most max_steps unit steps.

    A walk is a vertex tuple whose consecutive entries are adjacent.  The
    zero-step walk ``(a,)`` is included when a == b, so the number of walks
    equals the sum of adjacency-matrix powers A^0 + ... + A^max_steps at the
    (a, b) entry.  Output is sorted lexicographically under the vertex
    order and is produced by depth-first extension, pruned whenever the
    remaining step budget cannot reach b.
    """
    g.index(a), g.index(b)
    if max_steps < 0:
        return []
    out = []
    prefix = [a]

    def extend():
        last = prefix[-1]
        if last == b:
            out.append(tuple(prefix))
        budget = max_steps - (len(prefix) - 1)
        if budget <= 0:
            return
        for y in g.neighbors(last):
            if g.distance(y, b) <= budget - 1:
                prefix.append(y)
                extend()
                prefix.pop()

    if g.distance(a, b) <= max_steps:
        extend()
    return out


# -- random graphs for the validation harness ------------------------------


def random_connected_graph(rng, n_min=2, n_max=6, extra_edge_prob=0.3):
    """A random connected graph: a random spanning tree plus extra edges.

    Deterministic for a given ``random.Random`` state.
    """
    n = rng.randint(n_min, n_max)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((verts[j], verts[i]))
        present.add(frozenset((verts[j], verts[i])))
    for i in range(n):
        for j in range(i + 1, n):
            key = frozenset((verts[i], verts[j]))
            if key not in present and rng.random() < extra_edge_prob:
                edges.append((verts[i], verts[j]))
                present.add(key)
    return Graph(verts, edges)


# -- sq2 symmetry types ----------------------------------------------------

# Orbits of ordered vertex pairs under the automorphism group of sq2
# (the Klein four-group generated by the two reflections).  One label per
# orbit, in the order used by the reference rank table.
_SQ2_TYPE_ORBITS = (
    ("(a,a)", (("a", "a"), ("d", "d"))),
    ("(a,b)", (("a", "b"), ("b", "a"), ("a", "f"), ("f", "a"),
               ("d", "c"), ("c", "d"), ("d", "e"), ("e", "d"))),
    ("(a,c)", (("a", "c"), ("c", "a"), ("a", "e"), ("e", "a"),
               ("d", "b"), ("b", "d"), ("d", "f"), ("f", "d"))),
    ("(a,d)", (("a", "d"), ("d", "a"))),
    ("(b,b)", (("b", "b"), ("f", "f"), ("c", "c"), ("e", "e"))),
    ("(b,c)", (("b", "c"), ("c", "b"), ("f", "e"), ("e", "f"))),
    ("(b,f)", (("b", "f"), ("f", "b"), ("c", "e"), ("e", "c"))),
    ("(b,e)", (("b", "e"), ("e", "b"), ("c", "f"), ("f", "c"))),
)


def sq2_pair_types():
    """Vertex-pair labeling of sq2 by symmetry type.

    Returns a dict mapping ``"u,v"`` keys to type labels, covering all 36
    ordered pairs; suitable for json.dump as a ``--types`` labeling file.
    """
    out = {}
    for label, pairs in _SQ2_TYPE_ORBITS:
        for u, v in pairs:
            out[f"{u},{v}"] = label
    return out
