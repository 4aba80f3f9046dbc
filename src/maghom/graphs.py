"""Finite connected graphs with the shortest-path metric.

Vertices are opaque string labels, free of commas and of leading or
trailing whitespace, with a fixed total order given by declaration order.
All downstream constructions (walk enumeration, chain bases, simplex
orientations) reference this order, which makes every computation in the
package deterministic for a given input.
"""

from __future__ import annotations

import random
import re
import sys
from collections import deque
from types import MappingProxyType


class GraphError(ValueError):
    """Unusable input: a malformed graph or labeling, an unknown vertex, a length
    or graph a route does not take, a file that cannot be read or written."""


class InternalCheckError(RuntimeError):
    """An internal consistency invariant failed; results are not trustworthy."""


class Graph:
    """An undirected, simple, connected graph.

    Construction validates the input and precomputes the full shortest-path
    distance table (breadth-first search from every vertex), stored
    read-only as ``distances``: one row per vertex, so that
    ``distances[u][v]`` is d(u, v), with the rows and each row's entries in
    vertex order.  Instances are treated as immutable.
    """

    __slots__ = ("vertices", "edges", "distances", "_index")

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
        rows = {}
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
            rows[s] = MappingProxyType({t: level[t] for t in self.vertices})
        self.distances = MappingProxyType(rows)

    # -- basic queries ----------------------------------------------------

    def index(self, v):
        """Position of a vertex in the declaration order."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex: {v!r}") from None

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
    # json is imported where JSON is read or written, not by the package:
    # its import compiles regexes that no compute or check command needs
    import json

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid JSON graph file: {exc}") from None
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


def _numbered_graph(n, pairs):
    """The graph on v0..v{n-1} with an edge (v{i}, v{j}) for each pair (i, j)."""
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[j]) for i, j in pairs])


def _random_tree_pairs(rng, n):
    """A random spanning tree on 0..n-1: each i > 0 joined to one of 0..i-1."""
    return [(rng.randrange(i), i) for i in range(1, n)]


# the edges of each numbered family on n vertices, as pairs of vertex numbers
_NUMBERED_FAMILIES = {
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "complete": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    "star": lambda n: [(0, i) for i in range(1, n)],
}


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


def integer(text):
    """The integer ``text`` writes in ASCII digits, with an optional leading "-".

    int() alone also takes "+3", "1_0", " 3" and digits of other scripts.
    Raises ValueError on any other form, and on more digits than int() reads.
    """
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def generate(name):
    """Build a graph from a builtin generator spec.

    Recognized specs: ``path:n``, ``cycle:n``, ``complete:n``, ``star:n``
    (all on n vertices), ``random-tree:n:seed``, and ``sq2``.
    """
    parts = name.split(":")
    family, args = parts[0], parts[1:]

    def number(value, what):
        try:
            return integer(value)
        except ValueError:
            raise GraphError(f"{what} must be an integer in {name!r}") from None

    def positive(value, what):
        # a count is written without a sign: "-2" is no count, not a negative one
        n = number("" if value.startswith("-") else value, what)
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
        return _numbered_graph(n, _random_tree_pairs(random.Random(number(args[1], "seed")), n))
    if family in _NUMBERED_FAMILIES:
        if len(args) != 1:
            raise GraphError(f"expected {family}:n, got {name!r}")
        n = positive(args[0], "vertex count")
        if family == "cycle" and n < 3:
            raise GraphError(f"cycle needs at least 3 vertices, got {n}")
        return _numbered_graph(n, _NUMBERED_FAMILIES[family](n))
    raise GraphError(f"unknown generator: {name!r}")


def is_generator_spec(name):
    return name.split(":")[0] in GENERATOR_FAMILIES


# -- walk enumeration ------------------------------------------------------


TOO_LONG = "l is too long: enumeration recurses once per step and hit the recursion limit"


def refuse_long(run, l, kmax=None, kmax_name="kmax"):
    """GraphError naming ``run`` if l or kmax is past the recursion limit.

    Such an l would hit the limit only after lists sized by l (the K pair's
    labels, one basis per degree) may have exhausted memory, and a table
    holds one group per degree up to kmax.  ``kmax_name`` is how the
    message names kmax.
    """
    limit = sys.getrecursionlimit()
    if l > limit:
        raise GraphError(f"{run}: {TOO_LONG}")
    if kmax is not None and kmax > limit:
        raise GraphError(f"{run}: {kmax_name} is past the recursion limit ({limit});"
                         " every degree above l is zero")


def enumerate_walks(g, a, b, max_steps):
    """All walks from a to b with at most max_steps unit steps.

    A walk is a vertex tuple whose consecutive entries are adjacent.  The
    zero-step walk ``(a,)`` is included when a == b, so the number of walks
    equals the sum of adjacency-matrix powers A^0 + ... + A^max_steps at the
    (a, b) entry.  A state (v, s) stands for the walks from v to b with at
    most s steps, and its list is built once: ``(v,)`` when v == b, then,
    for each neighbor y of v (the entries 1 of v's distance row, in vertex
    order) from which b is within s - 1 steps, v prefixed to every walk of
    (y, s - 1).  Every list is therefore sorted lexicographically under the
    vertex order, each walk before its extensions.  Only the top state
    (a, max_steps) reads the states one step below it, so each of those is
    dropped once read.
    """
    g.index(a), g.index(b)
    dist = g.distances
    # d(y, b) for every y: distances are symmetric, so b's row
    to_b = dist[b]
    memo = {}

    def walks(v, budget):
        found = memo.get((v, budget))
        if found is None:
            head = (v,)
            found = [head] if v == b else []
            for y, d in dist[v].items():
                if d == 1 and to_b[y] < budget:
                    found += [head + tail for tail in walks(y, budget - 1)]
                    if budget == max_steps:
                        del memo[y, budget - 1]
            memo[v, budget] = found
        return found

    if to_b[a] > max_steps:
        return []
    out = walks(a, max_steps)
    # walks refers to itself, so the memo would otherwise wait for the cycle
    # collector
    memo.clear()
    return out


# -- random graphs for the validation harness ------------------------------


def random_connected_graph(rng, n_max=6):
    """A random connected graph on 2..n_max vertices, drawn from ``rng``: a
    random spanning tree plus each other edge with probability 0.3."""
    n = rng.randint(2, n_max)
    tree = _random_tree_pairs(rng, n)
    # a tree pair (j, i) has j < i, as every pair below does
    present = set(tree)
    extra = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in present and rng.random() < 0.3]
    return _numbered_graph(n, tree + extra)


# -- symmetry --------------------------------------------------------------


def automorphism_generators(dist):
    """Generators of the isometry group of a graph, as permutations of vertex indices.

    A permutation p maps vertex i to vertex p[i].  Vertices are first split
    by their sorted distance profile, which every isometry preserves.  Then,
    for each level i of the pointwise stabiliser chain (the isometries that
    fix vertices 0..i-1), deepest level first, a backtracking search looks
    for one isometry mapping vertex i to each candidate not yet in the orbit
    of i under the generators found so far.  Those generators fix 0..i-1 and
    together reach the whole orbit, so they generate the level's stabiliser
    and the group itself is never listed.  ``dist`` is the graph's distance
    matrix in vertex order.
    """
    profile = [sorted(row) for row in dist]
    n = len(dist)
    gens = []
    for i in reversed(range(n)):
        orbit = _orbit(i, gens)
        for c in range(i + 1, n):
            if c in orbit or profile[c] != profile[i]:
                continue
            if any(dist[c][z] != dist[i][z] for z in range(i)):
                continue  # c cannot replace i while 0..i-1 stay fixed
            sigma = _extend_isometry(dist, profile, list(range(i)) + [c])
            if sigma is not None:
                gens.append(sigma)
                orbit = _orbit(i, gens)
    return gens


def _orbit(x, gens):
    orbit = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for sigma in gens:
            if sigma[y] not in orbit:
                orbit.add(sigma[y])
                frontier.append(sigma[y])
    return orbit


def _extend_isometry(dist, profile, image):
    """Complete the partial map i -> image[i] to an isometry, or return None.

    Vertices are assigned in index order; a vertex may only go to an unused
    vertex with the same distance profile and the same distances to every
    vertex assigned before it.  The given part must already preserve
    distances.
    """
    x = len(image)
    if x == len(dist):
        return tuple(image)
    for y in range(len(dist)):
        if (
            y not in image
            and profile[y] == profile[x]
            and all(dist[x][z] == dist[y][image[z]] for z in range(x))
        ):
            sigma = _extend_isometry(dist, profile, image + [y])
            if sigma is not None:
                return sigma
    return None


def pair_orbits(g):
    """Map every ordered pair (a, b) to the representative of its orbit.

    Orbits are taken under the isometries of g together with reversal
    (a, b) -> (b, a).  Magnitude homology is functorial in graph maps, and
    reversing tuples is a chain isomorphism (up to sign), so all pairs of an
    orbit have isomorphic groups.  The representative is the orbit's first
    pair in row-major vertex order, and the dict lists the pairs in that
    order, so a representative always comes before the pairs it stands for.

    Every generator is checked to be a distance-preserving bijection before
    any orbit is formed; InternalCheckError is raised otherwise.
    """
    names = g.vertices
    dist = [list(g.distances[u].values()) for u in names]
    n = len(dist)
    gens = automorphism_generators(dist)
    for sigma in gens:
        if sorted(sigma) != list(range(n)):
            raise InternalCheckError(
                f"automorphism generator {list(sigma)} is not a bijection of the "
                f"{n} vertices"
            )
        for x in range(n):
            for y in range(n):
                if dist[sigma[x]][sigma[y]] != dist[x][y]:
                    raise InternalCheckError(
                        f"automorphism generator is not an isometry: it maps "
                        f"({names[x]}, {names[y]}) at distance {dist[x][y]} to "
                        f"({names[sigma[x]]}, {names[sigma[y]]}) at distance "
                        f"{dist[sigma[x]][sigma[y]]}"
                    )

    # reversal and each generator as permutations of the pair indices a * n + b
    moves = [[b * n + a for a in range(n) for b in range(n)]]
    moves += [[sigma[a] * n + sigma[b] for a in range(n) for b in range(n)] for sigma in gens]
    rep = [None] * (n * n)
    for p in range(n * n):
        if rep[p] is None:
            for q in _orbit(p, moves):
                rep[q] = p
    return {
        (names[p // n], names[p % n]): (names[r // n], names[r % n])
        for p, r in enumerate(rep)
    }


# Symmetry types of sq2 in the order of the reference rank table, each
# labelled by its representative pair under pair_orbits.
_SQ2_TYPE_LABELS = ("(a,a)", "(a,b)", "(a,c)", "(a,d)", "(b,b)", "(b,c)", "(b,f)", "(b,e)")


def sq2_pair_types():
    """Vertex-pair labeling of sq2 by symmetry type.

    Returns a dict mapping ``"u,v"`` keys to type labels, covering all 36
    ordered pairs and grouped by label in reference order; suitable for
    json.dump as a ``--types`` labeling file.
    """
    orbits = pair_orbits(generate("sq2"))
    out = {}
    for label in _SQ2_TYPE_LABELS:
        for (u, v), (r, s) in orbits.items():
            if label == f"({r},{s})":
                out[f"{u},{v}"] = label
    return out
