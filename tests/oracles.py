"""Independent oracles used by the test suite.

Everything here is deliberately naive: brute-force enumeration, textbook
elimination over Q and over GF(2).  None of it shares code with the package
internals it is used to check.  From a ``Graph`` only the vertex list, in
its order, and the edge list are read, with the counts and positions that
follow from them: the metric is ``metric``'s own breadth-first search,
never the package's distance table.  The package supplies only the
``Graph`` and ``IntegerMatrix`` containers and the random graph draw of
``maghom check``.  The exceptions, ``chain_complex`` and
``pair_chain_complex``, are fixture builders and not oracles: they hand the
simplices of a complex, or of a pair of complexes, to
``relative_chain_complex``, in the layers that ``membership_incidence``
writes by looking up every facet, with its own numbering and signs
(``incidence_layers``); ``decoded_columns``, ``drop_positions`` and
``decoded_cells`` only read layers back.
``tests/test_oracles.py`` enforces this.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from maghom import Graph, random_connected_graph
from maghom.homology import IntegerMatrix
from maghom.simplicial import relative_chain_complex


def adjacency(g: Graph) -> dict:
    """Each vertex's neighbours, read from the edge list."""
    adj = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


_METRICS: dict = {}


def metric(g: Graph) -> dict:
    """The shortest-path metric as ``metric(g)[u][v]``, from the edge list alone.

    Each row is grown one level at a time from the neighbours of the level
    before.  Rows are memoized per graph, keyed by its vertices and edges.
    """
    key = (g.vertices, g.edges)
    if key not in _METRICS:
        adj = adjacency(g)
        rows = {}
        for source in g.vertices:
            row = {source: 0}
            level, d = [source], 0
            while level:
                d += 1
                reached = []
                for x in level:
                    for y in adj[x]:
                        if y not in row:
                            row[y] = d
                            reached.append(y)
                level = reached
            rows[source] = row
        _METRICS[key] = rows
    return _METRICS[key]


def tuple_length(g: Graph, points) -> int:
    """Sum of the distances between consecutive entries of a vertex tuple."""
    d = metric(g)
    return sum(d[u][v] for u, v in zip(points, points[1:]))


def matrix_from_lists(data, cols=None) -> IntegerMatrix:
    """The sparse matrix of dense rows; ``cols`` is needed when there are none."""
    if cols is None:
        cols = len(data[0])
    if any(len(row) != cols for row in data):
        raise ValueError("ragged matrix rows")
    columns = [{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(cols)]
    return IntegerMatrix(len(data), cols, columns)


def incidence_layers(drops) -> list:
    """The layers that ``relative_chain_complex`` stacks, from each cell's drop positions.

    ``drops`` maps each cell, an increasing tuple of label indices, to the
    positions i whose facet, the cell without its i-th index, is a cell.
    There is one layer per cell size, from the largest down to the
    smallest, each listing its cells in sorted order with the column
    {number of the facet in the next layer: (-1)^i} over their drops.
    """
    layers, numbers = [], {}
    sizes = set(map(len, drops))
    for size in range(min(sizes, default=1), max(sizes, default=0) + 1):
        cells = sorted(cell for cell in drops if len(cell) == size)
        layers.append({cell: {numbers[cell[:i] + cell[i + 1:]]: (-1) ** i for i in drops[cell]}
                       for cell in cells})
        numbers = {cell: j for j, cell in enumerate(cells)}
    return layers[::-1]


def membership_incidence(labels, cells) -> list:
    """The layers of a set of cells that ``relative_chain_complex`` stacks, by membership.

    Each cell, a simplex given by its labels in any order, is written as the
    sorted tuple of its labels' indices in ``labels``; its drops are the
    positions i whose facet, the cell without its i-th index, is one of the
    cells.  An unknown label raises KeyError.
    """
    index = {label: i for i, label in enumerate(labels)}
    coded = {tuple(sorted(index[label] for label in cell)) for cell in cells}
    return incidence_layers({
        cell: tuple(i for i in range(len(cell)) if cell[:i] + cell[i + 1:] in coded)
        for cell in coded
    })


def decoded_columns(incidence) -> dict:
    """Each cell of a list of layers, with its column read as {facet cell: sign}."""
    facets = [list(layer) for layer in incidence[1:]] + [[]]
    return {cell: {below[j]: sign for j, sign in column.items()}
            for layer, below in zip(incidence, facets) for cell, column in layer.items()}


def drop_positions(incidence) -> dict:
    """Each cell of a list of layers, with the positions of the facets its column names."""
    return {cell: tuple(i for i in range(len(cell)) if cell[:i] + cell[i + 1:] in column)
            for cell, column in decoded_columns(incidence).items()}


def decoded_cells(kpair) -> frozenset:
    """K \\ K' of a K pair: its cells decoded through its labels, endpoints included."""
    return frozenset(tuple(kpair.labels[i] for i in cell)
                     for layer in kpair.incidence for cell in layer)


def chain_complex(complex_):
    """The simplicial chain complex of a complex: the pair with nothing removed."""
    return relative_chain_complex(membership_incidence(complex_.labels, complex_))


def pair_chain_complex(total, sub):
    """The chain complex of a pair of complexes: the quotient by ``sub``.

    ``sub`` must be a subcomplex of ``total`` on the same label universe, in
    the same order; otherwise ValueError.
    """
    if sub.labels != total.labels:
        raise ValueError("subcomplex is on a different label universe than the total complex")
    present = set(total)
    missing = next((s for s in sub if s not in present), None)
    if missing is not None:
        raise ValueError(f"subcomplex simplex missing from total complex: {missing!r}")
    cells = present - set(sub)
    return relative_chain_complex(membership_incidence(total.labels, cells))


def k_pair_by_definition(g: Graph, key) -> tuple[set, set]:
    """(K, K') of a component straight from the definitions.

    K is the downward closure of the positioned interiors of all walks from
    a to b with at most l steps, listed by unpruned extension along edges;
    K' keeps the simplices of K whose endpoint-closed tuple has length at
    most l - 1.
    """
    a, b, l = key
    adj = adjacency(g)
    walks, frontier = [], [(a,)]
    for _ in range(l + 1):
        walks.extend(w for w in frontier if w[-1] == b)
        frontier = [w + (y,) for w in frontier for y in adj[w[-1]]]
    total = set()
    for walk in walks:
        interior = [(i, walk[i]) for i in range(1, len(walk) - 1)]
        for size in range(1, len(interior) + 1):
            total.update(itertools.combinations(interior, size))
    sub = set()
    for simplex in total:
        closed = [a] + [v for _, v in simplex] + [b]
        if tuple_length(g, closed) <= l - 1:
            sub.add(simplex)
    return total, sub


def magnitude_series_coefficients(g: Graph, l: int) -> dict[tuple[str, str], int]:
    """[q^l] (Z_G(q)^{-1})_{ab} for every ordered pair (a, b), Z_G = (q^{d(x,y)}).

    Z_G = I + N with N = O(q), so Z_G^{-1} is the series sum_m (-N)^m, and
    its coefficient matrices C_0 .. C_l obey C_0 = I and
    C_j = -sum_{d >= 1} A_d C_{j-d}, where A_d marks the pairs at distance
    d.  (N^m)_{ab} sums q^length over the tuples (a, ..., b) of m + 1
    entries with consecutive entries distinct, which are the magnitude
    chains of degree m, so the coefficient at (a, b) is the Euler
    characteristic sum_k (-1)^k rank MH_{k,l}(a, b).  Only the metric is
    read, and it is ``metric``'s; nothing here enumerates tuples.
    """
    verts = g.vertices
    n = len(verts)
    d = metric(g)
    dist = [[d[x][y] for y in verts] for x in verts]
    coeffs = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for j in range(1, l + 1):
        c = [[0] * n for _ in range(n)]
        for x in range(n):
            for z in range(n):
                if 1 <= dist[x][z] <= j:
                    prev = coeffs[j - dist[x][z]][z]
                    for y in range(n):
                        c[x][y] -= prev[y]
        coeffs.append(c)
    return {(a, b): coeffs[l][i][j] for i, a in enumerate(verts) for j, b in enumerate(verts)}


def dense_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Textbook product of dense row lists (``a`` must have rows)."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def adjacency_matrix(g: Graph) -> list[list[int]]:
    n = g.num_vertices
    mat = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        i, j = g.index(u), g.index(v)
        mat[i][j] = 1
        mat[j][i] = 1
    return mat


def walk_counts_by_steps(g: Graph, a: str, b: str, max_steps: int) -> list[int]:
    """Number of a-to-b walks with exactly s edge steps, via powers of A."""
    n = g.num_vertices
    adj = adjacency_matrix(g)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = g.index(a), g.index(b)
    counts = []
    for _ in range(max_steps + 1):
        counts.append(power[i][j])
        power = dense_product(power, adj)
    return counts


def walks_by_extension(g: Graph, a: str, b: str, max_steps: int) -> list[tuple]:
    """Every a-to-b walk with at most max_steps steps, sorted by vertex index.

    The walks from a are extended one step at a time over the edge list's
    neighbours, with no pruning; those that end at b are kept.
    """
    adj = adjacency(g)
    rank = {v: i for i, v in enumerate(g.vertices)}
    found, level = [], [(a,)]
    for _ in range(max_steps + 1):
        found += [w for w in level if w[-1] == b]
        level = [w + (y,) for w in level for y in adj[w[-1]]]
    return sorted(found, key=lambda w: [rank[v] for v in w])


def alternating_walk_count(g: Graph, a: str, b: str, l: int) -> int:
    """Number of a-to-b walks of l >= 1 steps that go back and forth along one edge.

    For odd l the walk is a, b, a, ..., b, so there is one when a ~ b; for
    even l it is a, x, a, ..., a, one for each neighbour x of a when a = b.
    Read from the edge list alone.
    """
    if l % 2:
        return sum(1 for u, v in g.edges if {u, v} == {a, b})
    return sum(1 for edge in g.edges if a in edge) if a == b else 0


def brute_force_magnitude_basis(
    g: Graph, a: str, b: str, l: int, k: int
) -> list[tuple[str, ...]]:
    """All (k+1)-tuples from a to b with the given total length, by filtering
    the full cartesian product.  Exponential; keep the inputs tiny."""
    if k == 0:
        return [(a,)] if a == b and l == 0 else []
    out = []
    for middle in itertools.product(g.vertices, repeat=k - 1):
        seq = (a, *middle, b)
        if any(seq[i] == seq[i + 1] for i in range(k)):
            continue
        if tuple_length(g, seq) == l:
            out.append(seq)
    return sorted(out, key=lambda s: tuple(g.index(v) for v in s))


def boundary_by_definition(g: Graph, key, k: int) -> list[dict[int, int]]:
    """Columns of the degree-k magnitude boundary of one component, by definition.

    Column j belongs to the j-th tuple of the brute-force degree-k basis and
    rows to the brute-force degree-(k-1) basis.  Each interior vertex x_i is
    dropped in turn; the face counts, with sign (-1)^i, when its total
    length is still l.
    """
    a, b, l = key
    rows = {face: n for n, face in enumerate(brute_force_magnitude_basis(g, a, b, l, k - 1))}
    columns = []
    for seq in brute_force_magnitude_basis(g, a, b, l, k):
        faces = [(i, seq[:i] + seq[i + 1:]) for i in range(1, k)]
        columns.append({rows[face]: (-1) ** i for i, face in faces if tuple_length(g, face) == l})
    return columns


def rank_over_q(matrix: IntegerMatrix) -> int:
    """Row-echelon rank over the rationals with exact Fraction arithmetic."""
    rows = [[Fraction(x) for x in row] for row in matrix.to_lists()]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_over_gf2(matrix: IntegerMatrix) -> int:
    rows = [[x & 1 for x in row] for row in matrix.to_lists()]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [(x ^ y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def betti_via_rank_oracle(complex_, n: int) -> int:
    """dim C_n - rank d_n - rank d_{n+1}, ranks computed over Q from scratch."""
    dim = complex_.dim(n)
    if dim == 0:
        return 0
    return dim - rank_over_q(complex_.boundary(n)) - rank_over_q(complex_.boundary(n + 1))


def geodesic_interval_betti(g: Graph, a: str, b: str) -> tuple[dict, dict]:
    """Reduced Betti numbers of the order complex of the open interval (a, b).

    The interval holds the vertices other than a and b on a geodesic from a
    to b, with x <= y when d(a, x) + d(x, y) + d(y, b) = d(a, b).  Its
    chains x_1 < ... < x_r are the (r-1)-simplices, and the empty chain is
    the one cell of degree -1, so an empty interval (d(a, b) = 1) has
    reduced H_{-1} of rank 1.  Returns ({n: Betti number over Q},
    {n: Betti number over GF(2)}) for n = -1 .. d(a, b) - 2, from
    ``rank_over_q`` and ``rank_over_gf2`` of the boundaries (the face
    without x_i has sign (-1)^i).  When d(a, b) = l >= 1 these are the ranks
    of MH_{n+2,l}(a, b) (Kaneta-Yoshinaga, arXiv:1803.04247).
    """
    d = metric(g)
    l = d[a][b]
    inside = [x for x in g.vertices if x not in (a, b) and d[a][x] + d[x][b] == l]
    # a chain lists its elements in order, each one strictly further from a
    chains = [[()]]
    while chains[-1]:
        chains.append([
            c + (y,)
            for c in chains[-1]
            for y in inside
            if not c or (c[-1] != y and d[a][c[-1]] + d[c[-1]][y] + d[y][b] == l)
        ])
    # chains[l] is empty: a chain has at most one element per distance from a
    boundaries = []
    for faces, cells in zip(chains, chains[1:]):
        rows = {face: i for i, face in enumerate(faces)}
        columns = [{rows[c[:i] + c[i + 1:]]: (-1) ** i for i in range(len(c))} for c in cells]
        boundaries.append(IntegerMatrix(len(faces), len(cells), columns))
    rational, mod2 = {}, {}
    for betti, rank in ((rational, rank_over_q), (mod2, rank_over_gf2)):
        # ranks[r] is the rank of the boundary out of the chains of r elements
        ranks = [0] + [rank(m) for m in boundaries]
        for r in range(l):
            betti[r - 1] = len(chains[r]) - ranks[r] - ranks[r + 1]
    return rational, mod2


def random_int_matrix(rng: random.Random, max_dim: int = 5, max_entry: int = 9) -> IntegerMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return matrix_from_lists(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)]
    )


def random_graph_from_seed(seed: int, n_max: int = 6) -> Graph:
    return random_connected_graph(random.Random(seed), n_max=n_max)


def unimodular_matrix(rng: random.Random, n: int, shears: int = 8) -> list[list[int]]:
    """Product of elementary shear matrices; determinant is exactly 1."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return mat
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for c in range(n):
            mat[i][c] += q * mat[j][c]
    return mat


def rational_rank(a):
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Independent of `smith_normal_form`; used as a cross-check oracle.
    """
    m, n = a.rows, a.cols
    w = a.to_lists()
    rank = 0
    prev = 1
    for _ in range(min(m, n)):
        pr = pc = -1
        for i in range(rank, m):
            for j in range(rank, n):
                if w[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        w[rank], w[pr] = w[pr], w[rank]
        if pc != rank:
            for row in w:
                row[rank], row[pc] = row[pc], row[rank]
        piv = w[rank][rank]
        for i in range(rank + 1, m):
            ri = w[i]
            f = ri[rank]
            for j in range(rank + 1, n):
                ri[j] = (piv * ri[j] - f * w[rank][j]) // prev
            ri[rank] = 0
        prev = piv
        rank += 1
    return rank


def integer_determinant(a):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    w = a.to_lists()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if w[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if w[i][t]), None)
            if swap is None:
                return 0
            w[t], w[swap] = w[swap], w[t]
            sign = -sign
        piv = w[t][t]
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                w[i][j] = (piv * w[i][j] - w[i][t] * w[t][j]) // prev
            w[i][t] = 0
        prev = piv
    return sign * w[n - 1][n - 1]


def invariant_factors_by_minors(a):
    """Invariant factors from determinantal divisors, with no elimination.

    D_k is the gcd of all k x k minors and d_k = D_k / D_{k-1}; the factors
    stop at the rank, where D_k first vanishes.  Exponential in the size, so
    keep the matrices small.
    """
    dense = a.to_lists()
    factors = []
    previous = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        divisor = 0
        for rows in itertools.combinations(dense, k):
            for cols in itertools.combinations(range(a.cols), k):
                minor = matrix_from_lists([[row[c] for c in cols] for row in rows])
                divisor = math.gcd(divisor, integer_determinant(minor))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors)


def assert_boundary_squares_to_zero(complex_) -> None:
    """d_n . d_{n+1} = 0 in every degree, by dense products."""
    for n in range(1, complex_.top_degree + 1):
        d_n, d_up = complex_.boundary(n).to_lists(), complex_.boundary(n + 1).to_lists()
        if d_n and d_up:
            product = dense_product(d_n, d_up)
            assert not any(any(row) for row in product), (
                f"boundary identity fails between degrees {n + 1} and {n}"
            )


def euler_characteristic(complex_) -> int:
    """Alternating sum of the chain ranks."""
    return sum((-1) ** n * complex_.dim(n) for n in range(complex_.top_degree + 1))


def tree_geodesic(g, u, v):
    """The unique shortest walk between two vertices of a tree.

    The tree is searched from v along its edge list; u's walk follows the
    parent of each vertex back to v.
    """
    if not g.is_tree():
        raise ValueError("tree_geodesic needs a tree")
    adj = adjacency(g)
    parent = {v: None}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    walk = [u]
    while walk[-1] != v:
        walk.append(parent[walk[-1]])
    return tuple(walk)


def path_of_sequence(g, seq):
    """The unique shortest walk through the sequence's vertices in order."""
    walk = [seq[0]]
    for i in range(len(seq) - 1):
        walk.extend(tree_geodesic(g, seq[i], seq[i + 1])[1:])
    return tuple(walk)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """The Cartesian (box) product of G and H.

    Vertices are the pairs (u, v), labelled "u|v"; (u, v) and (x, y) are
    adjacent when u = x and v ~ y in H, or v = y and u ~ x in G.
    """
    vertices = [f"{u}|{v}" for u in g.vertices for v in h.vertices]
    edges = [(f"{u}|{v}", f"{u}|{y}") for u in g.vertices for v, y in h.edges]
    edges += [(f"{u}|{v}", f"{x}|{v}") for u, x in g.edges for v in h.vertices]
    return Graph(vertices, edges)


def face_poset_graph(cells: dict) -> Graph:
    """The Hasse diagram of a regular cell complex's face poset, with a bottom and a top.

    ``cells`` maps each cell to its facets, in the order the graph lists
    them; a vertex has none.  The graph's vertices are "bottom", the cells
    and "top", and its edges are the covering relations: bottom to each
    vertex, each cell to each of its facets, and each cell that is no
    cell's facet to top.  Then d(bottom, top) = 4 when every top cell has
    dimension 2, and MH_{k,4}(bottom, top) is the reduced homology
    H_{k-2} of the complex (Kaneta-Yoshinaga, arXiv:1803.04247).
    """
    faces = {f for facets in cells.values() for f in facets}
    edges = [("bottom", c) for c, facets in cells.items() if not facets]
    edges += [(c, f) for c, facets in cells.items() for f in facets]
    edges += [(c, "top") for c in cells if c not in faces]
    return Graph(["bottom", *cells, "top"], edges)


def brute_force_pair_orbits(g: Graph) -> set[frozenset]:
    """Orbits of ordered pairs under every isometry of g and reversal.

    Lists all n! vertex permutations and keeps the distance-preserving ones,
    so it is meant for graphs of at most about 7 vertices.
    """
    verts = g.vertices
    d = metric(g)
    isometries = [
        dict(zip(verts, image))
        for image in itertools.permutations(verts)
        if all(
            d[x][y] == d[image[i]][image[j]]
            for i, x in enumerate(verts)
            for j, y in enumerate(verts)
        )
    ]
    return {
        frozenset(
            pair
            for s in isometries
            for pair in ((s[a], s[b]), (s[b], s[a]))
        )
        for a in verts
        for b in verts
    }


def wedge(g: Graph, x: str, h: Graph, y: str) -> Graph:
    """The wedge G v H: G and H side by side, with x in G and y in H made one vertex.

    G's vertices are labelled "L|u" and H's "R|v", except that y is "L|x";
    G's vertices come first, in their order, then H's without y.
    """
    glued = {v: f"R|{v}" for v in h.vertices}
    glued[y] = f"L|{x}"
    vertices = [f"L|{u}" for u in g.vertices] + [glued[v] for v in h.vertices if v != y]
    edges = [(f"L|{u}", f"L|{v}") for u, v in g.edges]
    edges += [(glued[u], glued[v]) for u, v in h.edges]
    return Graph(vertices, edges)


def blocks(g: Graph) -> list[Graph]:
    """The biconnected blocks of a connected graph, by Tarjan's depth-first search.

    Each edge is pushed on a stack when the search first crosses it.  Once
    the subtree below a tree edge (u, v) has no back edge above u, u cuts it
    off, and the edges pushed since (u, v), with it, are one block.  A block
    keeps g's vertex order; blocks come in the order they close.  Reads the
    edge list only.
    """
    adj = adjacency(g)
    order: dict = {}
    low: dict = {}
    stack: list = []
    found = []

    def visit(u, parent):
        order[u] = low[u] = len(order)
        for v in adj[u]:
            if v not in order:
                stack.append((u, v))
                visit(v, u)
                low[u] = min(low[u], low[v])
                if low[v] >= order[u]:
                    edges = []
                    while not edges or edges[-1] != (u, v):
                        edges.append(stack.pop())
                    found.append(edges)
            elif v != parent and order[v] < order[u]:
                stack.append((u, v))
                low[u] = min(low[u], order[v])

    visit(g.vertices[0], None)
    return [
        Graph([v for v in g.vertices if any(v in edge for edge in edges)], edges)
        for edges in found
    ]
