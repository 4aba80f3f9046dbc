"""Independent oracles used by the test suite.

Everything here is deliberately naive: brute-force enumeration, textbook
elimination over Q and over GF(2).  None of it shares code with the package
internals it is used to check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from maghom import Graph, random_connected_graph
from maghom.homology import IntegerMatrix


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
        power = [
            [sum(power[r][t] * adj[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)
        ]
    return counts


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
        if sum(g.distance(seq[i], seq[i + 1]) for i in range(k)) == l:
            out.append(seq)
    return sorted(out, key=lambda s: tuple(g.index(v) for v in s))


def rank_over_q(matrix: IntegerMatrix) -> int:
    """Row-echelon rank over the rationals with exact Fraction arithmetic."""
    rows = [[Fraction(matrix.entry(r, c)) for c in range(matrix.cols)] for r in range(matrix.rows)]
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
    rows = [[matrix.entry(r, c) & 1 for c in range(matrix.cols)] for r in range(matrix.rows)]
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


def random_int_matrix(rng: random.Random, max_dim: int = 5, max_entry: int = 9) -> IntegerMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix(
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


def tree_geodesic(g, u, v):
    """The unique shortest walk between two vertices of a tree."""
    if not g.is_tree():
        raise ValueError("tree_geodesic needs a tree")
    walk = [u]
    while walk[-1] != v:
        current = walk[-1]
        target = g.distance(current, v)
        step = next(y for y in g.neighbors(current) if g.distance(y, v) == target - 1)
        walk.append(step)
    return tuple(walk)


def path_of_sequence(g, seq):
    """The unique shortest walk through the sequence's vertices in order."""
    walk = [seq[0]]
    for i in range(len(seq) - 1):
        walk.extend(tree_geodesic(g, seq[i], seq[i + 1])[1:])
    return tuple(walk)
