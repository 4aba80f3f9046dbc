"""Magnitude chain complexes of graphs, computed directly from sequences.

The degree-k chain group MC_{k,l}(a, b) is the free Z-module on tuples
(x_0, ..., x_k) with x_0 = a, x_k = b, consecutive entries distinct, and
total length sum d(x_i, x_{i+1}) = l.  The boundary drops one interior
vertex at a time, with sign (-1)^i, keeping only faces that preserve the
total length.  Magnitude homology MH_{k,l} is the homology of this complex;
it splits as a direct sum over the ordered endpoint pairs (a, b).
"""

from __future__ import annotations

from typing import NamedTuple

from .homology import ZERO_GROUP, IntegerMatrix, homology_all
from .simplicial import IntegerChainComplex


class ComponentKey(NamedTuple):
    """One direct summand of the magnitude chain complex: endpoints and length."""

    a: str
    b: str
    l: int


def enumerate_basis(g, key, kmax):
    """Per-degree bases of MC_{*,l}(a, b) for degrees 0..kmax.

    Each degree's basis is sorted lexicographically under the vertex order.
    Enumeration recurses over next vertices, taking only the steps after
    which the remaining length can be consumed exactly, within the
    remaining step budget, ending at b; those steps are memoized per
    (vertex, remaining length, budget), and a vertex's steps are listed
    only once the recursion reaches it.  With one step left the only
    option is b itself, read straight from the distance table.  Degrees
    above l are always empty because every step has length at least 1.
    """
    a, b, l = key
    g.index(a), g.index(b)
    if l < 0 or kmax < 0:
        return [[] for _ in range(max(kmax + 1, 0))]
    per_degree = [[] for _ in range(kmax + 1)]
    dist = g.distances
    # each reached vertex's steps (y, d(v, y)) in vertex order, so that the
    # bases come out sorted
    steps = {}
    memo = {}

    def options(v, remaining, budget):
        if budget == 1:
            # remaining is positive, so a step of exactly that length leaves v
            return [(b, remaining)] if dist[v, b] == remaining else []
        state = (v, remaining, budget)
        found = memo.get(state)
        if found is None:
            found = memo[state] = []
            v_steps = steps.get(v)
            if v_steps is None:
                v_steps = steps[v] = [(y, dist[v, y]) for y in g.vertices if y != v]
            for y, d in v_steps:
                rest = remaining - d
                if rest == 0 and y == b or rest > 0 and options(y, rest, budget - 1):
                    found.append((y, d))
        return found

    prefix = [a]

    def extend(last, used):
        k = len(prefix) - 1
        if last == b and used == l:
            per_degree[k].append(tuple(prefix))
        if k == kmax or used >= l:
            return
        for y, d in options(last, l - used, kmax - k):
            prefix.append(y)
            extend(y, used + d)
            prefix.pop()

    extend(a, 0)
    return per_degree


def _boundary_from_bases(g, basis_prev, basis_cur):
    # consecutive entries of a tuple differ, so dropping two different
    # interior vertices never gives the same face
    dist = g.distances
    index = {seq: i for i, seq in enumerate(basis_prev)}
    columns = []
    for seq in basis_cur:
        column = {}
        sign = -1  # (-1) ** i, from i = 1
        before = dist[seq[0], seq[1]]
        for i in range(1, len(seq) - 1):
            after = dist[seq[i], seq[i + 1]]
            if dist[seq[i - 1], seq[i + 1]] == before + after:
                column[index[seq[:i] + seq[i + 1:]]] = sign
            sign = -sign
            before = after
        columns.append(column)
    return IntegerMatrix(len(basis_prev), len(basis_cur), columns)


def magnitude_chain_complex(g, key, kmax):
    """The complex MC_{*,l}(a, b) through degree kmax, basis labels = tuples."""
    bases = enumerate_basis(g, key, kmax)
    boundaries = [IntegerMatrix(0, len(bases[0]))]
    for k in range(1, kmax + 1):
        boundaries.append(_boundary_from_bases(g, bases[k - 1], bases[k]))
    return IntegerChainComplex(bases, boundaries)


def magnitude_homology_direct(g, key, kmax=None):
    """MH_{k,l}(a, b) for 0 <= k <= kmax, straight from the chain complex.

    kmax defaults to l.  Every degree above l has no chains, so the complex
    is built through min(kmax, l) + 1 only, and the degrees above l read
    zero.
    """
    if kmax is None:
        kmax = max(key.l, 0)
    top = min(kmax, key.l)
    # one extra degree so that the top computed homology sees its incoming
    # boundary
    complex_ = magnitude_chain_complex(g, key, top + 1)
    return homology_all(complex_, up_to=top) + [ZERO_GROUP] * (kmax - top)
