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

from .homology import IntegerMatrix, homology_all
from .simplicial import IntegerChainComplex


class ComponentKey(NamedTuple):
    """One direct summand of the magnitude chain complex: endpoints and length."""

    a: str
    b: str
    l: int


def enumerate_basis(g, key, kmax):
    """Per-degree bases of MC_{*,l}(a, b) for degrees 0..kmax.

    Each degree's basis is sorted lexicographically under the vertex order.
    Enumeration recurses over next vertices and prunes with a memoized
    feasibility test: can the remaining length be consumed exactly, within
    the remaining step budget, ending at b?  Degrees above l are always
    empty because every step has length at least 1.
    """
    a, b, l = key
    g.index(a), g.index(b)
    if l < 0 or kmax < 0:
        return [[] for _ in range(max(kmax + 1, 0))]
    per_degree = [[] for _ in range(kmax + 1)]
    memo = {}

    def feasible(v, remaining, steps):
        if remaining == 0:
            return v == b
        if steps == 0:
            return False
        state = (v, remaining, steps)
        cached = memo.get(state)
        if cached is not None:
            return cached
        ok = False
        for y in g.vertices:
            if y != v:
                d = g.distance(v, y)
                if d <= remaining and feasible(y, remaining - d, steps - 1):
                    ok = True
                    break
        memo[state] = ok
        return ok

    prefix = [a]

    def extend(used):
        k = len(prefix) - 1
        if prefix[-1] == b and used == l:
            per_degree[k].append(tuple(prefix))
        if k == kmax or used >= l:
            return
        last = prefix[-1]
        for y in g.vertices:
            if y == last:
                continue
            step = g.distance(last, y)
            total = used + step
            if total <= l and feasible(y, l - total, kmax - k - 1):
                prefix.append(y)
                extend(total)
                prefix.pop()

    if feasible(a, l, kmax):
        extend(0)
    return per_degree


def _boundary_from_bases(g, basis_prev, basis_cur):
    index = {seq: i for i, seq in enumerate(basis_prev)}
    rows, cols = len(basis_prev), len(basis_cur)
    data = [[0] * cols for _ in range(rows)]
    for j, seq in enumerate(basis_cur):
        k = len(seq) - 1
        for i in range(1, k):
            left, mid, right = seq[i - 1], seq[i], seq[i + 1]
            if g.distance(left, right) == g.distance(left, mid) + g.distance(mid, right):
                face = seq[:i] + seq[i + 1:]
                data[index[face]][j] += (-1) ** i
    return IntegerMatrix(data, cols=cols)


def magnitude_chain_complex(g, key, kmax):
    """The complex MC_{*,l}(a, b) through degree kmax, basis labels = tuples."""
    bases = enumerate_basis(g, key, kmax)
    boundaries = [IntegerMatrix.zeros(0, len(bases[0]))]
    for k in range(1, kmax + 1):
        boundaries.append(_boundary_from_bases(g, bases[k - 1], bases[k]))
    return IntegerChainComplex(bases, boundaries)


def magnitude_homology_direct(g, key, kmax=None):
    """MH_{k,l}(a, b) for 0 <= k <= kmax, straight from the chain complex.

    kmax defaults to l (all degrees above l vanish identically).
    """
    if kmax is None:
        kmax = max(key.l, 0)
    # one extra degree so that the top requested homology sees its incoming
    # boundary
    complex_ = magnitude_chain_complex(g, key, kmax + 1)
    return homology_all(complex_, up_to=kmax)
