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

from .homology import IntegerChainComplex, IntegerMatrix, homology_all


class ComponentKey(NamedTuple):
    """One direct summand of the magnitude chain complex: endpoints and length."""

    a: str
    b: str
    l: int


def enumerate_basis(g, key, kmax):
    """Per-degree bases of MC_{*,l}(a, b) for degrees 0..kmax.

    Each degree's basis is sorted lexicographically under the vertex order.
    A state (v, r, s) stands for its completions: the tuples that begin
    with v, end at b, have consecutive entries distinct, total length r and
    at most s steps.  Every step has length at least 1, so the budget s is
    capped at r, and states that differ only above the cap are one state.
    A state's completions are memoized.  They are built, in the order of
    v's distance row, from those of its child states (y, r - d(v, y), s - 1)
    as v prefixed to each, so every list is sorted; the cells are the
    completions of (a, l, kmax), split by length with no second copy.  A
    state with one step left is answered straight from the distance row:
    its one completion is (v, b) when d(v, b) = r, and it has none
    otherwise.  Degrees above l are always empty.
    """
    a, b, l = key
    g.index(a), g.index(b)
    if l < 0 or kmax < 0:
        return [[] for _ in range(max(kmax + 1, 0))]
    dist = g.distances
    to_b = dist[b]  # d(v, b) = d(b, v)
    memo = {}

    def completions(v, remaining, budget):
        # a state with a budget of at least two steps
        state = (v, remaining, budget)
        found = memo.get(state)
        if found is None:
            head = (v,)
            found = memo[state] = []
            for y, d in dist[v].items():
                if 0 < d < remaining:
                    rest = remaining - d
                    left = budget - 1 if budget <= rest else rest
                    if left == 1:
                        # the child state's one completion is (y, b), or none
                        if to_b[y] == rest:
                            found.append((v, y, b))
                    else:
                        tails = completions(y, rest, left)
                        if tails:
                            found += [head + tail for tail in tails]
                elif d == remaining and y == b:
                    found.append((v, b))
        return found

    per_degree = [[] for _ in range(kmax + 1)]
    budget = min(kmax, l)
    if budget == 0:
        if l == 0 and a == b:
            per_degree[0].append((a,))
    elif budget == 1:
        if to_b[a] == l:
            per_degree[1].append((a, b))
    else:
        for cell in completions(a, l, budget):
            per_degree[len(cell) - 1].append(cell)
        # completions refers to itself, so the memo would otherwise wait for
        # the cycle collector
        memo.clear()
    return per_degree


def _boundary_from_bases(g, basis_prev, basis_cur):
    # consecutive entries of a tuple differ, so dropping two different
    # interior vertices never gives the same face
    dist = g.distances
    index = dict(zip(basis_prev, range(len(basis_prev))))
    columns = []
    for seq in basis_cur:
        column = {}
        sign = -1  # (-1) ** i, from i = 1
        row_before = dist[seq[0]]
        before = row_before[seq[1]]
        for i in range(1, len(seq) - 1):
            row = dist[seq[i]]
            after = row[seq[i + 1]]
            if row_before[seq[i + 1]] == before + after:
                column[index[seq[:i] + seq[i + 1:]]] = sign
            sign = -sign
            row_before, before = row, after
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
        kmax = key.l
    # one extra degree so that the top computed homology sees its incoming
    # boundary
    complex_ = magnitude_chain_complex(g, key, min(kmax, key.l) + 1)
    return homology_all(complex_, up_to=kmax)
