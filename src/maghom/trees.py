"""Tree-specific structure of magnitude chain complexes.

On a tree, every basis sequence determines a unique walk through its
vertices in order, so each component MC_{*,l}(a, b) splits further into one
summand per walk of length exactly l.  A walk's summand is governed by its
turning points: positions i with x_{i-1} = x_{i+1} (equivalently, where the
triangle inequality through x_i is strict).  The summand is the relative
chain complex of the full simplex on positions 1..l-1 modulo the simplices
missing at least one turning point, shifted up by two degrees.

With m turning points that pair is: everything (m = 0, the subcomplex is
empty), contractible (0 < m < l-1), or the simplex modulo its boundary
sphere (m = l-1).  In degrees k >= 2 only the sphere case contributes
homology, one Z in degree k = l; the m = 0 walk is the geodesic, whose Z in
degree 2 reduced H_0 drops.  Summing over all walks: MH_{k,l} of a tree is
Z^(2 * number of edges) when k = l and zero otherwise (k >= 1), since the
walks with m = l-1 are exactly the alternating walks along one edge.
Only those walks carry homology, so the route keeps the walks that turn at
every interior position and classifies one of them: a component's sphere
count is its number of kept walks.

A tree is bipartite, so every walk from a to b has d(a, b) steps plus an
even number: a pair whose distance differs from l in parity has no walk of
l steps, and none is listed for it.
"""

from __future__ import annotations

from itertools import compress
from operator import eq

from .graphs import GraphError, enumerate_walks
from .homology import ZERO_GROUP, HomologyGroup
from .magnitude import magnitude_homology_direct


def _require_tree(g):
    if not g.is_tree():
        raise GraphError("method tree needs a tree input")


def turning_points(walk):
    """Positions where a walk on a tree steps straight back.

    Those are the interior positions i with x_{i-1} = x_{i+1}.  On a tree
    that is exactly when d(x_{i-1}, x_{i+1}) is strictly below
    d(x_{i-1}, x_i) + d(x_i, x_{i+1}), the turning-point condition.
    """
    return tuple(compress(range(1, len(walk) - 1), map(eq, walk, walk[2:])))


def decompose_tree_component(g, key):
    """The walks indexing the per-walk summands of MC_{*,l}(a, b) on a tree.

    One walk from a to b of length exactly l per summand, in lexicographic
    order; shorter walks carry no sequences of length l and are dropped.  A
    tree is bipartite, so when d(a, b) and l differ in parity no walk is
    listed at all.
    """
    _require_tree(g)
    a, b, l = key
    g.index(a), g.index(b)
    if (g.distances[a][b] - l) % 2:
        return []
    return [walk for walk in enumerate_walks(g, a, b, l) if len(walk) - 1 == l]


def classify_delta(phi, l):
    """Homotopy type of the subcomplex: 'empty', 'contractible', or 'sphere'.

    With m = len(phi) turning points out of l-1 positions: m = 0 leaves the
    subcomplex empty, m = l-1 makes it the boundary sphere of the full
    simplex (of dimension l-3), and anything in between deformation-retracts
    to a point.
    Only the sphere case has relative homology in positive degrees: one Z in
    relative degree l-2, hence magnitude degree l.
    """
    m = len(phi)
    if m == 0:
        return "empty"
    if m == l - 1:
        return "sphere"
    return "contractible"


def tree_magnitude_closed_form(g, l, k):
    """Whole-tree magnitude homology in closed form, valid for k >= 1.

    Z^(2 * number of edges) when k = l, zero otherwise.
    """
    _require_tree(g)
    if k < 1:
        raise ValueError(f"the closed form covers k >= 1, got k={k}")
    if k == l:
        return HomologyGroup(2 * g.num_edges, ())
    return ZERO_GROUP


def tree_homology_by_pair(g, key, kmax=None):
    """MH_{k,l}(a, b) on a tree for 0 <= k <= kmax via the decomposition.

    Degrees k >= 2 count the sphere-type walk summands (each contributes one
    Z at k = l).  Only a walk that turns at every interior position can be
    one: ``walk[:-2] == walk[2:]`` says x_{i-1} = x_{i+1} for each interior
    i, so m = l-1.  Those walks are kept, and ``classify_delta`` runs once,
    on the first of them; at l <= 1 that walk has no interior and classifies
    as empty.  Degrees 0 and 1 sit outside the decomposition's range and are
    delegated to the direct route.  Requires a tree (GraphError otherwise).
    """
    _require_tree(g)
    if kmax is None:
        kmax = key.l
    out = magnitude_homology_direct(g, key, kmax=min(kmax, 1))
    if kmax < 2:
        return out
    turning = [walk for walk in decompose_tree_component(g, key) if walk[:-2] == walk[2:]]
    if turning and classify_delta(turning_points(turning[0]), key.l) == "sphere":
        spheres = len(turning)
    else:
        spheres = 0
    for k in range(2, kmax + 1):
        if k == key.l and spheres:
            out.append(HomologyGroup(spheres, ()))
        else:
            out.append(ZERO_GROUP)
    return out
