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
"""

from __future__ import annotations

from .graphs import GraphError, enumerate_walks
from .homology import ZERO_GROUP, HomologyGroup
from .magnitude import magnitude_homology_direct
from .simplicial import SimplicialComplex


def _require_tree(g):
    if not g.is_tree():
        raise GraphError("method tree needs a tree input")


def turning_points(walk):
    """Positions where a walk on a tree steps straight back.

    Position i (interior) is a turning point when d(x_{i-1}, x_{i+1}) is
    strictly below d(x_{i-1}, x_i) + d(x_i, x_{i+1}); for a walk on a tree
    this happens exactly when x_{i-1} = x_{i+1}, which is what is tested.
    """
    return tuple(i for i in range(1, len(walk) - 1) if walk[i - 1] == walk[i + 1])


def decompose_tree_component(g, key):
    """The walks indexing the per-walk summands of MC_{*,l}(a, b) on a tree.

    One walk from a to b of length exactly l per summand, in lexicographic
    order; shorter walks carry no sequences of length l and are dropped.
    """
    _require_tree(g)
    a, b, l = key
    out = []
    for walk in enumerate_walks(g, a, b, l):
        if len(walk) - 1 == l:
            out.append(walk)
    return out


def build_delta_pair(phi, l):
    """The full simplex on positions 1..l-1 and its faces missing a turning point.

    ``phi`` is the walk's turning-point tuple.  Returned as the pair (total,
    sub).  The relative basis in degree n is the set of (n+1)-subsets of
    positions containing every turning point; reading those positions from
    the walk and closing with the endpoints is exactly the per-walk
    magnitude basis two degrees up.
    """
    positions = list(range(1, l))
    required = set(phi)
    # with no positions (l <= 1) the full simplex has no nonempty face
    total = SimplicialComplex.from_maximal(positions, [positions] if positions else [])
    sub = SimplicialComplex(positions, [s for s in total if not required <= set(s)])
    return total, sub


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
    Z at k = l); degrees 0 and 1 sit outside the decomposition's range and
    are delegated to the direct route.  Requires a tree (GraphError otherwise).
    """
    _require_tree(g)
    if kmax is None:
        kmax = key.l
    out = magnitude_homology_direct(g, key, kmax=min(kmax, 1))
    if kmax < 2:
        return out
    spheres = sum(
        1
        for walk in decompose_tree_component(g, key)
        if classify_delta(turning_points(walk), key.l) == "sphere"
    )
    for k in range(2, kmax + 1):
        if k == key.l and spheres:
            out.append(HomologyGroup(spheres, ()))
        else:
            out.append(ZERO_GROUP)
    return out
