"""The geometric route to magnitude homology via positioned-subsequence pairs.

For endpoints (a, b) and length l, the complex K_l(a, b) lives on labels
(position, vertex) with positions 1..l-1.  A simplex is any nonempty set of
positioned interior vertices realized by some walk from a to b with at most
l steps.  The subcomplex K'_l(a, b) keeps the simplices whose endpoint-closed
tuple (a, x_{i_1}, ..., x_{i_k}, b) has total length at most l - 1.

Only the relative cells K \\ K' carry chains.  They are enumerated top-down
from the walks of exactly l steps, as tuples of label indices, and the
descent records the relative boundary as it goes: a facet of a cell is a
cell exactly when the triangle through the dropped vertex is tight.
``relative_chain_complex`` assembles the chain complex from that incidence,
so K' is never built as a complex and no simplicial complex object is
constructed on this route.  The simplex sets of labels, the cells and K
itself, are built only when read: by export, by the d(a, b) = l branch of
degree 2, and by tests.

Reading a relative simplex's positioned vertices in position order and
closing with the endpoints is a degree-preserving bijection onto the
magnitude basis two degrees up, under which the relative simplicial boundary
is the negated magnitude boundary.  Homology therefore transports:
MH_{k,l}(a, b) is H_{k-2} of the pair for k >= 3, and for k = 2 it is
H_0 of the pair when d(a, b) < l, or reduced H_0 of the total complex when
d(a, b) = l (the subcomplex is then empty).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add

from .graphs import InternalCheckError, enumerate_walks, refuse_long
from .homology import HomologyGroup, _FrozenValue, _Value, homology_all
from .magnitude import ComponentKey, magnitude_chain_complex, magnitude_homology_direct
from .simplicial import downward_closure, relative_chain_complex


class KPair(_FrozenValue):
    """The pair (K_l(a,b), K'_l(a,b)) of one component key.

    ``labels`` is the label universe in canonical order, and ``walks`` the
    walks from a to b of at most l steps, whose positioned interiors close
    downward to K.  ``incidence`` is the relative boundary in the form
    ``relative_chain_complex`` takes: each cell of K \\ K', a simplex that
    carries relative chains, is written as the increasing tuple of its label
    indices and maps to the (i, facet) pairs of its facets that are cells.
    ``cells``, ``total`` and ``sub`` are simplex sets built on first read,
    each simplex a tuple of (position, vertex) labels in position order.
    """

    def __init__(self, key, labels, walks, incidence):
        self.__dict__.update(key=key, labels=labels, walks=walks, incidence=incidence)

    def _fields(self):
        return (self.key, self.labels, self.walks, frozenset(self.incidence.items()))

    @cached_property
    def cells(self):
        """K \\ K', the incidence's cells decoded to labels."""
        return frozenset(tuple(map(self.labels.__getitem__, cell)) for cell in self.incidence)

    @cached_property
    def total(self):
        """K, built on first read: every nonempty subset of every interior."""
        # no traced function is called here: it would open a span while the
        # benchmark's counter, which reads this, holds the clock
        return downward_closure(map(positioned_interior, self.walks))

    @property
    def sub(self):
        """K' as the simplices of K that are not relative cells."""
        return self.total - self.cells


def positioned_interior(walk):
    """The interior vertices of a walk, each labelled by its step number."""
    return tuple(enumerate(walk[1:-1], 1))


def interior_tuple(key, simplex):
    """The endpoint-closed vertex tuple of a positioned simplex."""
    return (key.a, *[v for _, v in simplex], key.b)


def interior_length(g, key, simplex):
    """Total length of the endpoint-closed tuple of a simplex."""
    closed = interior_tuple(key, simplex)
    return sum(g.distances[x][y] for x, y in zip(closed, closed[1:]))


def build_k_pair(g, key):
    """The relative cells K_l(a,b) \\ K'_l(a,b), their boundary, and the walks K is built from.

    Every walk with at most l steps contributes the downward closure of its
    full positioned interior; the union over walks is K, which the returned
    pair builds from the stored walks only when ``total`` is read.  The
    relative cells are enumerated top-down from the nonempty interiors of
    the walks of exactly l steps, which have interior length l by
    construction.  From a cell of length l, dropping the vertex x_i of the
    closed tuple keeps the length l exactly when the triangle through it is
    tight, d(x_{i-1}, x_{i+1}) = d(x_{i-1}, x_i) + d(x_i, x_{i+1}), since
    the drop replaces those two terms by the first; only such faces are
    generated.  A simplex of K outside K' has interior length l, so every
    walk whose interior holds it has exactly l steps; dropping a vertex
    never lengthens the closed tuple, so every simplex between the two has
    length l as well.  The descent thus reaches every simplex of K outside
    K' and nothing else, and a facet of a relative cell is a cell exactly
    when its triangle is tight: each tight drop it makes is an entry of the
    relative boundary, recorded as it is found.  A pair at distance greater
    than l yields the empty pair.  Labels are (position, vertex), ordered
    by position first and vertex order second, so that simplex orientation
    agrees with position order; the descent writes the label (pos, v) as its
    index (pos - 1) * n + index(v) in that universe, n the vertex count.
    """
    a, b, l = key

    labels = tuple((pos, v) for pos in range(1, l) for v in g.vertices)
    walks = tuple(enumerate_walks(g, a, b, l))
    n, number = len(g.vertices), g.numbering
    # at l <= 1 the interior is empty, and the empty set is no simplex
    steps = range(0, (l - 1) * n, n)
    layer = {tuple(map(add, steps, map(number.__getitem__, walk[1:-1])))
             for walk in walks if len(walk) == l + 1 > 2}

    # distances between vertex numbers, and the vertex number of each label
    dist = g.distance_rows
    vertex = tuple(range(n)) * (l - 1)
    first, last = number[a], number[b]
    # one layer per simplex size, largest first; every cell has length l
    incidence = {}
    while layer:
        faces = set()
        for cell in layer:
            entries = []
            if len(cell) > 1:
                closed = (first, *map(vertex.__getitem__, cell), last)
                for i in range(len(cell)):
                    x, y, z = closed[i:i + 3]
                    row = dist[x]
                    if row[z] == row[y] + dist[y][z]:
                        facet = cell[:i] + cell[i + 1:]
                        entries.append((i, facet))
                        faces.add(facet)
            incidence[cell] = tuple(entries)
        layer = faces
    return KPair(key=key, labels=labels, walks=walks, incidence=incidence)


def chain_map_t(g, key, rel, mag):
    """Identify the relative basis with the magnitude basis two degrees up.

    ``rel`` is the relative complex of the K pair of ``key`` and ``mag`` the
    magnitude complex of ``key`` through degree l + 1.  Checks, degree by
    degree, that closing each relative simplex with the endpoints gives
    exactly the magnitude basis two degrees up: the running sums of the
    steps of each closed tuple, read from the distance table, must equal the
    simplex's positions and end at l; every cell must be found in the basis,
    no index twice, and as many cells as sequences.  Returns
    ``index_by_degree``: ``index_by_degree[n][j]`` is the index in
    ``mag.basis(n + 2)`` of the j-th relative cell of degree n.  Raises
    InternalCheckError on any failure.
    """
    # relative simplices use distinct positions from 1..l-1, so the relative
    # complex tops out at degree l-2 and the magnitude complex at degree l
    dist = g.distances
    index_by_degree = []
    for n in range(max(key.l - 1, 0)):
        mag_basis = mag.basis(n + 2)
        mag_index = dict(zip(mag_basis, range(len(mag_basis))))
        places = []
        for simplex in rel.basis(n):
            seq = interior_tuple(key, simplex)
            ends = list(accumulate([dist[x][y] for x, y in zip(seq, seq[1:])]))
            if ends[-1] != key.l:
                raise InternalCheckError(
                    f"degree {n} relative simplex {simplex!r} of {key} has interior length != l"
                )
            # positions must equal cumulative distances along the sequence
            for (pos, _), end in zip(simplex, ends):
                if pos != end:
                    raise InternalCheckError(
                        f"degree {n} position mismatch in {simplex!r} of {key}: {pos} != {end}"
                    )
            places.append(mag_index.get(seq))
        if None in places or len(set(places)) != len(places) or len(places) != len(mag_basis):
            raise InternalCheckError(
                f"degree {n} basis bijection fails for {key}: "
                f"{len(places)} relative simplices vs {len(mag_basis)} sequences"
            )
        index_by_degree.append(places)
    return index_by_degree


def verify_chain_map(key, rel, mag, index_by_degree):
    """Check the boundary identity: relative d = -(magnitude d) under t.

    ``index_by_degree`` is the basis identification from ``chain_map_t``.
    For every relative degree n >= 1, each relative boundary column has its
    rows carried through the identification one degree down and its signs
    negated, and must then equal the magnitude column at the cell's index.
    Raises InternalCheckError on failure.
    """
    for n in range(1, len(index_by_degree)):
        rows, mag_columns = index_by_degree[n - 1], mag.boundary(n + 2).columns
        for j, column in enumerate(rel.boundary(n).columns):
            target = mag_columns[index_by_degree[n][j]]
            # rows is injective, so equal sizes and matching entries are equality
            if len(target) != len(column) or any(
                target.get(rows[r]) != -x for r, x in column.items()
            ):
                raise InternalCheckError(
                    f"boundary sign identity fails at degree {n}, "
                    f"column of simplex {rel.basis(n)[j]!r} in component {key}"
                )
    return True


def pair_groups(g, kpair, rel, kmax):
    """MH_{k,l}(a, b) for 2 <= k <= kmax, read off the pair's relative complex.

    ``rel`` is the relative complex of ``kpair``; kmax < 2 gives no groups.
    Degrees k >= 3 read H_{k-2} of the pair; k = 2 reads H_0 of the pair when
    d(a, b) < l and reduced H_0 of the total complex when d(a, b) = l.  A
    pair at distance greater than l has no cells and reads zero throughout.
    """
    a, b, l = kpair.key
    groups = homology_all(rel, up_to=kmax - 2)
    if groups and g.distances[a][b] == l:
        # every interior tuple is at least d(a, b) = l long, so K' is empty,
        # the pair's H_0 is H_0 of K, and reduced H_0 drops one Z; K' is
        # empty exactly when the cells are all of K, and this is the only
        # place where computing a table builds K
        if kpair.total != kpair.cells:
            raise InternalCheckError(f"K' of {kpair.key} is not empty although d(a, b) = l")
        groups[0] = HomologyGroup(max(groups[0].betti - 1, 0))
    return groups


def magnitude_homology_geometric(g, key, kmax=None):
    """MH_{k,l}(a, b) for 0 <= k <= kmax via the relative pair.

    Degrees k >= 3 read H_{k-2} of the pair; k = 2 uses H_0 of the pair when
    d(a, b) < l and reduced H_0 of the total complex when d(a, b) = l;
    degrees 0 and 1 are delegated to the direct route (their chain groups
    are at most one-dimensional).
    """
    if kmax is None:
        kmax = key.l
    out = magnitude_homology_direct(g, key, kmax=min(1, kmax))
    if kmax < 2:
        return out
    kpair = build_k_pair(g, key)
    rel = relative_chain_complex(kpair.labels, kpair.incidence)
    return out + pair_groups(g, kpair, rel, kmax)


# -- cross-validation ---------------------------------------------------------


class Mismatch(_FrozenValue):
    """The first disagreement of a cross-validation: both groups in degree k."""

    def __init__(self, key, k, direct, geometric):
        self.__dict__.update(key=key, k=k, direct=direct, geometric=geometric)

    def _fields(self):
        return (self.key, self.k, self.direct, self.geometric)

    def describe(self):
        return (
            f"component (a={self.key.a}, b={self.key.b}, l={self.key.l}), degree {self.k}: "
            f"direct {self.direct.describe()} vs geometric {self.geometric.describe()}"
        )


class CrossValidationReport(_Value):
    """What ``cross_validate`` checked at one l, and its first mismatch."""

    def __init__(self, l, pairs_checked=0, chain_checks=0, mismatch=None):
        self.l = l
        self.pairs_checked = pairs_checked
        self.chain_checks = chain_checks
        self.mismatch = mismatch

    def _fields(self):
        return (self.l, self.pairs_checked, self.chain_checks, self.mismatch)

    @property
    def ok(self):
        return self.mismatch is None

    def describe(self):
        if self.ok:
            return (
                f"l={self.l}: {self.pairs_checked} components agree "
                f"({self.chain_checks} chain-level identities checked)"
            )
        return f"l={self.l}: MISMATCH at {self.mismatch.describe()}"


def cross_validate(g, l):
    """Compare the direct and geometric routes on every component of a graph.

    Checks betti and torsion for all ordered pairs (a, b) and all degrees
    2 <= k <= l, then the chain-level basis bijection and boundary sign
    identity.  Each component's magnitude complex, K pair and relative
    complex are built once and serve both checks.  Stops at the first
    mismatch and reports it.  Internal invariant failures raise
    InternalCheckError instead of being reported as mismatches.  An l past
    the recursion limit raises GraphError before any work.
    """
    refuse_long(f"{g!r} l={l}", l)
    report = CrossValidationReport(l=l)
    for a in g.vertices:
        for b in g.vertices:
            key = ComponentKey(a, b, l)
            # one degree above l, so that H_l sees its incoming boundary and
            # the chain check sees the magnitude basis up to degree l
            mag = magnitude_chain_complex(g, key, l + 1)
            direct = homology_all(mag, up_to=l)
            kpair = build_k_pair(g, key)
            rel = relative_chain_complex(kpair.labels, kpair.incidence)
            geometric = pair_groups(g, kpair, rel, l)
            report.pairs_checked += 1
            for k in range(2, l + 1):
                if direct[k] != geometric[k - 2]:
                    report.mismatch = Mismatch(key, k, direct[k], geometric[k - 2])
                    return report
            # only a pair within distance l has cells to identify, so only
            # such a pair counts as a chain check
            if g.distances[a][b] <= l:
                verify_chain_map(key, rel, mag, chain_map_t(g, key, rel, mag))
                report.chain_checks += 1
    return report
