"""The geometric route to magnitude homology via positioned-subsequence pairs.

For endpoints (a, b) and length l, the complex K_l(a, b) lives on labels
(position, vertex) with positions 1..l-1.  A simplex is any nonempty set of
positioned interior vertices realized by some walk from a to b with at most
l steps.  The subcomplex K'_l(a, b) keeps the simplices whose endpoint-closed
tuple (a, x_{i_1}, ..., x_{i_k}, b) has total length at most l - 1.

Only the relative cells K \\ K' carry chains, and each is written closed by
the endpoint labels (0, a) first and (l, b) last.  A cell is then a
magnitude tuple with its positions attached: its vertices in position order
are a sequence of the magnitude basis in the same degree, and the relative
boundary, (-1)^i times the facet without the i-th label, is the magnitude
boundary.  The empty interior gives the cell ((0, a), (l, b)), which is a
cell exactly when d(a, b) = l, that is when K' is empty; at l = 0 and
a = b the one label (0, a) is the degree-0 cell.  With these augmented
chains MH_{k,l}(a, b) = H~_{k-2}(K, K') for every k >= 2, and the one
relative complex gives every degree 0..l.

The cells are enumerated top-down from the walks of exactly l steps, as
tuples of label indices, and the descent writes the relative boundary as
it goes: a facet of a cell is a cell exactly when the triangle through the
dropped vertex is tight, and the descent numbers each such facet in the
layer below the first time it reaches it.  Each cell's column is then
ready, and ``relative_chain_complex`` only stacks the layers, so K' is
never built and no simplicial complex object is constructed on this route.
Labels are decoded, and K built, only where they are read: by the chain
check, ``maghom export`` (which takes K' by its definition, see
``maghom.export``) and tests.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add

from .graphs import InternalCheckError, enumerate_walks, refuse_long
from .homology import _FrozenValue, _Value, homology_all
from .magnitude import ComponentKey, magnitude_chain_complex
from .simplicial import downward_closure, relative_chain_complex


class KPair(_FrozenValue):
    """The pair (K_l(a,b), K'_l(a,b)) of one component key.

    ``labels`` is the label universe in canonical order: (0, a), the
    interior labels (pos, v) for 1 <= pos <= l - 1, by position first and
    vertex order second, and (l, b), so that a cell's orientation agrees
    with position order; the one label (0, a) when l = 0 and a = b.
    ``walks``, from a to b with at most l steps, close downward to K by
    their positioned interiors.  ``incidence``, the layers that
    ``relative_chain_complex`` stacks, holds one dict per degree of
    K \\ K', top degree first, from each cell, the increasing tuple of its
    label indices endpoints included, to its boundary column
    {number of the facet cell[:i] + cell[i + 1:] in the next layer: (-1)^i}
    over the facets that are cells; a layer's order is its basis order.
    ``total`` is K, built on first read: a set of simplices on the interior
    labels alone, each a tuple of labels in position order.
    """

    def __init__(self, key, labels, walks, incidence):
        self.__dict__.update(key=key, labels=labels, walks=walks, incidence=incidence)

    def _fields(self):
        layers = tuple(tuple((cell, frozenset(column.items())) for cell, column in layer.items())
                       for layer in self.incidence)
        return (self.key, self.labels, self.walks, layers)

    @cached_property
    def total(self):
        """K, built on first read: every nonempty subset of every interior."""
        # no traced function is called here: it would open a span while the
        # benchmark's counter, which reads this, holds the clock
        return downward_closure(map(positioned_interior, self.walks))


def positioned_interior(walk):
    """The interior vertices of a walk, each labelled by its step number."""
    return tuple(enumerate(walk[1:-1], 1))


def build_k_pair(g, key):
    """The relative cells K_l(a,b) \\ K'_l(a,b), their boundary, and the walks K is built from.

    Every walk with at most l steps contributes the downward closure of its
    full positioned interior; the union over walks is K, which the returned
    pair builds from the stored walks only when ``total`` is read.  The
    relative cells, closed by the endpoint labels, are enumerated top-down
    from the walks of exactly l steps, which have length l by construction.
    From a cell of length l, dropping an interior vertex x_i keeps the
    length l exactly when the triangle through it is tight,
    d(x_{i-1}, x_{i+1}) = d(x_{i-1}, x_i) + d(x_i, x_{i+1}), since the drop
    replaces those two terms by the first; only such faces are generated.
    A simplex of K outside K' has closed length l, so every walk whose
    interior holds it has exactly l steps; dropping a vertex never lengthens
    the closed tuple, so every simplex between the two has length l as
    well.  The descent thus reaches every cell and nothing else, the empty
    interior ((0, a), (l, b)) included exactly when d(a, b) = l, and a
    facet of a cell is a cell exactly when its triangle is tight: each
    tight drop at position i is the entry (-1)^i of the cell's column, at
    the facet's number in the layer below, which the first cell to reach
    the facet gives it.  A pair at distance greater than l yields no
    cells.  The descent writes (0, a) as index 0, the interior label
    (pos, v) as 1 + (pos - 1) * n + number(v), n the vertex count, and
    (l, b) as the last index.
    """
    a, b, l = key

    interior = tuple((pos, v) for pos in range(1, l) for v in g.vertices)
    labels = ((0, a),) if l == 0 and a == b else ((0, a), *interior, (l, b))
    walks = tuple(enumerate_walks(g, a, b, l))
    n, number, last = len(g.vertices), g.numbering, len(labels) - 1
    steps = range(1, (l - 1) * n + 1, n)
    # a cell has one label per vertex of its walk, which cuts the cell of
    # the zero-step walk (a,) to the index 0
    layer = dict.fromkeys(
        (0, *map(add, steps, map(number.__getitem__, walk[1:-1])), last)[:len(walk)]
        for walk in walks if len(walk) == l + 1)

    # distances between vertex numbers, and the vertex number of each label
    dist = g.distance_rows
    vertex = tuple(number[v] for _, v in labels)
    # one layer per cell size, largest first; every cell has length l
    incidence = []
    while layer:
        faces = {}
        for cell in layer:
            column = layer[cell] = {}
            if len(cell) > 2:
                # the triangle (x, y, z) slides along the cell, y the label
                # that the drop at i removes
                x, y = vertex[cell[0]], vertex[cell[1]]
                for i in range(1, len(cell) - 1):
                    z = vertex[cell[i + 1]]
                    row = dist[x]
                    if row[z] == row[y] + dist[y][z]:
                        facet = faces.setdefault(cell[:i] + cell[i + 1:], len(faces))
                        column[facet] = -1 if i & 1 else 1
                    x, y = y, z
        incidence.append(layer)
        layer = faces
    return KPair(key=key, labels=labels, walks=walks, incidence=incidence)


def chain_map_t(g, kpair, rel, mag):
    """Identify the relative basis with the magnitude basis, degree by degree.

    ``rel`` is the relative complex of ``kpair`` and ``mag`` the magnitude
    complex of its key through degree l + 1.  Checks, degree by degree,
    that each relative cell, decoded through ``kpair.labels``, gives by its
    vertices in position order exactly the magnitude basis of the same
    degree: the running sums of the steps of each tuple from 0, read from
    the distance table, must equal the cell's positions and end at l; every
    cell must be found in the basis, no index twice, and as many cells as
    sequences.  Returns ``index_by_degree``: ``index_by_degree[n][j]`` is
    the index in ``mag.basis(n)`` of the j-th relative cell of degree n.
    Raises InternalCheckError on any failure.
    """
    # a cell's positions are distinct in 0..l, so both complexes top out at
    # degree l; a relative degree above it must be as empty as the magnitude one
    key, labels, dist = kpair.key, kpair.labels, g.distances
    index_by_degree = []
    for n in range(max(rel.top_degree, key.l) + 1):
        mag_basis = mag.basis(n)
        mag_index = dict(zip(mag_basis, range(len(mag_basis))))
        places = []
        for cell in rel.basis(n):
            cell = tuple(map(labels.__getitem__, cell))
            positions, seq = zip(*cell)
            ends = tuple(accumulate([dist[x][y] for x, y in zip(seq, seq[1:])], initial=0))
            if ends[-1] != key.l:
                raise InternalCheckError(
                    f"degree {n} relative cell {cell!r} of {key} has interior length != l"
                )
            if positions != ends:
                pos, end = next(pair for pair in zip(positions, ends) if pair[0] != pair[1])
                raise InternalCheckError(
                    f"degree {n} position mismatch in {cell!r} of {key}: {pos} != {end}"
                )
            places.append(mag_index.get(seq))
        if None in places or len(set(places)) != len(places) or len(places) != len(mag_basis):
            raise InternalCheckError(
                f"degree {n} basis bijection fails for {key}: "
                f"{len(places)} relative cells vs {len(mag_basis)} sequences"
            )
        index_by_degree.append(places)
    return index_by_degree


def verify_chain_map(kpair, rel, mag, index_by_degree):
    """Check the boundary identity: relative d = magnitude d under t.

    ``index_by_degree`` is ``chain_map_t``'s identification for ``kpair``.
    For every degree n >= 1, each relative boundary column has its rows
    carried through the identification one degree down, and must then
    equal the magnitude column at the cell's index, signs included.  Raises
    InternalCheckError on failure.
    """
    for n in range(1, len(index_by_degree)):
        rows, mag_columns = index_by_degree[n - 1], mag.boundary(n).columns
        for j, column in enumerate(rel.boundary(n).columns):
            target = mag_columns[index_by_degree[n][j]]
            # rows is injective, so equal sizes and matching entries are equality
            if len(target) != len(column) or any(
                target.get(rows[r]) != x for r, x in column.items()
            ):
                cell = tuple(map(kpair.labels.__getitem__, rel.basis(n)[j]))
                raise InternalCheckError(
                    f"boundary identity fails at degree {n}, "
                    f"column of cell {cell!r} in component {kpair.key}"
                )
    return True


def magnitude_homology_geometric(g, key, kmax=None):
    """MH_{k,l}(a, b) for 0 <= k <= kmax, the homology of the pair's relative complex.

    kmax defaults to l.  The closed cells and their boundary are the
    magnitude complex with positions attached (see ``chain_map_t``), so the
    relative complex gives every degree; the degrees above l have no cells
    and read zero.
    """
    if kmax is None:
        kmax = key.l
    # no name holds the K pair, so its walks and incidence are freed before homology runs
    return homology_all(relative_chain_complex(build_k_pair(g, key).incidence), up_to=kmax)


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
    0 <= k <= l, then the chain-level basis bijection and boundary
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
            # the chain check reads every column, so each boundary is built
            # whole once and kept, and homology reads the kept matrices
            for n in range(l + 2):
                mag.boundary(n)
            direct = homology_all(mag, up_to=l)
            kpair = build_k_pair(g, key)
            rel = relative_chain_complex(kpair.incidence)
            geometric = homology_all(rel, up_to=l)
            report.pairs_checked += 1
            for k in range(l + 1):
                if direct[k] != geometric[k]:
                    report.mismatch = Mismatch(key, k, direct[k], geometric[k])
                    return report
            # only a pair within distance l has cells to identify, so only
            # such a pair counts as a chain check
            if g.distances[a][b] <= l:
                verify_chain_map(kpair, rel, mag, chain_map_t(g, kpair, rel, mag))
                report.chain_checks += 1
    return report
