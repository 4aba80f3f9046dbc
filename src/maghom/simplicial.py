"""Simplicial complexes on ordered label universes and their chain complexes.

A simplex is stored as a tuple of labels sorted by the universe order, and
that order also fixes the orientation signs of the boundary operator.  The
complexes here are abstract: labels can be graph vertices, integers, or
(position, vertex) pairs.
"""

from __future__ import annotations

from itertools import combinations

from .homology import IntegerMatrix


class SimplicialComplex:
    """A finite abstract simplicial complex with an explicit simplex set.

    The simplex set must be downward closed; construction verifies this and
    rejects unknown labels, repeated labels inside a simplex, and the empty
    simplex.
    """

    __slots__ = ("labels", "_index", "_simplices", "_by_dim")

    def __init__(self, labels, simplices):
        self.labels = tuple(labels)
        self._index = {}
        for lab in self.labels:
            if lab in self._index:
                raise ValueError(f"duplicate label in universe: {lab!r}")
            self._index[lab] = len(self._index)

        normalized = set()
        for s in simplices:
            simplex = self._normalize(s)
            normalized.add(simplex)
        for simplex in normalized:
            if len(simplex) > 1:
                for i in range(len(simplex)):
                    facet = simplex[:i] + simplex[i + 1:]
                    if facet not in normalized:
                        raise ValueError(
                            f"not downward closed: {simplex!r} present, facet {facet!r} missing"
                        )
        self._simplices = frozenset(normalized)
        self._by_dim = {}
        for simplex in self._simplices:
            self._by_dim.setdefault(len(simplex) - 1, []).append(simplex)
        for group in self._by_dim.values():
            group.sort(key=self._sort_key)

    def _normalize(self, s):
        items = tuple(s)
        if not items:
            raise ValueError("the empty simplex is not allowed")
        for lab in items:
            if lab not in self._index:
                raise ValueError(f"unknown label in simplex: {lab!r}")
        if len(set(items)) != len(items):
            raise ValueError(f"repeated label in simplex: {items!r}")
        return tuple(sorted(items, key=self._index.__getitem__))

    def _sort_key(self, simplex):
        return tuple(self._index[lab] for lab in simplex)

    @classmethod
    def from_maximal(cls, labels, maximal):
        """Build the downward closure of the given simplices."""
        closure = set()
        probe = cls(labels, [])
        for s in maximal:
            simplex = probe._normalize(s)
            for r in range(1, len(simplex) + 1):
                closure.update(combinations(simplex, r))
        return cls(labels, closure)

    # -- queries -----------------------------------------------------------

    def __contains__(self, s):
        try:
            return self._normalize(s) in self._simplices
        except ValueError:
            return False

    def __len__(self):
        return len(self._simplices)

    def __iter__(self):
        for n in sorted(self._by_dim):
            yield from self._by_dim[n]

    @property
    def dim(self):
        return max(self._by_dim, default=-1)

    def simplices_of_dim(self, n):
        """Simplices of dimension n in canonical (index-tuple) order."""
        return list(self._by_dim.get(n, []))

    def vertex_labels(self):
        return [s[0] for s in self.simplices_of_dim(0)]

    def maximal_simplices(self):
        """Simplices not contained in any larger simplex, canonical order."""
        out = []
        for n in sorted(self._by_dim, reverse=True):
            for simplex in self._by_dim[n]:
                fs = set(simplex)
                if not any(fs < set(other) for other in out):
                    out.append(simplex)
        return sorted(out, key=lambda s: (len(s), self._sort_key(s)))

    def component_count(self):
        """Number of connected components (union-find over edges)."""
        parent = {v: v for v in self.vertex_labels()}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.simplices_of_dim(1):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in parent})

    def is_subcomplex_of(self, other):
        return all(s in other for s in self._simplices)

    def __repr__(self):
        return f"SimplicialComplex(dim {self.dim}, {len(self)} simplices)"


class SimplicialPair:
    """A complex together with a subcomplex, for relative chain complexes."""

    __slots__ = ("total", "sub")

    def __init__(self, total, sub):
        for s in sub:
            if s not in total:
                raise ValueError(f"subcomplex simplex missing from total complex: {s!r}")
        self.total = total
        self.sub = sub

    def relative_simplices(self, n):
        return [s for s in self.total.simplices_of_dim(n) if s not in self.sub]

    def __repr__(self):
        return f"SimplicialPair(total {len(self.total)}, sub {len(self.sub)})"


class IntegerChainComplex:
    """A nonnegatively graded chain complex of free Z-modules.

    ``bases[n]`` lists the degree-n basis labels; ``boundaries[n]`` is the
    matrix of d_n : C_n -> C_{n-1} (a 0 x dim_0 matrix at degree 0).  Degrees
    beyond the stored top are zero.
    """

    __slots__ = ("bases", "boundaries")

    def __init__(self, bases, boundaries):
        self.bases = [list(b) for b in bases]
        self.boundaries = list(boundaries)
        if len(self.bases) != len(self.boundaries):
            raise ValueError("need one boundary matrix per degree")
        for n, mat in enumerate(self.boundaries):
            expect_rows = len(self.bases[n - 1]) if n > 0 else 0
            if mat.rows != expect_rows or mat.cols != len(self.bases[n]):
                raise ValueError(
                    f"boundary {n} has shape {mat.rows}x{mat.cols}, "
                    f"expected {expect_rows}x{len(self.bases[n])}"
                )

    @property
    def top_degree(self):
        return len(self.bases) - 1

    def dim(self, n):
        if 0 <= n <= self.top_degree:
            return len(self.bases[n])
        return 0

    def basis(self, n):
        if 0 <= n <= self.top_degree:
            return list(self.bases[n])
        return []

    def boundary(self, n):
        """The matrix of d_n, a correctly shaped zero matrix beyond the top."""
        if 0 <= n <= self.top_degree:
            return self.boundaries[n]
        return IntegerMatrix.zeros(self.dim(n - 1), self.dim(n))

    def verify_boundary_identity(self):
        """Check d_n . d_{n+1} = 0 in every degree; raises on failure."""
        for n in range(1, self.top_degree + 1):
            product = self.boundary(n) @ self.boundary(n + 1)
            if not product.is_zero():
                raise ValueError(f"boundary identity fails between degrees {n + 1} and {n}")
        return True

    def euler_characteristic(self):
        return sum((-1) ** n * self.dim(n) for n in range(self.top_degree + 1))

    def __repr__(self):
        dims = [self.dim(n) for n in range(self.top_degree + 1)]
        return f"IntegerChainComplex(dims {dims})"


def _boundary_matrix(bases_prev, basis_cur, index, dropped=None):
    """Alternating-sign face matrix; faces in ``dropped`` are omitted."""
    rows = len(bases_prev)
    cols = len(basis_cur)
    data = [[0] * cols for _ in range(rows)]
    for j, simplex in enumerate(basis_cur):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            if dropped is not None and face in dropped:
                continue
            data[index[face]][j] += (-1) ** i
    return IntegerMatrix(data, cols=cols)


def chain_complex(complex_):
    """The simplicial chain complex of a complex, with integer coefficients.

    Degree-n basis: the n-simplices in canonical order.  The boundary of a
    simplex is the alternating sum of its facets, with sign (-1)^i for
    dropping the i-th smallest label.
    """
    top = complex_.dim
    if top < 0:
        return IntegerChainComplex([[]], [IntegerMatrix.zeros(0, 0)])
    bases = [complex_.simplices_of_dim(n) for n in range(top + 1)]
    boundaries = [IntegerMatrix.zeros(0, len(bases[0]))]
    for n in range(1, top + 1):
        index = {s: i for i, s in enumerate(bases[n - 1])}
        boundaries.append(_boundary_matrix(bases[n - 1], bases[n], index))
    return IntegerChainComplex(bases, boundaries)


def relative_chain_complex(pair):
    """The chain complex of a pair: quotient by the subcomplex.

    Degree-n basis: simplices of the total complex not in the subcomplex.
    Boundary faces that land in the subcomplex are dropped.
    """
    top = pair.total.dim
    bases = [pair.relative_simplices(n) for n in range(top + 1)]
    while bases and not bases[-1]:
        bases.pop()
    if not bases:
        return IntegerChainComplex([[]], [IntegerMatrix.zeros(0, 0)])
    sub = pair.sub
    dropped = frozenset(s for s in sub)
    boundaries = [IntegerMatrix.zeros(0, len(bases[0]))]
    for n in range(1, len(bases)):
        index = {s: i for i, s in enumerate(bases[n - 1])}
        boundaries.append(_boundary_matrix(bases[n - 1], bases[n], index, dropped))
    return IntegerChainComplex(bases, boundaries)


# -- export formats ----------------------------------------------------------


def _label_to_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label


def complex_to_dict(complex_, annotate=None, include_all=True):
    """Structured form of a complex for serialization.

    ``annotate`` maps a simplex to a dict of extra fields merged into its
    record in the full simplex list.
    """
    doc = {
        "format_version": 1,
        "label_universe": [_label_to_json(lab) for lab in complex_.labels],
        "dim": complex_.dim,
        "maximal_simplices": [
            [_label_to_json(lab) for lab in s] for s in complex_.maximal_simplices()
        ],
    }
    if include_all:
        records = []
        for s in complex_:
            record = {"labels": [_label_to_json(lab) for lab in s]}
            if annotate is not None:
                record.update(annotate(s))
            records.append(record)
        doc["simplices"] = records
    return doc


def _layout_coordinate(label, layer_of):
    # Layered layout: positioned labels use their position as the x axis
    # and the vertex layer as y; bare integers sit on the x axis.
    if isinstance(label, tuple) and len(label) == 2 and isinstance(label[0], int):
        return (float(label[0]), float(layer_of.get(label[1], 0)), 0.0)
    if isinstance(label, int):
        return (float(label), 0.0, 0.0)
    return (float(layer_of.get(label, 0)), 0.0, 0.0)


def complex_to_off(complex_):
    """Render a complex of dimension <= 3 in OFF format.

    Vertices get synthetic coordinates from the layered layout.  The face
    list contains every triangle plus any maximal edge or vertex, so that
    nothing silently disappears from the rendering.
    """
    if complex_.dim > 3:
        raise ValueError(f"OFF export supports dimension <= 3, got {complex_.dim}")
    verts = complex_.vertex_labels()
    vertex_line = {lab: i for i, lab in enumerate(verts)}

    seen_layers = []
    for lab in verts:
        key = lab[1] if isinstance(lab, tuple) and len(lab) == 2 else lab
        if key not in seen_layers:
            seen_layers.append(key)
    layer_of = {key: i for i, key in enumerate(seen_layers)}

    faces = [s for s in complex_.simplices_of_dim(2)]
    faces.extend(s for s in complex_.maximal_simplices() if len(s) <= 2)
    edge_count = len(complex_.simplices_of_dim(1))

    lines = ["OFF", f"{len(verts)} {len(faces)} {edge_count}"]
    for lab in verts:
        x, y, z = _layout_coordinate(lab, layer_of)
        lines.append(f"{x:g} {y:g} {z:g}  # {lab!r}")
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(vertex_line[lab]) for lab in s]))
    return "\n".join(lines) + "\n"
