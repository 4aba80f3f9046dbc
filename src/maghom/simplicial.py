"""Simplicial complexes on ordered label universes and their chain complexes.

A simplex is stored as a tuple of labels sorted by the universe order, and
that order also fixes the orientation signs of the boundary operator.  One
normal form, ``_normal_form``, validates and sorts the simplices for both
``SimplicialComplex`` and ``relative_chain_complex``.  The complexes here
are abstract: labels can be graph vertices, integers, or (position, vertex)
pairs; the OFF writer takes (position, vertex) labels only.
"""

from __future__ import annotations

from itertools import combinations

from .homology import IntegerChainComplex, IntegerMatrix


def _normal_form(labels, simplices):
    """The simplices by dimension: entry n lists those with n + 1 labels.

    ``labels`` is the label universe in canonical order.  Each simplex is
    sorted by the universe order and each entry by the tuples of label
    positions; entries run from dimension 0 to the top, so there are none
    for no simplices.  Raises ValueError on a repeated universe label, and
    on a simplex with an unknown label, a repeated label or no label at all.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate label in universe")
    by_dim = {}
    for cell in simplices:
        try:
            order = tuple(sorted(map(index.__getitem__, cell)))
        except KeyError as exc:
            raise ValueError(f"unknown label in simplex: {exc.args[0]!r}") from None
        if not order:
            raise ValueError("the empty simplex is not allowed")
        if len(set(order)) != len(order):
            raise ValueError(f"repeated label in simplex: {tuple(cell)!r}")
        by_dim.setdefault(len(order) - 1, set()).add(order)
    return [
        [tuple(labels[i] for i in order) for order in sorted(by_dim.get(n, ()))]
        for n in range(max(by_dim, default=-1) + 1)
    ]


class SimplicialComplex:
    """A finite abstract simplicial complex with an explicit simplex set.

    The simplex set must be downward closed; construction verifies this and
    rejects what ``_normal_form`` rejects.
    """

    __slots__ = ("labels", "_by_dim")

    def __init__(self, labels, simplices):
        self.labels = tuple(labels)
        self._by_dim = _normal_form(self.labels, simplices)
        for lower, upper in zip(self._by_dim, self._by_dim[1:]):
            present = set(lower)
            for simplex in upper:
                for i in range(len(simplex)):
                    facet = simplex[:i] + simplex[i + 1:]
                    if facet not in present:
                        raise ValueError(
                            f"not downward closed: {simplex!r} present, facet {facet!r} missing"
                        )

    @classmethod
    def from_maximal(cls, labels, maximal):
        """Build the downward closure of the given simplices."""
        closure = set()
        for group in _normal_form(labels, maximal):
            for simplex in group:
                for r in range(1, len(simplex) + 1):
                    closure.update(combinations(simplex, r))
        return cls(labels, closure)

    # -- queries -----------------------------------------------------------

    def __iter__(self):
        for group in self._by_dim:
            yield from group

    @property
    def dim(self):
        return len(self._by_dim) - 1

    def simplices_of_dim(self, n):
        """Simplices of dimension n in canonical (index-tuple) order."""
        return list(self._by_dim[n]) if 0 <= n <= self.dim else []

    def maximal_simplices(self):
        """Simplices not contained in any larger simplex, canonical order.

        The complex is downward closed, so a simplex lies in a larger one
        exactly when it is a facet of a simplex one dimension up.
        """
        out = []
        for lower, upper in zip(self._by_dim, self._by_dim[1:] + [[]]):
            facets = {s[:i] + s[i + 1:] for s in upper for i in range(len(s))}
            out.extend(s for s in lower if s not in facets)
        return out

    def __repr__(self):
        return f"SimplicialComplex(dim {self.dim}, {sum(map(len, self._by_dim))} simplices)"


def _boundary_matrix(basis_prev, basis_cur):
    """Alternating-sign face matrix; faces outside ``basis_prev`` are dropped."""
    # the labels of a simplex are distinct, so are its facets: no row repeats
    index = {s: i for i, s in enumerate(basis_prev)}
    columns = []
    for simplex in basis_cur:
        column = {}
        for i in range(len(simplex)):
            row = index.get(simplex[:i] + simplex[i + 1:])
            if row is not None:
                column[row] = (-1) ** i
        columns.append(column)
    return IntegerMatrix(len(basis_prev), len(basis_cur), columns)


def relative_chain_complex(labels, cells):
    """The relative chain complex spanned by the cells of a pair (K, K').

    ``labels`` is the label universe in canonical order and ``cells`` the
    simplices of K not in K'.  Degree-n basis: the cells with n + 1 labels,
    each sorted by the universe order, in canonical order.  The boundary of
    a cell is the alternating sum of its facets, with sign (-1)^i for
    dropping the i-th smallest label; facets that are not cells lie in K'
    and are dropped.  Raises ValueError where ``_normal_form`` does.
    """
    bases = _normal_form(labels, cells) or [[]]
    boundaries = [IntegerMatrix(0, len(bases[0]))]
    for n in range(1, len(bases)):
        boundaries.append(_boundary_matrix(bases[n - 1], bases[n]))
    return IntegerChainComplex(bases, boundaries)


# -- export formats ----------------------------------------------------------


def _label_to_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label


def complex_to_dict(complex_, annotate=None):
    """Structured form of a complex for serialization.

    With ``annotate``, a function from a simplex to a dict of extra fields,
    the form also lists every simplex, each record carrying those fields.
    """
    doc = {
        "format_version": 1,
        "label_universe": [_label_to_json(lab) for lab in complex_.labels],
        "dim": complex_.dim,
        "maximal_simplices": [
            [_label_to_json(lab) for lab in s] for s in complex_.maximal_simplices()
        ],
    }
    if annotate is not None:
        records = []
        for s in complex_:
            record = {"labels": [_label_to_json(lab) for lab in s]}
            record.update(annotate(s))
            records.append(record)
        doc["simplices"] = records
    return doc


def complex_to_off(complex_):
    """Render a complex of dimension <= 3 on (position, vertex) labels in OFF format.

    Each vertex is drawn at x = its position and y = the rank of its vertex
    among the vertices in first-appearance order.  The face list contains
    every triangle plus any maximal edge or vertex, so that nothing silently
    disappears from the rendering.
    """
    if complex_.dim > 3:
        raise ValueError(f"OFF export supports dimension <= 3, got {complex_.dim}")
    verts = [s[0] for s in complex_.simplices_of_dim(0)]
    vertex_line = {lab: i for i, lab in enumerate(verts)}

    seen_layers = []
    for _, v in verts:
        if v not in seen_layers:
            seen_layers.append(v)
    layer_of = {v: i for i, v in enumerate(seen_layers)}

    faces = [s for s in complex_.simplices_of_dim(2)]
    faces.extend(s for s in complex_.maximal_simplices() if len(s) <= 2)
    edge_count = len(complex_.simplices_of_dim(1))

    lines = ["OFF", f"{len(verts)} {len(faces)} {edge_count}"]
    for lab in verts:
        pos, v = lab
        lines.append(f"{pos:g} {layer_of[v]:g} 0  # {lab!r}")
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(vertex_line[lab]) for lab in s]))
    return "\n".join(lines) + "\n"
