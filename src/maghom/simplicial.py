"""Simplicial complexes on ordered label universes and their chain complexes.

A simplex is stored as a tuple of labels sorted by the universe order, and
that order also fixes the orientation signs of the boundary operator.
``relative_chain_complex`` takes the cells of a pair, written as increasing
tuples of label indices, with their boundary columns already numbered, and
stacks them.  The complexes here are abstract: labels can be graph
vertices, integers, or (position, vertex) pairs.
"""

from __future__ import annotations

from itertools import combinations

from .homology import IntegerChainComplex, IntegerMatrix


def downward_closure(simplices):
    """Every nonempty face of the given simplices, each in its simplex's label order."""
    return frozenset(face for simplex in simplices for size in range(1, len(simplex) + 1)
                     for face in combinations(simplex, size))


class SimplicialComplex:
    """A finite abstract simplicial complex with an explicit simplex set.

    Simplices are given as labels in any order, and the set must be
    downward closed.  Construction verifies this and raises ValueError on
    an empty simplex and on an unknown or repeated label.
    """

    __slots__ = ("labels", "_by_dim")

    def __init__(self, labels, simplices):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label in universe")
        index = {lab: i for i, lab in enumerate(self.labels)}

        def encode(simplex):
            try:
                cell = tuple(sorted(map(index.__getitem__, simplex)))
            except KeyError as exc:
                raise ValueError(f"unknown label in simplex: {exc.args[0]!r}") from None
            if not cell:
                raise ValueError("the empty simplex is not allowed")
            if len(set(cell)) != len(cell):
                raise ValueError(f"repeated label in simplex: {tuple(simplex)!r}")
            return cell

        # a simplex may be given more than once, in any label order
        cells = sorted(set(map(encode, simplices)))
        self._by_dim = [[] for _ in range(max(map(len, cells), default=0))]
        for cell in cells:
            self._by_dim[len(cell) - 1].append(tuple(map(self.labels.__getitem__, cell)))
        for lower, upper in zip(self._by_dim, self._by_dim[1:]):
            present = set(lower)
            for simplex in upper:
                for i in range(len(simplex)):
                    facet = simplex[:i] + simplex[i + 1:]
                    if facet not in present:
                        raise ValueError(
                            f"not downward closed: {simplex!r} present, facet {facet!r} missing"
                        )

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


def relative_chain_complex(incidence):
    """The relative chain complex of a pair (K, K'), stacked from its layers.

    ``incidence`` holds one layer per degree, top degree first, down to the
    lowest degree that has cells.  A layer maps each cell, a simplex of K
    not in K' written as the increasing tuple of its label indices, to its
    boundary column {number of a facet in the next layer: (-1)^i}, the
    facet cell[:i] + cell[i + 1:]; the facets it omits lie in K'.  Each
    layer's order is its degree's basis order, and the degrees below the
    last layer are empty.
    """
    # no cells still make one degree, with an empty basis
    top = len(next(iter(incidence[0]))) - 1 if incidence else 0
    layers = [{}] * (top + 1 - len(incidence)) + incidence[::-1]
    boundaries = [IntegerMatrix(len(below), len(layer), layer.values())
                  for below, layer in zip([{}] + layers, layers)]
    return IntegerChainComplex(layers, boundaries)
