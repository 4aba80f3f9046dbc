"""Simplicial complexes on ordered label universes and their chain complexes.

A simplex is stored as a tuple of labels sorted by the universe order, and
that order also fixes the orientation signs of the boundary operator.
``_cells_by_degree`` validates cells written as increasing tuples of label
indices: ``SimplicialComplex`` encodes its simplices so, and
``relative_chain_complex`` takes its cells so and keeps them as its bases.
The complexes here are abstract: labels can be graph vertices, integers,
or (position, vertex) pairs.
"""

from __future__ import annotations

from itertools import combinations
from operator import lt

from .homology import IntegerChainComplex, IntegerMatrix


def downward_closure(simplices):
    """Every nonempty face of the given simplices, each in its simplex's label order."""
    return frozenset(face for simplex in simplices for size in range(1, len(simplex) + 1)
                     for face in combinations(simplex, size))


def _cells_by_degree(cells):
    """The index-coded cells by degree: entry n lists those with n + 1 indices.

    Each entry is sorted, a cell given twice listed twice; entries run from
    degree 0 to the top, so there are none for no cells.  Raises ValueError
    on a cell that is empty or not increasing.
    """
    by_degree = {}
    for cell in cells:
        if not cell:
            raise ValueError("the empty simplex is not allowed")
        if not all(map(lt, cell, cell[1:])):
            raise ValueError(f"cell is not increasing: {cell!r}")
        by_degree.setdefault(len(cell) - 1, []).append(cell)
    return [sorted(by_degree.get(n, ())) for n in range(max(by_degree, default=-1) + 1)]


class SimplicialComplex:
    """A finite abstract simplicial complex with an explicit simplex set.

    Simplices are given as labels in any order, and the set must be
    downward closed.  Construction verifies this and raises ValueError on
    what ``_cells_by_degree`` refuses and on an unknown or repeated label.
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
            if len(set(cell)) != len(cell):
                raise ValueError(f"repeated label in simplex: {tuple(simplex)!r}")
            return cell

        self._by_dim = [
            # a simplex may be given more than once, in any label order
            [tuple(map(self.labels.__getitem__, cell)) for cell in dict.fromkeys(cells)]
            for cells in _cells_by_degree(map(encode, simplices))
        ]
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
    """The relative chain complex of a pair (K, K'), assembled from its incidence.

    The keys of ``incidence`` are the cells, the simplices of K not in K',
    each a nonempty increasing tuple of label indices.  Each cell maps to
    the increasing tuple of its drop positions, the i whose facet
    cell[:i] + cell[i + 1:] is a cell too; the facets not listed lie in
    K'.  Degree-n basis: the cells with n + 1 indices, in increasing order,
    as given.  The boundary of a cell is the sum of (-1)^i facet over its
    drop positions.  Raises ValueError on what ``_cells_by_degree``
    refuses, on drop positions that are not increasing positions inside
    their cell, and on a listed facet that is not a cell.
    """
    # no cells still make one degree, with an empty basis
    bases = _cells_by_degree(incidence) or [[]]

    # a degree-0 cell has no facet that is a cell, so ``numbers`` starts empty
    numbers, boundaries = {}, []
    for basis in bases:
        columns = []
        for cell in basis:
            drops = incidence[cell]
            if drops and (drops[0] < 0 or drops[-1] >= len(cell)
                          or not all(map(lt, drops, drops[1:]))):
                raise ValueError(f"drop positions {drops!r} not increasing inside cell {cell!r}")
            try:
                column = {numbers[cell[:i] + cell[i + 1:]]: -1 if i & 1 else 1 for i in drops}
            except KeyError as exc:
                raise ValueError(f"facet {exc.args[0]!r} of cell {cell!r} is not a cell") from None
            columns.append(column)
        boundaries.append(IntegerMatrix(len(numbers), len(basis), columns))
        numbers = {cell: j for j, cell in enumerate(basis)}
    return IntegerChainComplex(bases, boundaries)

