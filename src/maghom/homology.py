"""Exact integer linear algebra and homology groups.

Everything here works over arbitrary-precision Python integers.  Matrices
are sparse columns, and Smith normal form eliminates on sparse rows.  Its
invariant factors drive betti numbers and torsion; the test suite
cross-checks them against gcds of minors and fraction-free elimination,
which share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class IntegerMatrix:
    """A read-only sparse integer matrix, stored by columns.

    ``columns[j]`` maps a row index to the nonzero entry in column j; no
    zero is stored, so two matrices of one shape are equal exactly when
    their columns are.  The shape is kept even when the matrix is empty.

    >>> IntegerMatrix(2, 2, [{0: 2}, {0: 4, 1: 6}]).to_lists()
    [[2, 4], [0, 6]]
    >>> IntegerMatrix(0, 5).cols
    5
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns=None):
        self.rows = rows
        self.cols = cols
        self.columns = tuple({} for _ in range(cols)) if columns is None else tuple(columns)
        if len(self.columns) != cols:
            raise ValueError(f"{len(self.columns)} columns given for a {rows}x{cols} matrix")
        for j, column in enumerate(self.columns):
            for i, x in column.items():
                if not 0 <= i < rows:
                    raise ValueError(f"row index {i} out of range in column {j}")
                if not x:
                    raise ValueError(f"zero entry stored at ({i}, {j})")

    def to_lists(self):
        """The dense rows, as fresh lists."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, x in column.items():
                dense[i][j] = x
        return dense

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


def smith_normal_form(a):
    """The invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Only the positive diagonal entries of the Smith normal form are
    returned, so their count is the rank.  The elimination works on sparse
    rows.  Each pivot is an entry of least absolute value in the working
    matrix, taken from the shortest row holding one; a row that is a single
    unit ends the search.  Row operations clear the pivot column and column
    operations reduce the pivot row, which is the only row they change once
    its column is clear.  The loop ends: a pass either drops the pivot row
    or leaves a remainder below the least absolute value, which can fall
    only finitely often.  The input is not modified.

    >>> smith_normal_form(IntegerMatrix(2, 2, [{0: 2}, {0: 4, 1: 6}]))
    (2, 6)
    """
    rows = {}
    for j, column in enumerate(a.columns):
        for i, x in column.items():
            rows.setdefault(i, {})[j] = x
    diagonal = []
    while rows:
        least = size = float("inf")
        for i, row in rows.items():
            if least == 1 and len(row) >= size:
                continue  # a unit in a row no longer than this one is found
            m = min(map(abs, row.values()))
            if (m, len(row)) < (least, size):
                least, size, r = m, len(row), i
                if least == size == 1:
                    break
        prow = rows[r]
        c = next(j for j, x in prow.items() if abs(x) == least)
        p = prow[c]
        remainder = False
        for i, row in [(i, row) for i, row in rows.items() if c in row and i != r]:
            q = row[c] // p
            for j, y in prow.items():
                z = row.get(j, 0) - q * y
                if z:
                    row[j] = z
                else:
                    del row[j]
            if c in row:
                remainder = True
            elif not row:
                del rows[i]
        if remainder:
            continue
        for j in [j for j in prow if j != c]:
            prow[j] %= p
            if not prow[j]:
                del prow[j]
        if len(prow) > 1:
            continue
        diagonal.append(abs(p))
        del rows[r]
    return _divisibility_chain(diagonal)


def _divisibility_chain(diagonal):
    """The invariant factors of a diagonal matrix with nonzero entries."""
    units = sum(1 for d in diagonal if d == 1)
    chain = [d for d in diagonal if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return (1,) * units + tuple(chain)


# -- finitely generated abelian groups --------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group Z^betti + sum of Z/d_i.

    Torsion is kept in invariant-factor form: each entry exceeds 1 and
    divides the next.

    >>> HomologyGroup(2, (2, 4)).describe()
    'Z^2 + Z/2 + Z/4'
    """

    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative betti number")
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion entries must exceed 1")
            if i and d % self.torsion[i - 1]:
                raise ValueError("torsion entries must form a divisibility chain")

    def describe(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def short(self):
        """Compact table cell: the betti number plus any torsion summands."""
        return str(self.betti) + "".join(f"+Z/{d}" for d in self.torsion)


ZERO_GROUP = HomologyGroup(0, ())


def direct_sum(groups):
    """Direct sum of groups, renormalizing torsion into a divisibility chain.

    The invariant factors of the sum are those of the diagonal matrix of all
    the summands' torsion orders.
    """
    betti = 0
    torsion = []
    for g in groups:
        betti += g.betti
        torsion.extend(g.torsion)
    torsion = tuple(d for d in _divisibility_chain(torsion) if d > 1)
    return HomologyGroup(betti, torsion)


# -- homology of chain complexes ---------------------------------------------


def homology_all(complex_, up_to):
    """Integral homology in degrees 0..up_to.

    betti_k = dim C_k - rank d_k - rank d_{k+1}; the torsion of H_k is read
    off the invariant factors of d_{k+1} that exceed 1.  Each boundary's
    Smith normal form is computed once.  The complex only needs
    ``top_degree``, ``dim(n)`` and ``boundary(n)``.
    """
    top = complex_.top_degree
    diagonals = {}
    for k in range(1, min(up_to + 1, top) + 1):
        diagonals[k] = smith_normal_form(complex_.boundary(k))
    out = []
    for k in range(up_to + 1):
        dim_k = complex_.dim(k)
        if dim_k == 0:
            out.append(ZERO_GROUP)
            continue
        betti = dim_k - len(diagonals.get(k, ())) - len(diagonals.get(k + 1, ()))
        torsion = tuple(d for d in diagonals.get(k + 1, ()) if d > 1)
        out.append(HomologyGroup(betti, torsion))
    return out
