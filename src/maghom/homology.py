"""Exact integer linear algebra and homology groups.

Everything here works over arbitrary-precision Python integers.  Matrices
are sparse columns; only Smith normal form works on a dense copy.  Its
invariant factors drive betti numbers and torsion; the test suite
cross-checks them against gcds of minors and fraction-free elimination,
which share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    returned, so their count is the rank.  Pivots are chosen as the nonzero
    entry of minimal absolute value in the working submatrix, ties broken by
    smallest row then column; this keeps intermediate entries small and the
    computation deterministic.

    >>> smith_normal_form(IntegerMatrix(2, 2, [{0: 2}, {0: 4, 1: 6}]))
    (2, 6)
    """
    m, n = a.rows, a.cols
    d = a.to_lists()

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]

    def row_add(i, j, q, start):
        # row i of d gains q * row j; entries left of start are known zeros
        ri, rj = d[i], d[j]
        for c in range(start, n):
            ri[c] += q * rj[c]

    def col_add(j, i, q, start):
        # column j of d gains q * column i
        for r in range(start, m):
            d[r][j] += q * d[r][i]

    diagonal = []
    for t in range(min(m, n)):
        # locate the pivot
        best = None
        pr = pc = -1
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = x if x > 0 else -x
                    if best is None or ax < best:
                        best, pr, pc = ax, i, j
                        if ax == 1:
                            break
            if best == 1:
                break
        if best is None:
            break
        if pr != t:
            row_swap(t, pr)
        if pc != t:
            col_swap(t, pc)
        if d[t][t] < 0:
            row_negate(t)

        while True:
            piv = d[t][t]
            # clear the pivot column
            remainder_row = None
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // piv
                    if q:
                        row_add(i, t, -q, t)
                    if d[i][t]:
                        remainder_row = i
            if remainder_row is not None:
                # a remainder smaller than the pivot exists; promote the
                # smallest one and restart the reduction
                br, bv = remainder_row, None
                for i in range(t + 1, m):
                    x = d[i][t]
                    if x:
                        ax = abs(x)
                        if bv is None or ax < bv:
                            bv, br = ax, i
                row_swap(t, br)
                if d[t][t] < 0:
                    row_negate(t)
                continue
            # clear the pivot row
            remainder_col = None
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // piv
                    if q:
                        col_add(j, t, -q, t)
                    if d[t][j]:
                        remainder_col = j
            if remainder_col is not None:
                bc, bv = remainder_col, None
                for j in range(t + 1, n):
                    x = d[t][j]
                    if x:
                        ax = abs(x)
                        if bv is None or ax < bv:
                            bv, bc = ax, j
                col_swap(t, bc)
                if d[t][t] < 0:
                    row_negate(t)
                continue
            if piv != 1:
                # the pivot must divide every remaining entry for the
                # invariant-factor chain; mix in an offending row and redo
                bad = None
                for i in range(t + 1, m):
                    ri = d[i]
                    for j in range(t + 1, n):
                        if ri[j] % piv:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is not None:
                    row_add(t, bad, 1, t)
                    continue
            break
        diagonal.append(d[t][t])

    return tuple(diagonal)


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
    if len(torsion) > 1:
        n = len(torsion)
        diagonal = IntegerMatrix(n, n, [{j: d} for j, d in enumerate(torsion)])
        torsion = [d for d in smith_normal_form(diagonal) if d > 1]
    return HomologyGroup(betti, tuple(torsion))


# -- homology of chain complexes ---------------------------------------------


def homology_all(complex_, up_to=None):
    """Integral homology in degrees 0..up_to (default: the top degree).

    betti_k = dim C_k - rank d_k - rank d_{k+1}; the torsion of H_k is read
    off the invariant factors of d_{k+1} that exceed 1.  Each boundary's
    Smith normal form is computed once.  The complex only needs
    ``top_degree``, ``dim(n)`` and ``boundary(n)``.
    """
    top = complex_.top_degree
    if up_to is None:
        up_to = top
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
