"""Exact integer linear algebra and homology groups.

Everything here works over arbitrary-precision Python integers.  The Smith
normal form drives betti numbers and torsion; the test suite cross-checks
it against fraction-free elimination that shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass


class IntegerMatrix:
    """An immutable integer matrix that keeps its shape even when empty.

    >>> IntegerMatrix([[1, 2], [3, 4]]).entry(1, 0)
    3
    >>> IntegerMatrix.zeros(0, 5).cols
    5
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        self.data = tuple(map(tuple, data))
        self.rows = len(self.data)
        if self.rows:
            widths = {len(r) for r in self.data}
            if len(widths) != 1:
                raise ValueError("ragged matrix rows")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise ValueError("explicit column count disagrees with data")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def entry(self, i, j):
        return self.data[i][j]

    def to_lists(self):
        return [list(row) for row in self.data]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            out.append(
                [sum(ri[k] * other.data[k][j] for k in range(self.cols))
                 for j in range(other.cols)]
            )
        return IntegerMatrix(out, cols=other.cols)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """Result of a Smith normal form computation.

    ``diagonal`` holds the positive invariant factors d_1 | d_2 | ... | d_r;
    zero diagonal entries are not recorded.  When transforms were requested,
    ``u`` and ``v`` satisfy A = u @ d_matrix() @ v with |det| = 1 each.
    """

    rows: int
    cols: int
    diagonal: tuple
    u: IntegerMatrix | None = None
    v: IntegerMatrix | None = None

    @property
    def rank(self):
        return len(self.diagonal)

    def d_matrix(self):
        m = [[0] * self.cols for _ in range(self.rows)]
        for i, d in enumerate(self.diagonal):
            m[i][i] = d
        return IntegerMatrix(m, cols=self.cols)


def smith_normal_form(a, transforms=False):
    """Smith normal form over the integers.

    Pivots are chosen as the nonzero entry of minimal absolute value in the
    working submatrix, ties broken by smallest row then column; this keeps
    intermediate entries small and the computation deterministic.

    >>> smith_normal_form(IntegerMatrix([[2, 4], [0, 6]])).diagonal
    (2, 6)
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transforms else None
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transforms else None

    # Each elementary operation on d is paired with the inverse operation
    # applied to u (columns) or v (rows), preserving a = u . d . v.

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            for row in u:
                row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            v[i], v[j] = v[j], v[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            for row in u:
                row[i] = -row[i]

    def row_add(i, j, q, start):
        # row i of d gains q * row j; entries left of start are known zeros
        ri, rj = d[i], d[j]
        for c in range(start, n):
            ri[c] += q * rj[c]
        if u is not None:
            for row in u:
                row[j] -= q * row[i]

    def col_add(j, i, q, start):
        # column j of d gains q * column i
        for r in range(start, m):
            d[r][j] += q * d[r][i]
        if v is not None:
            vi, vj = v[i], v[j]
            for c in range(n):
                vi[c] -= q * vj[c]

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

    return SmithForm(
        rows=m,
        cols=n,
        diagonal=tuple(diagonal),
        u=IntegerMatrix(u, cols=m) if transforms else None,
        v=IntegerMatrix(v, cols=n) if transforms else None,
    )


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

    def is_zero(self):
        return self.betti == 0 and not self.torsion

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
        diagonal = IntegerMatrix(
            [[d if i == j else 0 for j in range(len(torsion))] for i, d in enumerate(torsion)]
        )
        torsion = [d for d in smith_normal_form(diagonal).diagonal if d > 1]
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
    ranks = {}
    diagonals = {}
    for k in range(1, min(up_to + 1, top) + 1):
        snf = smith_normal_form(complex_.boundary(k))
        ranks[k] = snf.rank
        diagonals[k] = snf.diagonal
    out = []
    for k in range(up_to + 1):
        dim_k = complex_.dim(k)
        if dim_k == 0:
            out.append(ZERO_GROUP)
            continue
        betti = dim_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
        torsion = tuple(d for d in diagonals.get(k + 1, ()) if d > 1)
        out.append(HomologyGroup(betti, torsion))
    return out
