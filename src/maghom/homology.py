"""Exact integer linear algebra, chain complexes and their homology groups.

Everything here works over arbitrary-precision Python integers.  Matrices
are sparse columns, and every route hands its ``IntegerChainComplex`` to
``homology_all``.  That first pairs off the unit incidences of the whole
complex, the elementary reductions of Kaczynski, Mrozek and Slusarek
(1998), which split off acyclic pieces without changing any invariant
factor; magnitude complexes are almost entirely acyclic, so little is
left.  The pairing runs top degree down and asks for each boundary only
when the degree above is paired, so a complex that assembles its
boundaries on request never builds the columns of the cells that a pair
already took.  Smith normal form then runs on what is left of each
boundary: a short pivot loop on least entries.  The invariant factors
drive betti numbers and torsion; the test suite cross-checks them against
gcds of minors and fraction-free elimination, which share no code with
either step.
"""

from __future__ import annotations

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
            if column and not (0 <= min(column) and max(column) < rows and all(column.values())):
                # walk the entries only to name the first bad one
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
    returned, so their count is the rank.  Each pass takes an entry p of
    least absolute value, at (r, c), from the shortest column holding one,
    ties going to the earlier column, and clears row r from the other
    columns by column operations; a nonzero remainder there is smaller than
    |p| and the next pass takes it.  Once row r meets column c alone, a row
    operation changes c only, so c's other entries are reduced mod p in
    place; when c holds p alone, |p| is recorded and c is dropped.  A pass
    either drops a column or leaves an entry smaller than |p|, so the loop
    ends.  The input is not modified.

    >>> smith_normal_form(IntegerMatrix(2, 2, [{0: 2}, {0: 4, 1: 6}]))
    (2, 6)
    """
    if not any(a.columns):
        return ()  # what every route hands it
    columns = [dict(column) for column in a.columns if column]
    diagonal = []
    while columns:
        least = min(min(map(abs, column.values())) for column in columns)
        pivot = min((column for column in columns if least in map(abs, column.values())), key=len)
        r, p = next((i, x) for i, x in pivot.items() if abs(x) == least)
        remainder = False
        for column in columns:
            if column is not pivot and r in column:
                q = column[r] // p  # nonzero: |column[r]| >= |p|
                for i, y in pivot.items():
                    x = column.get(i, 0) - q * y
                    if x:
                        column[i] = x
                    else:
                        del column[i]
                remainder |= r in column
        if not remainder:
            for i in [i for i in pivot if i != r]:
                x = pivot[i] % p
                if x:
                    pivot[i] = x
                else:
                    del pivot[i]
            if len(pivot) == 1:
                diagonal.append(abs(p))
                pivot.clear()
        columns = [column for column in columns if column]
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


class _Value:
    """A record compared by value: two instances of one class are equal when
    their ``_fields()`` tuples are.  Defining ``__eq__`` alone leaves the
    class unhashable, as a mutable record should be."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()


class _FrozenValue(_Value):
    """An immutable record: its fields are set once, by ``__init__`` through
    ``__dict__``, and it hashes by ``_fields()``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())


class HomologyGroup(_FrozenValue):
    """A finitely generated abelian group Z^betti + sum of Z/d_i.

    Torsion is kept in invariant-factor form: each entry exceeds 1 and
    divides the next.

    >>> HomologyGroup(2, (2, 4)).describe()
    'Z^2 + Z/2 + Z/4'
    """

    def __init__(self, betti, torsion=()):
        if betti < 0:
            raise ValueError("negative betti number")
        for i, d in enumerate(torsion):
            if d <= 1:
                raise ValueError("torsion entries must exceed 1")
            if i and d % torsion[i - 1]:
                raise ValueError("torsion entries must form a divisibility chain")
        self.__dict__.update(betti=betti, torsion=torsion)

    def _fields(self):
        return (self.betti, self.torsion)

    def __repr__(self):
        return f"HomologyGroup(betti={self.betti!r}, torsion={self.torsion!r})"

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


class IntegerChainComplex:
    """A nonnegatively graded chain complex of free Z-modules.

    ``bases[n]`` lists the degree-n basis labels; ``boundary(n)`` is the
    matrix of d_n : C_n -> C_{n-1} (a 0 x dim_0 matrix at degree 0).  Degrees
    beyond the stored top are zero.  ``boundaries[n]`` holds d_n, or None
    when d_n is assembled on request by ``assemble(bases[n - 1], bases[n],
    skip)``, which leaves the columns of the cells in ``skip`` empty.
    """

    __slots__ = ("bases", "boundaries", "assemble")

    def __init__(self, bases, boundaries, assemble=None):
        self.bases = [list(b) for b in bases]
        self.boundaries = list(boundaries)
        self.assemble = assemble
        if len(self.bases) != len(self.boundaries):
            raise ValueError("need one boundary matrix per degree")
        for n, mat in enumerate(self.boundaries):
            if mat is not None:
                self._check_shape(n, mat)
            elif assemble is None:
                raise ValueError(f"boundary {n} is neither given nor assembled")

    def _check_shape(self, n, mat):
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

    def boundary(self, n, skip=None):
        """The matrix of d_n, a correctly shaped zero matrix beyond the top.

        A d_n not yet built is assembled here.  Without ``skip`` every
        column is built and the matrix is kept for later reads; ``skip``, a
        set of cells of C_n whose columns the caller will not read, leaves
        those columns empty, and that matrix is not kept.  A stored matrix
        is returned whole whatever ``skip`` holds.
        """
        if not 0 <= n < len(self.boundaries):
            return IntegerMatrix(self.dim(n - 1), self.dim(n))
        mat = self.boundaries[n]
        if mat is None:
            mat = self.assemble(self.bases[n - 1], self.bases[n], () if skip is None else skip)
            self._check_shape(n, mat)
            if skip is None:
                self.boundaries[n] = mat
        return mat

    def __repr__(self):
        dims = [self.dim(n) for n in range(self.top_degree + 1)]
        return f"IntegerChainComplex(dims {dims})"


def homology_all(complex_, up_to):
    """Integral homology in degrees 0..up_to.

    betti_k = dim C_k - rank d_k - rank d_{k+1}; the torsion of H_k is read
    off the invariant factors of d_{k+1} that exceed 1.  The unit incidences
    of the whole complex are paired off first, top degree down (see
    ``_pair_units``), which asks for each boundary only once the degree
    above is paired and passes the cells that a pair already took, so an
    assembled complex never builds their columns.  Each pair adds a factor
    1 to its boundary's diagonal, and ``smith_normal_form`` sees only what
    is left of each boundary, once per boundary even when nothing is left.
    The complex only needs ``top_degree``, ``dim(n)`` and ``boundary(n,
    skip)``, and is not modified.
    """
    hi = min(up_to + 1, complex_.top_degree)
    pairs, remainders = _pair_units(complex_, hi)
    diagonals = {
        k: (1,) * units + smith_normal_form(remainder)
        for k, units, remainder in zip(range(1, hi + 1), pairs, remainders)
    }
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


def _pair_units(complex_, hi):
    """Pair off the unit incidences of d_1..d_hi; the pair counts and remainders.

    One pass runs from degree hi down to 0; ``taken[k]`` holds the cells of
    C_k that a pair took.  d_k is asked of the complex only when d_{k+1} is
    paired, as ``boundary(k, taken[k])``: the columns of the cells already
    taken are never read, so an assembled complex leaves them empty, and a
    stored one hands over its whole matrix.  Each column c of d_k not yet
    taken and holding a +-1 is paired with the row r of its unit entries
    that has the fewest entries; column operations clear r from the other
    columns of d_k, which changes the basis of C_k only in c's coordinate.
    Then c leaves d_k and leaves d_{k+1} as a row, and r leaves d_k and
    leaves d_{k-1} as a column: since d o d = 0, both lines are zero in the
    new bases, so the complex splits off the acyclic piece c -> r and the
    invariant factors of the rest do not change.  Once d_k is paired, C_k
    and C_{k+1} are settled, so what is left of d_{k+1} on the cells no pair
    took is built then, rows in order with those holding entries first, and
    its working copy dropped.  A boundary with no entry is neither copied
    nor indexed.
    """
    taken = [set() for _ in range(hi + 1)]
    pairs = [0] * hi
    remainders = [None] * hi
    # d_{k+1}, and its working columns, None if it has no entry
    d_above = above = None
    for k in range(hi, -1, -1):
        columns = None
        d = complex_.boundary(k, taken[k]) if k else None
        if d is not None and any(d.columns):
            columns = [None if j in taken[k] else dict(col) for j, col in enumerate(d.columns)]
            holders = [[] for _ in range(d.rows)]  # row -> live columns holding it
            for j, column in enumerate(columns):
                if column:
                    for i in column:
                        holders[i].append(j)
            for c, column in enumerate(columns):
                if not column:
                    continue
                r = None
                for i, x in column.items():
                    if (x == 1 or x == -1) and (r is None or len(holders[i]) < len(holders[r])):
                        r, p = i, x
                if r is None:
                    continue
                rest = [(i, y) for i, y in column.items() if i != r]
                for j in holders[r]:
                    if j == c:
                        continue
                    target = columns[j]
                    q = target.pop(r) * p  # p is its own inverse
                    for i, y in rest:
                        x = target.get(i)
                        if x is None:
                            target[i] = -q * y
                            holders[i].append(j)
                        elif x == q * y:
                            del target[i]
                            holders[i].remove(j)
                        else:
                            target[i] = x - q * y
                holders[r] = ()
                for i, _ in rest:
                    holders[i].remove(c)
                columns[c] = None
                taken[k].add(c)
                taken[k - 1].add(r)
                pairs[k - 1] += 1
        if k < hi:
            rows, cols = d_above.rows - len(taken[k]), d_above.cols - len(taken[k + 1])
            if above is None:
                # no entry: d_{k+1} is its own remainder unless a pair took a line
                full = (rows, cols) == (d_above.rows, d_above.cols)
                remainders[k] = d_above if full else IntegerMatrix(rows, cols)
            else:
                above = [column for column in above if column is not None]
                held = sorted({i for column in above for i in column} - taken[k])
                index = dict(zip(held, range(len(held))))
                remainders[k] = IntegerMatrix(rows, cols, [
                    {index[i]: x for i, x in column.items() if i in index} for column in above
                ])
        above, d_above = columns, d
    return pairs, remainders
