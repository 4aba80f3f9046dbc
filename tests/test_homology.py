import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maghom.homology as homology_module
from maghom import HomologyGroup, build_table, cross_validate, generate
from maghom.homology import (
    IntegerChainComplex,
    IntegerMatrix,
    ZERO_GROUP,
    direct_sum,
    homology_all,
    smith_normal_form,
)
from maghom.simplicial import SimplicialComplex, downward_closure
from oracles import (
    assert_boundary_squares_to_zero,
    betti_via_rank_oracle,
    chain_complex,
    dense_product,
    integer_determinant,
    invariant_factors_by_minors,
    matrix_from_lists,
    random_int_matrix,
    rank_over_gf2,
    rank_over_q,
    rational_rank,
    unimodular_matrix,
)


def _det(rows):
    return integer_determinant(matrix_from_lists(rows))


def _identity(n):
    return IntegerMatrix(n, n, [{j: 1} for j in range(n)])


# --- IntegerMatrix -----------------------------------------------------------


def test_matrix_construction_and_shape():
    m = IntegerMatrix(2, 3, [{1: 4}, {0: 2, 1: 5}, {0: 3, 1: 6}])
    assert (m.rows, m.cols) == (2, 3)
    assert m.to_lists() == [[0, 2, 3], [4, 5, 6]]
    assert m.columns == matrix_from_lists([[0, 2, 3], [4, 5, 6]]).columns
    z = IntegerMatrix(2, 3)
    assert (z.rows, z.cols) == (2, 3)
    assert z.to_lists() == [[0, 0, 0], [0, 0, 0]]
    assert IntegerMatrix(0, 4).to_lists() == []
    with pytest.raises(ValueError, match="columns"):
        IntegerMatrix(2, 3, [{0: 1}, {1: 1}])
    with pytest.raises(ValueError, match="out of range"):
        IntegerMatrix(2, 1, [{2: 1}])
    with pytest.raises(ValueError, match="out of range"):
        IntegerMatrix(2, 1, [{-1: 1}])
    with pytest.raises(ValueError, match="zero entry"):
        IntegerMatrix(2, 2, [{0: 1}, {1: 0}])


# --- Smith normal form -------------------------------------------------------


def test_snf_worked_example():
    # Upper triangular with entries 2,4 / 0,6: invariant factors 2 and 6.
    assert smith_normal_form(matrix_from_lists([[2, 4], [0, 6]])) == (2, 6)
    # each input drives the elimination through one branch, as followed by
    # hand in its comment
    for rows, factors in [
        # clearing row 0 from column 1 leaves 3 - 2 = 1 there, a remainder in
        # the pivot row that pivots the next pass
        ([[2, 3]], (1,)),
        # the pivot 2 meets its column alone at once, and reducing the column
        # mod 2 leaves 1 in row 1, a remainder in the pivot column
        ([[2], [3]], (1,)),
        # no unit entry; each pass ends with its pivot alone in its row and
        # column, with no remainder
        ([[2, 4], [6, 8]], (2, 4)),
        # a negative least entry: 6 // -3 clears row 0 exactly, and 9 mod -3
        # is zero
        ([[-3, 6], [9, 3]], (3, 21)),
        # column 1 holds units in rows 0 and 1, and the loop pivots on the
        # first; clearing row 0 from column 0 moves its 2 into row 1, where
        # the next pass takes it alone
        ([[2, 1], [0, -1]], (1, 2)),
        # the least entry 4 ties in both columns and column 0 is first;
        # 6 // 4 leaves 2 in row 0 of column 1, a smaller pivot that takes
        # the next pass and clears row 0 from column 0 exactly
        ([[4, 6], [6, 4]], (2, 10)),
        # the 1 in row 0 ties in columns 0 and 1 and column 0 pivots;
        # clearing row 0 from column 1 fills in -2 in row 1; the next pass
        # reduces column 1's 3 mod -2, and the remainder -1 pivots the pass
        # after; column 2 is zero, so the rank is 2
        ([[1, 1, 0], [2, 0, 0], [0, 3, 0]], (1, 1)),
        # reducing column 0 mod its pivot 2 cancels row 1's 4 and leaves 1 in
        # row 2, which pivots the next pass in the same column
        ([[2, 0], [4, 5], [3, 0]], (1, 5)),
        # the first three passes pivot on units: the first two fill 2 into
        # row 2 of column 2 and the third turns it into -4, so the last
        # pivot comes from fill-in alone
        ([[1, 1, 0, 0], [0, 1, 1, 0], [2, 0, 0, 2], [0, 0, 3, 1]], (1, 1, 1, 4)),
    ]:
        a = matrix_from_lists(rows)
        assert smith_normal_form(a) == factors == invariant_factors_by_minors(a), rows


def test_snf_divisibility_repair():
    # diag(4, 6) is already diagonal but violates divisibility; the correct
    # invariant factors are gcd and lcm.
    assert smith_normal_form(matrix_from_lists([[4, 0], [0, 6]])) == (2, 12)
    # mixed unit and non-unit pivots: the units stay in front of the chain
    a = matrix_from_lists([[1, 0, 0], [0, 4, 0], [0, 0, 6]])
    assert smith_normal_form(a) == (1, 2, 12) == invariant_factors_by_minors(a)


def test_snf_edge_shapes():
    assert smith_normal_form(IntegerMatrix(3, 2)) == ()
    assert smith_normal_form(IntegerMatrix(0, 4)) == ()
    assert smith_normal_form(_identity(3)) == (1, 1, 1)
    # unimodular inputs: every invariant factor is 1, and the count is the
    # rank
    rng = random.Random(29)
    a = matrix_from_lists(unimodular_matrix(rng, 5))
    assert smith_normal_form(a) == (1,) * 5 == invariant_factors_by_minors(a)
    rows = list(range(40))
    rng.shuffle(rows)
    signed_permutation = IntegerMatrix(40, 40, [{i: rng.choice((-1, 1))} for i in rows])
    unimodular = matrix_from_lists(unimodular_matrix(rng, 12))
    for a, n in [(signed_permutation, 40), (unimodular, 12)]:
        assert smith_normal_form(a) == (1,) * n and rank_over_q(a) == n
    assert smith_normal_form(matrix_from_lists([[-6]])) == (6,)
    a = matrix_from_lists([[1, 1], [0, 0], [1, 1]])  # a zero row
    assert smith_normal_form(a) == (1,) == invariant_factors_by_minors(a)


def test_snf_deterministic():
    a = matrix_from_lists([[3, 9, -2], [0, 7, 4], [5, 5, 5]])
    assert smith_normal_form(a) == smith_normal_form(a)
    assert a.to_lists() == [[3, 9, -2], [0, 7, 4], [5, 5, 5]]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_snf_properties(seed):
    a = random_int_matrix(random.Random(seed))
    diag = smith_normal_form(a)
    # Nonnegative diagonal forming a divisibility chain.
    assert all(d > 0 for d in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    # Rank agrees with an independent elimination over Q.
    assert len(diag) == rank_over_q(a)
    assert len(diag) == rational_rank(a)
    # The factors agree with the gcds of minors, which need no elimination.
    assert diag == invariant_factors_by_minors(a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), rows=st.integers(1, 40), cols=st.integers(1, 40))
def test_snf_on_sparse_boundary_like_matrices(seed, rows, cols):
    # few entries per column, as in magnitude boundaries (whose entries are
    # +-1), with +-2 mixed in so that torsion can occur; or entries from
    # +-2 and +-3 alone, so that no entry is a unit until elimination
    # makes one
    rng = random.Random(seed)
    density = rng.choice((0.03, 0.08, 0.2))
    values = rng.choice(((-2, -1, 1, 2), (-3, -2, 2, 3)))
    a = IntegerMatrix(rows, cols, [
        {i: rng.choice(values) for i in range(rows) if rng.random() < density}
        for _ in range(cols)
    ])
    diag = smith_normal_form(a)
    assert len(diag) == rank_over_q(a)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    # the first invariant factor is the gcd of all entries
    entries = [x for column in a.columns for x in column.values()]
    assert diag[:1] == ((math.gcd(*entries),) if entries else ())
    # a matrix and its transpose have the same invariant factors, every one
    # of them, though the elimination on each runs differently
    transpose = [{} for _ in range(rows)]
    for j, column in enumerate(a.columns):
        for i, x in column.items():
            transpose[i][j] = x
    assert smith_normal_form(IntegerMatrix(cols, rows, transpose)) == diag


def test_production_code_never_densifies(monkeypatch):
    # every route reduces the sparse columns; only tests read dense rows
    def refuse(self):
        raise AssertionError("IntegerMatrix.to_lists called outside the tests")

    monkeypatch.setattr(IntegerMatrix, "to_lists", refuse)
    table = build_table(generate("sq2"), 4, method="direct")
    assert table.totals() == [HomologyGroup(b) for b in (0, 0, 0, 12, 112)]
    assert cross_validate(generate("cycle:5"), 4).ok


# --- rational rank and determinant -------------------------------------------


def test_rational_rank_known_values():
    assert rational_rank(matrix_from_lists([[1, 2], [2, 4]])) == 1
    assert rational_rank(matrix_from_lists([[1, 0], [0, 1]])) == 2
    assert rational_rank(IntegerMatrix(4, 4)) == 0
    assert rational_rank(IntegerMatrix(0, 3)) == 0


def test_integer_determinant_known_values():
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[2, 0], [0, 3]]) == 6
    assert _det([[1, 2], [2, 4]]) == 0
    assert _det([[5]]) == 5
    assert integer_determinant(_identity(4)) == 1
    with pytest.raises(ValueError):
        integer_determinant(IntegerMatrix(2, 3))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_determinant_vanishes_iff_rank_drops(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = matrix_from_lists([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    assert (integer_determinant(a) == 0) == (rank_over_q(a) < n)


# --- HomologyGroup and direct sums -------------------------------------------


def test_homology_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        HomologyGroup(0, (2, 3))


def test_homology_group_describe():
    assert ZERO_GROUP.describe() == "0"
    assert HomologyGroup(2).describe() == "Z^2"
    assert HomologyGroup(1).describe() == "Z"
    assert HomologyGroup(0, (2,)).describe() == "Z/2"
    assert HomologyGroup(2, (2, 4)).describe() == "Z^2 + Z/2 + Z/4"
    assert HomologyGroup(2, (2,)).short() == "2+Z/2"
    assert HomologyGroup(3).short() == "3"


def test_homology_group_is_an_immutable_value():
    g = HomologyGroup(betti=2, torsion=(2, 4))
    assert g == HomologyGroup(2, (2, 4)) and g != HomologyGroup(2, (4,))
    assert g != (2, (2, 4))
    assert hash(g) == hash(HomologyGroup(2, (2, 4)))
    assert {g, HomologyGroup(2, (2, 4)), ZERO_GROUP} == {g, HomologyGroup(0)}
    assert HomologyGroup(3) in {HomologyGroup(betti=3)}
    with pytest.raises(AttributeError):
        g.betti = 3
    with pytest.raises(AttributeError):
        del g.torsion
    assert (g.betti, g.torsion) == (2, (2, 4))
    assert repr(g) == "HomologyGroup(betti=2, torsion=(2, 4))"
    assert repr(ZERO_GROUP) == "HomologyGroup(betti=0, torsion=())"


def test_direct_sum_renormalizes_torsion():
    # Z/2 + Z/3 is cyclic of order 6; the invariant-factor form must merge.
    s = direct_sum([HomologyGroup(0, (2,)), HomologyGroup(0, (3,))])
    assert s == HomologyGroup(0, (6,))
    s = direct_sum([HomologyGroup(1, (2, 2)), HomologyGroup(0, (4,))])
    assert s == HomologyGroup(1, (2, 2, 4))
    s = direct_sum([HomologyGroup(2), HomologyGroup(3)])
    assert s == HomologyGroup(5)
    # Mixed primes: Z/12 + Z/18 = (Z/4 + Z/3) + (Z/2 + Z/9) = Z/6 + Z/36.
    s = direct_sum([HomologyGroup(0, (12,)), HomologyGroup(0, (18,))])
    assert s == HomologyGroup(0, (6, 36))
    # Z/4 + Z/2 + Z/6 = Z/2 + Z/2 + (Z/4 + Z/3) = Z/2 + Z/2 + Z/12.
    s = direct_sum([HomologyGroup(1, (4,)), HomologyGroup(0, (2, 6))])
    assert s == HomologyGroup(1, (2, 2, 12))
    assert direct_sum([]) == ZERO_GROUP


# --- homology of chain complexes ---------------------------------------------


def test_full_triangle_is_contractible():
    c = chain_complex(SimplicialComplex("abc", downward_closure(["abc"])))
    assert homology_all(c, 2) == [HomologyGroup(1), ZERO_GROUP, ZERO_GROUP]


def test_circle_has_h1():
    c = chain_complex(SimplicialComplex("abc", downward_closure(["ab", "bc", "ac"])))
    assert homology_all(c, up_to=0)[0] == HomologyGroup(1)
    assert homology_all(c, up_to=1)[1] == HomologyGroup(1)


def test_projective_plane_torsion(rp2_complex):
    groups = homology_all(rp2_complex, 2)
    assert groups[0] == HomologyGroup(1)
    assert groups[1] == HomologyGroup(0, (2,))
    assert groups[2] == ZERO_GROUP
    # Independent evidence for the 2-torsion: the rank of the top boundary
    # drops by one when reduced mod 2.
    d2 = rp2_complex.boundary(2)
    assert rank_over_q(d2) == 10
    assert rank_over_gf2(d2) == 9
    # Betti numbers agree with the rational-rank oracle.
    for n in range(3):
        assert groups[n].betti == betti_via_rank_oracle(rp2_complex, n)


def _prescribed_complex(rng: random.Random, factors):
    """Chain complex whose only boundary is U diag(factors) V with unimodular
    U and V, so H_0 is forced to have exactly the given torsion."""
    n = len(factors) + rng.randint(0, 2)
    u = unimodular_matrix(rng, n)
    v = unimodular_matrix(rng, n)
    d = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(n)]
    a = matrix_from_lists(dense_product(dense_product(u, d), v))
    return IntegerChainComplex(
        bases=[[f"e{i}" for i in range(n)], [f"f{i}" for i in range(n)]],
        boundaries=[IntegerMatrix(0, n), a],
    ), n


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 6), (2, 2, 4), (5, 5)])
def test_prescribed_torsion_recovered(factors):
    rng = random.Random(hash(factors) & 0xFFFF)
    complex_, n = _prescribed_complex(rng, factors)
    h0 = homology_all(complex_, up_to=0)[0]
    nontrivial = tuple(f for f in factors if f > 1)
    assert h0.torsion == nontrivial
    assert h0.betti == n - len(factors)
    # H_1 is the kernel of an injective map: free of rank n - len(factors).
    assert homology_all(complex_, up_to=1)[1] == HomologyGroup(n - len(factors))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_betti_matches_rank_oracle_on_random_complexes(seed):
    rng = random.Random(seed)
    labels = list(range(6))
    maximal = set()
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, 4)
        maximal.add(tuple(sorted(rng.sample(labels, size))))
    s = SimplicialComplex(labels, downward_closure(maximal))
    c = chain_complex(s)
    assert_boundary_squares_to_zero(c)
    for n in range(c.top_degree + 1):
        assert homology_all(c, up_to=n)[n].betti == betti_via_rank_oracle(c, n)


# --- unit pairs before Smith normal form ---------------------------------------


def _one_boundary_complex(rows):
    d = matrix_from_lists(rows)
    return IntegerChainComplex(
        bases=[[f"v{i}" for i in range(d.rows)], [f"e{j}" for j in range(d.cols)]],
        boundaries=[IntegerMatrix(0, d.rows), d],
    )


def _snf_arguments(monkeypatch):
    """Record the dense matrix of every smith_normal_form call homology_all makes."""
    seen = []
    real = homology_module.smith_normal_form
    monkeypatch.setattr(
        homology_module, "smith_normal_form", lambda a: seen.append(a.to_lists()) or real(a)
    )
    return seen


def test_column_with_two_unit_entries(monkeypatch):
    # column 0 holds units in rows 0 and 1; either pairing leaves the 2s of
    # column 1 in rows that no pair took, which is all Smith normal form sees
    rows = [[1, 0], [-1, 2], [0, 2]]
    assert invariant_factors_by_minors(matrix_from_lists(rows)) == (1, 2)
    seen = _snf_arguments(monkeypatch)
    groups = homology_all(_one_boundary_complex(rows), 1)
    assert groups == [HomologyGroup(1, (2,)), ZERO_GROUP]
    assert seen == [[[2], [2]]]


def test_row_cleared_from_several_columns_with_fill_in(monkeypatch):
    # column 0's only unit is in row 0, so they pair and row 0 is cleared
    # from columns 1-3: columns 1 and 2 fill in row 1, and column 3, a copy
    # of column 0, cancels to zero; columns 1 and 2 then pair with their
    # units in rows 2 and 3, and only row 1 and column 3 are left
    rows = [[1, 1, -1, 1], [2, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]
    seen = _snf_arguments(monkeypatch)
    complex_ = _one_boundary_complex(rows)
    groups = homology_all(complex_, 1)
    assert groups == [HomologyGroup(1), HomologyGroup(1)]
    assert seen == [[[0]]]
    assert invariant_factors_by_minors(complex_.boundary(1)) == (1, 1, 1)


def test_smith_normal_form_sees_no_entry_on_routes(monkeypatch):
    # unit pairing leaves nothing of the direct route's sq2 complexes or of
    # the geometric route's cycle:7 pairs, so the pivot loop has no work; the
    # shapes pin what is left: (calls, sum of rows x cols, nonzero entries,
    # largest dimension)
    seen = _snf_arguments(monkeypatch)
    shapes = []
    recorded = homology_module.smith_normal_form
    monkeypatch.setattr(
        homology_module, "smith_normal_form",
        lambda a: shapes.append((a.rows, a.cols)) or recorded(a),
    )
    for spec, method, expected in (
        ("sq2", "direct", (64, 52, 0, 46)),
        ("cycle:7", "auto", (28, 0, 0, 5)),
    ):
        seen.clear()
        shapes.clear()
        build_table(generate(spec), 7, method=method)
        nonzeros = sum(1 for matrix in seen for row in matrix for x in row if x)
        cells = sum(rows * cols for rows, cols in shapes)
        largest = max(max(shape) for shape in shapes)
        assert (len(seen), cells, nonzeros, largest) == expected, spec


def test_smith_normal_form_reduces_a_torsion_entry_on_a_route(monkeypatch, hemi):
    # the hemi-octahedron's face-poset graph leaves the pivot loop one entry
    # of the direct route's complexes: -2, the Z/2 at k = 3 (l = 4) or k = 4
    # (l = 5); every other matrix handed over has no entry
    calls = []
    real = homology_module.smith_normal_form
    monkeypatch.setattr(
        homology_module, "smith_normal_form", lambda a: calls.append((a.to_lists(), real(a))) or calls[-1][1],
    )
    for l, expected in ((4, [[-2]]), (5, [[0, 0, 0, -2]])):
        calls.clear()
        build_table(hemi, l, method="direct")
        assert [(matrix, factors) for matrix, factors in calls if factors] == [(expected, (2,))], l


def _entries(c):
    return [[dict(col) for col in c.boundary(n).columns] for n in range(c.top_degree + 1)]


def test_homology_all_leaves_its_input_unchanged(rp2_complex):
    complex_ = _one_boundary_complex([[1, 1, -1, 1], [2, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
    for c in (complex_, rp2_complex):
        before = _entries(c)
        homology_all(c, c.top_degree)
        assert _entries(c) == before


def _random_chain_complex(rng):
    """A small complex with d o d = 0 whose entries are not all units.

    Each C_k splits into cells that are hit by d_{k+1}, cells that map onto
    a multiple of one hit cell of C_{k-1}, and cycles that are not hit;
    shears of each chain group's basis (a column operation on d_k and the
    inverse row operation on d_{k+1}) then mix the parts.
    """
    top = rng.randint(1, 3)
    hit = [0] * (top + 2)  # cells of C_k in the image of d_{k+1}
    sources = [0] * (top + 2)  # cells of C_k mapping onto hit cells of C_{k-1}
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    for k in range(1, top + 1):
        sources[k] = hit[k - 1] = rng.randint(0, 2)
    dims = [hit[k] + sources[k] + free[k] for k in range(top + 1)]
    dense = [[]] + [[[0] * dims[k] for _ in range(dims[k - 1])] for k in range(1, top + 1)]
    for k in range(1, top + 1):
        # C_k lists its hit cells, then its sources, then its free cycles
        for j in range(sources[k]):
            dense[k][j][hit[k] + j] = rng.choice((1, -1, 1, 2, -3, 4, 6))
    for k in range(top + 1):
        for _ in range(6 if dims[k] > 1 else 0):
            i, j = rng.sample(range(dims[k]), 2)
            q = rng.randint(-2, 2)
            # new basis vector e_i + q e_j
            if k > 0:
                for row in dense[k]:
                    row[i] += q * row[j]
            if k < top:
                dense[k + 1][j] = [x - q * y for x, y in zip(dense[k + 1][j], dense[k + 1][i])]
    boundaries = [IntegerMatrix(0, dims[0])] + [
        matrix_from_lists(dense[k], dims[k]) for k in range(1, top + 1)
    ]
    bases = [[f"c{k}_{i}" for i in range(dims[k])] for k in range(top + 1)]
    return IntegerChainComplex(bases, boundaries)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_unit_pairs_keep_every_invariant_factor(seed):
    c = _random_chain_complex(random.Random(seed))
    assert_boundary_squares_to_zero(c)
    top = c.top_degree
    groups = homology_all(c, top)
    for k in range(top + 1):
        d_up = c.boundary(k + 1) if k < top else IntegerMatrix(c.dim(k), 0)
        assert groups[k].torsion == tuple(f for f in invariant_factors_by_minors(d_up) if f > 1), k
        rank_in = rank_over_q(c.boundary(k)) if k else 0
        assert groups[k].betti == c.dim(k) - rank_in - rank_over_q(d_up), k


# --- boundaries asked for during the pairing ----------------------------------


def _on_request(c):
    """``c`` with its boundaries built on request from its stored matrices.

    The labels are tagged with their degree, which the assembler reads, and
    a request with skipped cells gets their columns empty; each request
    that builds a column is recorded as (degree, skipped cells).
    """
    requests = []

    def assemble(basis_prev, basis_cur, skip):
        if not basis_cur:
            return IntegerMatrix(len(basis_prev), 0)
        n = basis_cur[0][0]
        requests.append((n, set(skip)))
        d = c.boundary(n)
        return IntegerMatrix(d.rows, d.cols, [
            {} if j in skip else column for j, column in enumerate(d.columns)
        ])

    bases = [[(n, label) for label in basis] for n, basis in enumerate(c.bases)]
    return IntegerChainComplex(bases, [c.boundary(0)] + [None] * c.top_degree, assemble), requests


def _shapes(remainders):
    return [(d.rows, d.cols, d.columns) for d in remainders]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_skipping_taken_columns_changes_no_pair_or_remainder(seed):
    # the pairing asks for each boundary once, top degree first, passing
    # the cells a pair already took; emptying their columns changes no
    # pair, no remainder and no group, and nothing is kept
    c = _random_chain_complex(random.Random(seed))
    top = c.top_degree
    lazy, requests = _on_request(c)
    pairs, remainders = homology_module._pair_units(c, top)
    lazy_pairs, lazy_remainders = homology_module._pair_units(lazy, top)
    assert lazy_pairs == pairs
    assert _shapes(lazy_remainders) == _shapes(remainders)
    degrees = [n for n, _ in requests]
    assert degrees == sorted(set(degrees), reverse=True)
    assert lazy.boundaries[1:] == [None] * top
    requests.clear()
    assert homology_all(lazy, top) == homology_all(c, top)
    # the top boundary is asked for before any pair exists
    assert not any(skip for n, skip in requests if n == top)
