import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import HomologyGroup
from maghom.homology import (
    IntegerMatrix,
    ZERO_GROUP,
    direct_sum,
    homology_all,
    reduced_homology_0,
    smith_normal_form,
)
from maghom.simplicial import IntegerChainComplex, SimplicialComplex, chain_complex
from oracles import (
    betti_via_rank_oracle,
    integer_determinant,
    random_int_matrix,
    rank_over_gf2,
    rank_over_q,
    rational_rank,
    unimodular_matrix,
)


def _det(rows):
    return integer_determinant(IntegerMatrix(rows))


# --- IntegerMatrix -----------------------------------------------------------


def test_matrix_construction_and_shape():
    m = IntegerMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2) == 6
    with pytest.raises(ValueError, match="ragged"):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="disagrees"):
        IntegerMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="explicit column count"):
        IntegerMatrix([])


def test_matrix_zeros_identity_matmul():
    z = IntegerMatrix.zeros(2, 3)
    assert z.is_zero()
    i = IntegerMatrix.identity(3)
    m = IntegerMatrix([[1, 2, 3], [4, 5, 6]])
    assert m @ i == m
    a = IntegerMatrix([[1, 2], [3, 4]])
    b = IntegerMatrix([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]


# --- Smith normal form -------------------------------------------------------


def test_snf_worked_example():
    # Upper triangular with entries 2,4 / 0,6: invariant factors 2 and 6.
    form = smith_normal_form(IntegerMatrix([[2, 4], [0, 6]]))
    assert form.diagonal == (2, 6)
    assert form.rank == 2


def test_snf_divisibility_repair():
    # diag(4, 6) is already diagonal but violates divisibility; the correct
    # invariant factors are gcd and lcm.
    form = smith_normal_form(IntegerMatrix([[4, 0], [0, 6]]))
    assert form.diagonal == (2, 12)


def test_snf_edge_shapes():
    assert smith_normal_form(IntegerMatrix.zeros(3, 2)).diagonal == ()
    assert smith_normal_form(IntegerMatrix.zeros(0, 4)).diagonal == ()
    assert smith_normal_form(IntegerMatrix.identity(3)).diagonal == (1, 1, 1)
    assert smith_normal_form(IntegerMatrix([[-6]])).diagonal == (6,)


def test_snf_transforms_worked_example():
    a = IntegerMatrix([[2, 4], [0, 6]])
    form = smith_normal_form(a, transforms=True)
    assert form.u @ form.d_matrix() @ form.v == a
    assert abs(_det(form.u.to_lists())) == 1
    assert abs(_det(form.v.to_lists())) == 1


def test_snf_deterministic():
    a = IntegerMatrix([[3, 9, -2], [0, 7, 4], [5, 5, 5]])
    first = smith_normal_form(a, transforms=True)
    second = smith_normal_form(a, transforms=True)
    assert first == second


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_snf_properties(seed):
    a = random_int_matrix(random.Random(seed))
    form = smith_normal_form(a, transforms=True)
    # Nonnegative diagonal forming a divisibility chain.
    diag = form.diagonal
    assert all(d > 0 for d in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    # Rank agrees with an independent elimination over Q.
    assert form.rank == rank_over_q(a)
    assert form.rank == rational_rank(a)
    # The transforms recompose the input and are invertible over Z.
    assert form.u @ form.d_matrix() @ form.v == a
    assert abs(_det(form.u.to_lists())) == 1
    assert abs(_det(form.v.to_lists())) == 1


# --- rational rank and determinant -------------------------------------------


def test_rational_rank_known_values():
    assert rational_rank(IntegerMatrix([[1, 2], [2, 4]])) == 1
    assert rational_rank(IntegerMatrix([[1, 0], [0, 1]])) == 2
    assert rational_rank(IntegerMatrix.zeros(4, 4)) == 0
    assert rational_rank(IntegerMatrix.zeros(0, 3)) == 0


def test_integer_determinant_known_values():
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[2, 0], [0, 3]]) == 6
    assert _det([[1, 2], [2, 4]]) == 0
    assert _det([[5]]) == 5
    assert integer_determinant(IntegerMatrix.identity(4)) == 1
    with pytest.raises(ValueError):
        integer_determinant(IntegerMatrix.zeros(2, 3))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_determinant_vanishes_iff_rank_drops(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = IntegerMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
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


def test_direct_sum_renormalizes_torsion():
    # Z/2 + Z/3 is cyclic of order 6; the invariant-factor form must merge.
    s = direct_sum([HomologyGroup(0, (2,)), HomologyGroup(0, (3,))])
    assert s == HomologyGroup(0, (6,))
    s = direct_sum([HomologyGroup(1, (2, 2)), HomologyGroup(0, (4,))])
    assert s == HomologyGroup(1, (2, 2, 4))
    s = direct_sum([HomologyGroup(2), HomologyGroup(3)])
    assert s == HomologyGroup(5)
    assert direct_sum([]) == ZERO_GROUP


# --- homology of chain complexes ---------------------------------------------


def test_full_triangle_is_contractible():
    c = chain_complex(SimplicialComplex.from_maximal("abc", ["abc"]))
    assert homology_all(c, 2) == [HomologyGroup(1), ZERO_GROUP, ZERO_GROUP]


def test_circle_has_h1():
    c = chain_complex(SimplicialComplex.from_maximal("abc", ["ab", "bc", "ac"]))
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
    a = IntegerMatrix(u) @ IntegerMatrix(d) @ IntegerMatrix(v)
    return IntegerChainComplex(
        bases=[[f"e{i}" for i in range(n)], [f"f{i}" for i in range(n)]],
        boundaries=[IntegerMatrix.zeros(0, n), a],
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


def test_reduced_homology_0():
    two_parts = SimplicialComplex(["a", "b", "c"], [("a",), ("b",), ("c",)])
    assert reduced_homology_0(two_parts) == HomologyGroup(2)
    point = SimplicialComplex(["a"], [("a",)])
    assert reduced_homology_0(point) == ZERO_GROUP
    empty = SimplicialComplex(["a"], [])
    assert reduced_homology_0(empty) == ZERO_GROUP


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_betti_matches_rank_oracle_on_random_complexes(seed):
    rng = random.Random(seed)
    labels = list(range(6))
    maximal = set()
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, 4)
        maximal.add(tuple(sorted(rng.sample(labels, size))))
    s = SimplicialComplex.from_maximal(labels, maximal)
    c = chain_complex(s)
    c.verify_boundary_identity()
    for n in range(c.top_degree + 1):
        assert homology_all(c, up_to=n)[n].betti == betti_via_rank_oracle(c, n)
