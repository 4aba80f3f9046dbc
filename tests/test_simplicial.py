import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import HomologyGroup
from maghom.homology import ZERO_GROUP, IntegerChainComplex, IntegerMatrix, homology_all
from maghom.simplicial import (
    SimplicialComplex,
    complex_to_dict,
    complex_to_off,
    downward_closure,
    relative_chain_complex,
)
from oracles import (
    assert_boundary_squares_to_zero,
    chain_complex,
    euler_characteristic,
    matrix_from_lists,
    pair_chain_complex,
)


def triangle_boundary():
    return SimplicialComplex.from_maximal("abc", ["ab", "bc", "ac"])


def full_triangle():
    return SimplicialComplex.from_maximal("abc", ["abc"])


# --- construction and validation ---------------------------------------------


def test_construction_requires_downward_closure():
    with pytest.raises(ValueError, match="closed"):
        SimplicialComplex("abc", [("a", "b")])  # faces 'a', 'b' missing


def test_construction_rejects_bad_labels():
    with pytest.raises(ValueError, match="unknown"):
        SimplicialComplex("ab", [("c",)])
    with pytest.raises(ValueError, match="repeated"):
        SimplicialComplex("ab", [("a",), ("b",), ("a", "a")])
    with pytest.raises(ValueError, match="empty"):
        SimplicialComplex("ab", [()])
    with pytest.raises(ValueError, match="duplicate"):
        SimplicialComplex(["a", "a"], [])


def test_from_maximal_closes_downward():
    s = full_triangle()
    assert len(list(s)) == 7  # 3 vertices + 3 edges + 1 face
    assert ("a", "b") in s
    assert ("a",) in s
    assert ("a", "b", "c") in s
    assert s.dim == 2
    assert s.maximal_simplices() == [("a", "b", "c")]


def test_downward_closure():
    assert downward_closure([("a", "b", "c")]) == {
        ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c"),
    }
    # two triangles on a common edge: the shared faces are listed once, each
    # in its simplex's label order
    assert downward_closure([(1, 2, 3), (2, 3, 4)]) == {
        (1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 2, 3), (2, 3, 4),
    }
    assert downward_closure([]) == frozenset()


def test_simplices_canonical_order():
    s = triangle_boundary()
    assert s.simplices_of_dim(0) == [("a",), ("b",), ("c",)]
    assert s.simplices_of_dim(1) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert s.simplices_of_dim(2) == []
    # Input vertex order inside a simplex does not matter.
    t = SimplicialComplex.from_maximal("abc", [("b", "a")])
    assert ("a", "b") in t


# --- chain complexes ----------------------------------------------------------


def test_chain_complex_of_triangle_boundary():
    c = chain_complex(triangle_boundary())
    assert [c.dim(n) for n in range(3)] == [3, 3, 0]
    # d_1 columns follow the canonical edge order ab, ac, bc.
    assert c.boundary(1).to_lists() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert_boundary_squares_to_zero(c)
    assert euler_characteristic(c) == 0


def test_chain_complex_boundary_of_face():
    c = chain_complex(full_triangle())
    assert c.boundary(2).to_lists() == [[1], [-1], [1]]
    assert_boundary_squares_to_zero(c)
    assert euler_characteristic(c) == 1


def test_boundary_identity_detects_corruption():
    c = chain_complex(full_triangle())
    bad = c.boundaries[2].to_lists()
    bad[1][0] = 1
    c.boundaries[2] = matrix_from_lists(bad)
    with pytest.raises(AssertionError, match="boundary identity"):
        assert_boundary_squares_to_zero(c)


def test_empty_complex_chain():
    c = chain_complex(SimplicialComplex("ab", []))
    assert c.top_degree == 0
    assert c.dim(0) == 0


def test_chain_complex_shape_errors():
    with pytest.raises(ValueError, match="^need one boundary matrix per degree$"):
        IntegerChainComplex([["x"]], [])
    with pytest.raises(ValueError, match="^boundary 1 has shape 0x1, expected 1x1$"):
        IntegerChainComplex([["x"], ["y"]], [IntegerMatrix(0, 1), IntegerMatrix(0, 1)])


# --- relative complexes --------------------------------------------------------


def test_relative_pair_validation():
    # Sub lives on a different label universe, so it is not a subcomplex.
    other = SimplicialComplex.from_maximal("abcd", ["cd"])
    with pytest.raises(ValueError, match="subcomplex"):
        pair_chain_complex(full_triangle(), other)
    # The same labels in another order are another universe too.
    reordered = SimplicialComplex.from_maximal("cba", ["bc"])
    with pytest.raises(ValueError, match="subcomplex"):
        pair_chain_complex(full_triangle(), reordered)
    # A simplex of sub that the total complex lacks is named.
    with pytest.raises(ValueError, match=r"subcomplex.*\('a', 'b', 'c'\)"):
        pair_chain_complex(triangle_boundary(), full_triangle())


def test_relative_cell_validation():
    with pytest.raises(ValueError, match="unknown label"):
        relative_chain_complex("abc", [("a", "d")])
    with pytest.raises(ValueError, match="repeated label"):
        relative_chain_complex("abc", [("b", "b")])
    with pytest.raises(ValueError, match="empty simplex"):
        relative_chain_complex("abc", [("a",), ()])
    with pytest.raises(ValueError, match="duplicate label"):
        relative_chain_complex("aba", [("a",)])


@pytest.mark.parametrize("labels, simplex, message", [
    ("aba", ("a",), "duplicate label in universe"),
    ("abc", ("a", "d"), "unknown label in simplex: 'd'"),
    ("abc", ("b", "b"), "repeated label in simplex: ('b', 'b')"),
    ("abc", (), "the empty simplex is not allowed"),
])
def test_one_normal_form_validates_every_entry_point(labels, simplex, message):
    builders = (SimplicialComplex, SimplicialComplex.from_maximal, relative_chain_complex)
    for build in builders:
        with pytest.raises(ValueError) as info:
            build(labels, [simplex])
        assert str(info.value) == message, build


def test_relative_cells_follow_universe_order():
    # cells may come in any label order and any sequence; the basis is
    # sorted by the universe, and facets that are not cells are dropped
    c = relative_chain_complex("cba", {("a", "b"), ("c", "a"), ("a", "b", "c"), ("b",)})
    assert [c.basis(n) for n in range(3)] == [
        [("b",)], [("c", "a"), ("b", "a")], [("c", "b", "a")],
    ]
    assert list(c.boundary(1).columns) == [{}, {0: -1}]
    assert list(c.boundary(2).columns) == [{0: -1, 1: 1}]


def test_relative_disk_mod_boundary_is_sphere():
    c = pair_chain_complex(full_triangle(), triangle_boundary())
    assert c.basis(2) == [("a", "b", "c")]
    assert c.basis(1) == []
    assert_boundary_squares_to_zero(c)
    groups = homology_all(c, 2)
    assert groups == [ZERO_GROUP, ZERO_GROUP, HomologyGroup(1)]


def test_relative_with_empty_sub_matches_absolute():
    s = triangle_boundary()
    empty = SimplicialComplex("abc", [])
    rel = pair_chain_complex(s, empty)
    absolute = chain_complex(s)
    assert [rel.dim(n) for n in range(3)] == [absolute.dim(n) for n in range(3)]
    assert homology_all(rel, up_to=1)[1] == homology_all(absolute, up_to=1)[1]


def test_relative_everything_collapsed():
    s = full_triangle()
    rel = pair_chain_complex(s, s)
    assert rel.dim(0) == 0 and rel.top_degree == 0


# --- serialization ---------------------------------------------------------------


def test_complex_to_dict_roundtrip_fields():
    s = full_triangle()
    d = complex_to_dict(s)
    assert d["format_version"] == 1
    assert d["dim"] == 2
    assert d["label_universe"] == ["a", "b", "c"]
    assert d["maximal_simplices"] == [["a", "b", "c"]]


def test_complex_to_dict_with_annotations():
    s = triangle_boundary()
    d = complex_to_dict(s, annotate=lambda simplex: {"size": len(simplex)})
    sizes = {tuple(rec["labels"]): rec["size"] for rec in d["simplices"]}
    assert sizes[("a", "b")] == 2
    assert sizes[("a",)] == 1


def test_complex_to_off_output():
    # (position, vertex) labels, as in an exported K pair: x is the
    # position, y the vertex's rank in first-appearance order
    labels = [(1, "b"), (1, "a"), (2, "a"), (3, "b"), (3, "c")]
    s = SimplicialComplex.from_maximal(
        labels, [[(1, "b"), (2, "a"), (3, "c")], [(1, "a"), (2, "a")], [(3, "b")]]
    )
    assert complex_to_off(s) == (
        "OFF\n"
        "5 3 4\n"
        "1 0 0  # (1, 'b')\n"
        "1 1 0  # (1, 'a')\n"
        "2 1 0  # (2, 'a')\n"
        "3 0 0  # (3, 'b')\n"
        "3 2 0  # (3, 'c')\n"
        "3 0 2 4\n"  # the triangle, then the maximal vertex and edge
        "1 3\n"
        "2 1 2\n"
    )


def test_complex_to_off_rejects_high_dim():
    s = SimplicialComplex.from_maximal("abcde", [("a", "b", "c", "d", "e")])
    with pytest.raises(ValueError, match="dimension"):
        complex_to_off(s)


# --- randomized properties --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_complex_boundary_identity_and_euler(seed):
    rng = random.Random(seed)
    labels = list(range(7))
    maximal = set()
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, 4)
        maximal.add(tuple(sorted(rng.sample(labels, size))))
    s = SimplicialComplex.from_maximal(labels, maximal)
    # labels are their own universe positions, so canonical order is
    # (size, tuple) order
    simplices = set(s)
    brute_maximal = [x for x in simplices if not any(set(x) < set(y) for y in simplices)]
    assert s.maximal_simplices() == sorted(brute_maximal, key=lambda x: (len(x), x))
    c = chain_complex(s)
    assert_boundary_squares_to_zero(c)
    groups = homology_all(c, c.top_degree)
    euler_from_betti = sum((-1) ** n * groups[n].betti for n in range(len(groups)))
    assert euler_characteristic(c) == euler_from_betti
