import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom import HomologyGroup
from maghom.homology import IntegerMatrix, ZERO_GROUP, homology_all
from maghom.simplicial import (
    SimplicialComplex,
    SimplicialPair,
    chain_complex,
    complex_to_dict,
    complex_to_off,
    relative_chain_complex,
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
    assert len(s) == 7  # 3 vertices + 3 edges + 1 face
    assert ("a", "b") in s
    assert ("a",) in s
    assert ("a", "b", "c") in s
    assert s.dim == 2
    assert s.maximal_simplices() == [("a", "b", "c")]


def test_simplices_canonical_order():
    s = triangle_boundary()
    assert s.simplices_of_dim(0) == [("a",), ("b",), ("c",)]
    assert s.simplices_of_dim(1) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert s.simplices_of_dim(2) == []
    # Input vertex order inside a simplex does not matter.
    t = SimplicialComplex.from_maximal("abc", [("b", "a")])
    assert ("a", "b") in t


def test_component_count():
    assert triangle_boundary().component_count() == 1
    two = SimplicialComplex.from_maximal("abcd", ["ab", "cd"])
    assert two.component_count() == 2
    assert SimplicialComplex("ab", []).component_count() == 0


def test_is_subcomplex_of():
    assert triangle_boundary().is_subcomplex_of(full_triangle())
    assert not full_triangle().is_subcomplex_of(triangle_boundary())


# --- chain complexes ----------------------------------------------------------


def test_chain_complex_of_triangle_boundary():
    c = chain_complex(triangle_boundary())
    assert [c.dim(n) for n in range(3)] == [3, 3, 0]
    # d_1 columns follow the canonical edge order ab, ac, bc.
    assert c.boundary(1).to_lists() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    c.verify_boundary_identity()
    assert c.euler_characteristic() == 0


def test_chain_complex_boundary_of_face():
    c = chain_complex(full_triangle())
    assert c.boundary(2).to_lists() == [[1], [-1], [1]]
    c.verify_boundary_identity()
    assert c.euler_characteristic() == 1


def test_boundary_identity_detects_corruption():
    c = chain_complex(full_triangle())
    bad = c.boundaries[2].to_lists()
    bad[1][0] = 1
    c.boundaries[2] = IntegerMatrix(bad)
    with pytest.raises(ValueError, match="boundary"):
        c.verify_boundary_identity()


def test_empty_complex_chain():
    c = chain_complex(SimplicialComplex("ab", []))
    assert c.top_degree == 0
    assert c.dim(0) == 0


# --- relative complexes --------------------------------------------------------


def test_relative_pair_validation():
    # Sub lives on a different label universe, so it is not a subcomplex.
    other = SimplicialComplex.from_maximal("abcd", ["cd"])
    with pytest.raises(ValueError, match="subcomplex"):
        SimplicialPair(full_triangle(), other)


def test_relative_disk_mod_boundary_is_sphere():
    pair = SimplicialPair(full_triangle(), triangle_boundary())
    assert pair.relative_simplices(2) == [("a", "b", "c")]
    assert pair.relative_simplices(1) == []
    c = relative_chain_complex(pair)
    c.verify_boundary_identity()
    groups = homology_all(c, 2)
    assert groups == [ZERO_GROUP, ZERO_GROUP, HomologyGroup(1)]


def test_relative_with_empty_sub_matches_absolute():
    s = triangle_boundary()
    empty = SimplicialComplex("abc", [])
    rel = relative_chain_complex(SimplicialPair(s, empty))
    absolute = chain_complex(s)
    assert [rel.dim(n) for n in range(3)] == [absolute.dim(n) for n in range(3)]
    assert homology_all(rel, up_to=1)[1] == homology_all(absolute, up_to=1)[1]


def test_relative_everything_collapsed():
    s = full_triangle()
    rel = relative_chain_complex(SimplicialPair(s, s))
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
    text = complex_to_off(full_triangle())
    lines = text.splitlines()
    assert lines[0] == "OFF"
    counts = lines[1].split()
    assert counts[0] == "3"  # vertices
    assert any(line.startswith("3 ") for line in lines[2:])  # one triangle


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
    c = chain_complex(s)
    c.verify_boundary_identity()
    groups = homology_all(c, c.top_degree)
    euler_from_betti = sum((-1) ** n * groups[n].betti for n in range(len(groups)))
    assert c.euler_characteristic() == euler_from_betti
