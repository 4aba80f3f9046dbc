import pytest

from maghom import generate
from maghom.simplicial import SimplicialComplex
from oracles import chain_complex

# Six-vertex closed-surface triangulation with Euler characteristic 1
# (6 vertices, 15 edges, 10 faces; every edge lies in exactly two faces).
# Its first homology has a 2-torsion class, which makes it the standard
# smoke test for integer coefficients.
PROJECTIVE_PLANE_FACES = [
    (1, 2, 3),
    (1, 3, 4),
    (1, 2, 6),
    (1, 5, 6),
    (1, 4, 5),
    (2, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (3, 4, 6),
    (3, 5, 6),
]


@pytest.fixture(scope="session")
def sq2():
    return generate("sq2")


@pytest.fixture(scope="session")
def rp2_complex():
    return chain_complex(SimplicialComplex.from_maximal(range(1, 7), PROJECTIVE_PLANE_FACES))
