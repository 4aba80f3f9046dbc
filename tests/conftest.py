import contextlib
import io
import itertools
import traceback

import pytest

from maghom import generate
from maghom.cli import main
from maghom.simplicial import SimplicialComplex, downward_closure
from oracles import chain_complex, face_poset_graph

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

# The hemi-octahedron: the octahedron modulo the antipodal map, a regular
# cell complex on RP^2 with 3 vertices, 6 edges and 4 triangles.  The
# vertices x, y, z are the antipodal pairs of axis points; the two edges
# between two of them are told apart by the sign s * t of an octahedron
# edge (s x, t y), and the triangle (x, t y, u z) has the edges of signs
# t, u and t * u.
HEMI_OCTAHEDRON_CELLS = {
    "x": (), "y": (), "z": (),
    **{f"{p}{q}{s}": (p, q) for p, q in ("xy", "xz", "yz") for s in "+-"},
    **{f"T{t}{u}": (f"xy{t}", f"xz{u}", f"yz{'+' if t == u else '-'}")
       for t in "+-" for u in "+-"},
}


def run_cli(*argv):
    """(exit code, stdout, stderr) of one maghom command run in this process.

    An exception that ends the command ends it as the interpreter would: a
    traceback on stderr and exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def sq2():
    return generate("sq2")


@pytest.fixture(scope="session")
def rp2_complex():
    return chain_complex(SimplicialComplex(range(1, 7), downward_closure(PROJECTIVE_PLANE_FACES)))


@pytest.fixture(scope="session")
def hemi():
    # 15 vertices and 31 edges; MH_{3,4}(bottom, top) = Z/2
    return face_poset_graph(HEMI_OCTAHEDRON_CELLS)


def simplicial_cells(faces):
    """Every simplex spanned by the given faces, as a cell with its facets."""
    simplices = sorted(
        {s for f in faces for n in range(1, len(f) + 1) for s in itertools.combinations(sorted(f), n)},
        key=lambda s: (len(s), s),
    )

    def name(s):
        return ".".join(map(str, s))

    return {name(s): tuple(name(t) for t in itertools.combinations(s, len(s) - 1)) if len(s) > 1 else ()
            for s in simplices}


@pytest.fixture(scope="session")
def rp2_graph():
    # 6 vertices, 15 edges and 10 triangles, with bottom and top
    return face_poset_graph(simplicial_cells(PROJECTIVE_PLANE_FACES))
