"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single line
``ACCEPTANCE n: PASS/FAIL - <claim>`` so the run log doubles as a scorecard.
The asserts inside carry the details; a test only reports PASS after every
one of them has held.
"""

import itertools
import random
import time
from contextlib import contextmanager

from maghom import (
    ComponentKey,
    HomologyGroup,
    build_k_pair,
    build_table,
    cross_validate,
    enumerate_walks,
    generate,
    magnitude_homology_direct,
    magnitude_homology_geometric,
    random_connected_graph,
    sq2_pair_types,
    tree_magnitude_closed_form,
)
from maghom.homology import (
    IntegerChainComplex,
    IntegerMatrix,
    ZERO_GROUP,
    homology_all,
    smith_normal_form,
)
from maghom.magnitude import magnitude_chain_complex
from maghom.simplicial import SimplicialComplex, downward_closure, relative_chain_complex
from oracles import (
    assert_boundary_squares_to_zero,
    chain_complex,
    decoded_cells,
    dense_product,
    invariant_factors_by_minors,
    matrix_from_lists,
    metric,
    random_int_matrix,
    rank_over_q,
    rational_rank,
    tuple_length,
    unimodular_matrix,
)
from conftest import PROJECTIVE_PLANE_FACES

# Seed for every randomized battery below; change it and the exact instances
# change, but all assertions are seed-independent claims.
RANDOM_BATTERY_SEED = 31337


@contextmanager
def criterion(n, claim):
    outcome = {"detail": ""}
    ok = False
    try:
        yield outcome
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        suffix = f" [{outcome['detail']}]" if outcome["detail"] else ""
        print(f"\nACCEPTANCE {n}: {status} - {claim}{suffix}")


def test_criterion_1_sq2_totals_by_both_methods():
    with criterion(1, "sq2 l=4 totals: k=2 zero, k=3 rank 12, k=4 rank 112, "
                      "no torsion, direct and geometric, under 60 s") as out:
        start = time.monotonic()
        g = generate("sq2")
        totals = {}
        for method in ("direct", "geometric"):
            table = build_table(g, 4, 4, method, graph_spec="sq2")
            totals[method] = table.totals()
        elapsed = time.monotonic() - start
        for method, groups in totals.items():
            assert [h.betti for h in groups] == [0, 0, 0, 12, 112], method
            assert all(h.torsion == () for h in groups), method
        assert totals["direct"] == totals["geometric"]
        assert elapsed < 60, f"took {elapsed:.1f}s"
        out["detail"] = f"both methods in {elapsed:.1f}s"


def test_criterion_2_sq2_per_type_table():
    with criterion(2, "sq2 l=4 per-type ranks: k=3 (0,0,8,4,0,0,0,0), "
                      "k=4 (12,40,0,0,32,0,20,8), k=2 all zero") as out:
        g = generate("sq2")
        table = build_table(g, 4, 4, "direct", graph_spec="sq2")
        labeling = {tuple(k.split(",")): v for k, v in sq2_pair_types().items()}
        table.apply_types(labeling)
        order = ["(a,a)", "(a,b)", "(a,c)", "(a,d)", "(b,b)", "(b,c)", "(b,f)", "(b,e)"]
        assert list(table.type_groups) == order
        rows = {
            k: [table.type_groups[lab][k].betti for lab in order] for k in (2, 3, 4)
        }
        assert rows[2] == [0, 0, 0, 0, 0, 0, 0, 0]
        assert rows[3] == [0, 0, 8, 4, 0, 0, 0, 0]
        assert rows[4] == [12, 40, 0, 0, 32, 0, 20, 8]
        for lab in order:
            assert all(h.torsion == () for h in table.type_groups[lab])
        out["detail"] = "8 symmetry types, 36 pairs"


def test_criterion_3_component_spot_checks():
    with criterion(3, "sq2 components: MH_{4,4}(a,a)=Z^6, MH_{3,4}(a,d)=Z^2, "
                      "8 maximal 2-simplices in the (a,a) complex, "
                      "4 walks in the (a,d) component") as out:
        g = generate("sq2")
        for route in (magnitude_homology_direct, magnitude_homology_geometric):
            aa = route(g, ComponentKey("a", "a", 4), 4)
            assert aa[4] == HomologyGroup(6)
            assert aa[:4] == [ZERO_GROUP] * 4
            ad = route(g, ComponentKey("a", "d", 4), 4)
            assert ad[3] == HomologyGroup(2)
            assert ad[0] == ad[1] == ad[2] == ad[4] == ZERO_GROUP
        kp = build_k_pair(g, ComponentKey("a", "a", 4))
        maximal = SimplicialComplex(kp.labels[1:-1], kp.total).maximal_simplices()
        assert len(maximal) == 8
        assert all(len(s) == 3 for s in maximal)
        ad_walks = [w for w in enumerate_walks(g, "a", "d", 4) if len(w) == 5]
        assert len(ad_walks) == 4
        out["detail"] = "both methods on both components"


def test_criterion_4_tree_diagonality():
    with criterion(4, "20 random trees (3-8 vertices) x l in {3,4,5}: total "
                      "MH is Z^(2#E) at k=l and zero at 3<=k!=l, by closed "
                      "form, tree, geometric, and direct routes") as out:
        checked = 0
        for i in range(20):
            n = 3 + (i % 6)
            g = generate(f"random-tree:{n}:{100 + i}")
            for l in (3, 4, 5):
                tables = {
                    method: build_table(g, l, l, method)
                    for method in ("direct", "geometric", "tree")
                }
                totals = {m: t.totals() for m, t in tables.items()}
                for k in range(3, l + 1):
                    closed = tree_magnitude_closed_form(g, l, k)
                    for method, groups in totals.items():
                        assert groups[k] == closed, (method, n, l, k)
                        assert groups[k].torsion == ()
                expected_top = HomologyGroup(2 * g.num_edges)
                assert totals["direct"][l] == expected_top
                checked += 1
        assert checked == 60
        out["detail"] = f"{checked} (tree, l) combinations"


def test_criterion_5_random_graph_cross_validation():
    with criterion(5, "50 random connected graphs (n<=6, l<=5): geometric and "
                      "direct groups identical for every pair and 0<=k<=l, "
                      "with chain-level bijection and boundary identity, "
                      f"seed {RANDOM_BATTERY_SEED}") as out:
        rng = random.Random(RANDOM_BATTERY_SEED)
        pairs = chains = 0
        for trial in range(50):
            g = random_connected_graph(rng, n_max=6)
            l = rng.randint(3, 5)
            report = cross_validate(g, l)
            assert report.ok, f"trial {trial}: {report.describe()}"
            pairs += report.pairs_checked
            chains += report.chain_checks
        assert pairs >= 50 * 4  # n >= 2 means at least 4 ordered pairs each
        assert chains > 0
        out["detail"] = f"{pairs} components, {chains} chain identities"


def test_criterion_6_degree_two_branches():
    with criterion(6, "k=2: at d(a,b)=l the (a,b) cell reduces H0 of the "
                      "total complex, at d(a,b)<l relative H0 decides, both "
                      "agree with the direct route (zero and nonzero "
                      "instances)") as out:
        # d(a, b) = l: the cut-out subcomplex is empty, the empty interior is
        # the cell (a, b), and reduced H~0 of the total complex decides the
        # group.
        equal_cases = [
            ("cycle:6", "v0", "v3", 3, HomologyGroup(1)),  # two geodesics
            ("cycle:7", "v0", "v3", 3, ZERO_GROUP),  # single geodesic
            ("path:5", "v0", "v4", 4, ZERO_GROUP),
        ]
        for spec, a, b, l, expected in equal_cases:
            g = generate(spec)
            key = ComponentKey(a, b, l)
            assert metric(g)[a][b] == l
            kp = build_k_pair(g, key)
            cells = decoded_cells(kp)
            assert len(kp.total - {cell[1:-1] for cell in cells}) == 0
            assert ((0, a), (l, b)) in cells
            geo = magnitude_homology_geometric(g, key)
            assert geo[2] == expected
            assert geo == magnitude_homology_direct(g, key)
        # d(a, b) < l: the group is relative H0 of the pair.
        below_cases = [
            ("cycle:5", "v0", "v2", 3, HomologyGroup(1)),
            ("sq2", "a", "b", 4, ZERO_GROUP),
            ("sq2", "a", "d", 4, ZERO_GROUP),
        ]
        for spec, a, b, l, expected in below_cases:
            g = generate(spec)
            key = ComponentKey(a, b, l)
            assert metric(g)[a][b] < l
            kp = build_k_pair(g, key)
            cells = decoded_cells(kp)
            assert ((0, a), (l, b)) not in cells
            if len(kp.total):
                assert len(kp.total - {cell[1:-1] for cell in cells}) > 0
            geo = magnitude_homology_geometric(g, key)
            assert geo[2] == expected
            assert geo == magnitude_homology_direct(g, key)
        out["detail"] = "3 instances per branch, nonzero cases included"


def _assert_downward_closed(complex_):
    for s in complex_:
        if len(s) > 1:
            for facet in itertools.combinations(s, len(s) - 1):
                assert facet in complex_


def _assert_position_rigidity(g, key, labels, rel):
    # Positions of a relative cell are forced: from 0 at a to l at b, they
    # equal the cumulative distances along its vertex tuple.
    for n in range(rel.top_degree + 1):
        for cell in rel.basis(n):
            cell = tuple(map(labels.__getitem__, cell))
            seq = tuple(v for _, v in cell)
            assert (seq[0], seq[-1]) == (key.a, key.b)
            positions = [pos for pos, _ in cell]
            expected = [tuple_length(g, seq[: i + 1]) for i in range(len(seq))]
            assert positions == expected and positions[-1] == key.l


def test_criterion_7_structural_invariants():
    with criterion(7, "structural suite: dd=0 and downward closure on every "
                      "constructed complex, position rigidity of relative "
                      "simplices, SNF chain against gcd-of-minors, betti vs "
                      "rational-rank oracle, Euler identity per component") as out:
        g = generate("sq2")
        complexes = 0
        for l in (3, 4):
            for a, b in itertools.product(g.vertices, repeat=2):
                key = ComponentKey(a, b, l)
                mc = magnitude_chain_complex(g, key, l)
                assert_boundary_squares_to_zero(mc)
                groups = homology_all(mc, l)
                # Euler identity: alternating dims equal alternating bettis.
                dims = sum((-1) ** k * mc.dim(k) for k in range(l + 1))
                bettis = sum((-1) ** k * groups[k].betti for k in range(l + 1))
                assert dims == bettis
                # Betti numbers against the fraction-free rank oracle.
                for k in range(l + 1):
                    dim = mc.dim(k)
                    oracle = dim - rank_over_q(mc.boundary(k)) - rank_over_q(mc.boundary(k + 1))
                    assert groups[k].betti == oracle
                kp = build_k_pair(g, key)
                interiors = {cell[1:-1] for cell in decoded_cells(kp)}
                _assert_downward_closed(kp.total)
                _assert_downward_closed(kp.total - interiors)
                assert interiors - {()} <= kp.total
                rel = relative_chain_complex(kp.incidence)
                _assert_position_rigidity(g, key, kp.labels, rel)
                assert_boundary_squares_to_zero(rel)
                complexes += 3
        # Exact linear algebra battery on seeded random matrices.
        rng = random.Random(RANDOM_BATTERY_SEED)
        for _ in range(300):
            a = random_int_matrix(rng, max_dim=5, max_entry=9)
            diag = smith_normal_form(a)
            assert all(d > 0 for d in diag)
            assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
            assert diag == invariant_factors_by_minors(a)
            assert len(diag) == rational_rank(a) == rank_over_q(a)
        out["detail"] = f"{complexes} graph complexes, 300 SNF matrices"


def test_criterion_8_torsion_engine():
    with criterion(8, "torsion: projective-plane H1 = Z/2 exactly, synthetic "
                      "complexes reproduce prescribed invariant factors, no "
                      "spurious torsion on free examples") as out:
        rp2 = chain_complex(
            SimplicialComplex(range(1, 7), downward_closure(PROJECTIVE_PLANE_FACES))
        )
        groups = homology_all(rp2, 2)
        assert groups[0] == HomologyGroup(1)
        assert groups[1] == HomologyGroup(0, (2,))
        assert groups[2] == ZERO_GROUP

        rng = random.Random(RANDOM_BATTERY_SEED)
        prescriptions = [(2,), (3,), (2, 6), (2, 2, 4), (5, 5), (2, 4, 8), (7,)]
        for factors in prescriptions:
            n = len(factors) + rng.randint(0, 2)
            u = unimodular_matrix(rng, n)
            v = unimodular_matrix(rng, n)
            d = [
                [factors[i] if i == j and i < len(factors) else 0 for j in range(n)]
                for i in range(n)
            ]
            a = matrix_from_lists(dense_product(dense_product(u, d), v))
            cx = IntegerChainComplex(
                bases=[[f"e{i}" for i in range(n)], [f"f{i}" for i in range(n)]],
                boundaries=[IntegerMatrix(0, n), a],
            )
            h0 = homology_all(cx, up_to=0)[0]
            assert h0.torsion == tuple(f for f in factors if f > 1)
            assert h0.betti == n - len(factors)

        # Free examples must come out torsion-free.
        g = generate("sq2")
        table = build_table(g, 4, 4, "direct")
        assert all(h.torsion == () for gs in table.pair_groups.values() for h in gs)
        circle = chain_complex(
            SimplicialComplex("abc", downward_closure(["ab", "bc", "ac"]))
        )
        assert homology_all(circle, up_to=1)[1] == HomologyGroup(1)
        out["detail"] = f"{len(prescriptions)} prescribed factor sets"
