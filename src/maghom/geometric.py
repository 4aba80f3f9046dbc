"""The geometric route to magnitude homology via positioned-subsequence pairs.

For endpoints (a, b) and length l, the complex K_l(a, b) lives on labels
(position, vertex) with positions 1..l-1.  A simplex is any nonempty set of
positioned interior vertices realized by some walk from a to b with at most
l steps.  The subcomplex K'_l(a, b) keeps the simplices whose endpoint-closed
tuple (a, x_{i_1}, ..., x_{i_k}, b) has total length at most l - 1.

Reading a relative simplex's positioned vertices in position order and
closing with the endpoints is a degree-preserving bijection onto the
magnitude basis two degrees up, under which the relative simplicial boundary
is the negated magnitude boundary.  Homology therefore transports:
MH_{k,l}(a, b) is H_{k-2} of the pair for k >= 3, and for k = 2 it is
H_0 of the pair when d(a, b) < l, or reduced H_0 of the total complex when
d(a, b) = l (the subcomplex is then empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import enumerate_walks, sequence_length
from .homology import ZERO_GROUP, HomologyGroup, homology_all
from .magnitude import ComponentKey, magnitude_chain_complex, magnitude_homology_direct
from .simplicial import SimplicialComplex, relative_chain_complex


class InternalCheckError(RuntimeError):
    """An internal consistency invariant failed; results are not trustworthy."""


@dataclass(frozen=True)
class KPair:
    """The pair (K_l(a,b), K'_l(a,b)) for one component key."""

    key: ComponentKey
    total: SimplicialComplex
    sub: SimplicialComplex


def interior_tuple(key, simplex):
    """The endpoint-closed vertex tuple of a positioned simplex."""
    return (key.a,) + tuple(v for _, v in simplex) + (key.b,)


def interior_length(g, key, simplex):
    """Total length of the endpoint-closed tuple of a simplex."""
    return sequence_length(g, interior_tuple(key, simplex))


def build_k_pair(g, key):
    """Construct (K_l(a,b), K'_l(a,b)).

    Requires l >= 3.  Every walk with at most l steps contributes the
    downward closure of its full positioned interior; the union over walks
    is K.  A pair at distance greater than l yields the empty pair.  Labels
    are (position, vertex), ordered by position first and vertex order
    second, so that simplex orientation agrees with position order.
    """
    a, b, l = key
    if l < 3:
        raise ValueError(f"the geometric construction needs l >= 3, got {l}")
    g.index(a), g.index(b)

    universe = [(pos, v) for pos in range(1, l) for v in g.vertices]
    simplices = set()
    for walk in enumerate_walks(g, a, b, l):
        steps = len(walk) - 1
        candidate = tuple((i, walk[i]) for i in range(1, steps))
        for size in range(1, len(candidate) + 1):
            simplices.update(combinations(candidate, size))
    total = SimplicialComplex(universe, simplices)

    sub_simplices = [s for s in simplices if interior_length(g, key, s) <= l - 1]
    sub = SimplicialComplex(universe, sub_simplices)
    return KPair(key=key, total=total, sub=sub)


@dataclass
class ChainMapT:
    """The degree-shifting identification between the two chain complexes.

    ``pairs_by_degree[n]`` aligns the degree-n relative basis with the
    degree-(n+2) magnitude basis: a list of (simplex, sequence) pairs in
    relative basis order.  Construction verifies the map is a bijection on
    bases; ``verify_chain_map`` checks the sign-flip identity of the
    boundary matrices.
    """

    key: ComponentKey
    relative_complex: object
    magnitude_complex: object
    pairs_by_degree: list = field(default_factory=list)


def chain_map_t(g, kpair):
    """Build and validate the basis identification for a K pair.

    Checks, degree by degree, that closing each relative simplex with the
    endpoints gives exactly the magnitude basis two degrees up, and that
    positions are recoverable as cumulative distances along the tuple.
    Raises InternalCheckError on any failure.
    """
    key = kpair.key
    rel = relative_chain_complex(kpair.total, kpair.sub)
    # relative simplices use distinct positions from 1..l-1, so the relative
    # complex tops out at degree l-2 and the magnitude complex at degree l
    mag = magnitude_chain_complex(g, key, key.l + 1)

    mapping = ChainMapT(key=key, relative_complex=rel, magnitude_complex=mag)
    for n in range(max(key.l - 1, 0)):
        rel_basis = rel.basis(n)
        mag_basis = mag.basis(n + 2)
        images = []
        for simplex in rel_basis:
            seq = interior_tuple(key, simplex)
            if sequence_length(g, seq) != key.l:
                raise InternalCheckError(
                    f"relative simplex {simplex!r} has interior length != l"
                )
            # positions must equal cumulative distances along the sequence
            steps = [g.distance(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
            expected_pos = 0
            for (pos, _), step in zip(simplex, steps):
                expected_pos += step
                if pos != expected_pos:
                    raise InternalCheckError(
                        f"position mismatch in {simplex!r}: {pos} != {expected_pos}"
                    )
            images.append(seq)
        if sorted(images) != sorted(mag_basis) or len(set(images)) != len(images):
            raise InternalCheckError(
                f"degree {n} basis bijection fails for {key}: "
                f"{len(images)} relative simplices vs {len(mag_basis)} sequences"
            )
        mapping.pairs_by_degree.append(list(zip(rel_basis, images)))
    return mapping


def verify_chain_map(g, mapping):
    """Check the boundary identity: relative d = -(magnitude d) under t.

    For every relative degree n >= 1, each relative boundary column has its
    rows carried through the basis bijection and its signs negated, and must
    then equal the magnitude column of the matching sequence.  Raises
    InternalCheckError on failure.
    """
    rel = mapping.relative_complex
    mag = mapping.magnitude_complex
    for n in range(1, len(mapping.pairs_by_degree)):
        mag_columns = mag.boundary(n + 2).columns
        mag_index = {seq: i for i, seq in enumerate(mag.basis(n + 2))}
        mag_index_prev = {seq: i for i, seq in enumerate(mag.basis(n + 1))}
        row_map = [mag_index_prev[seq] for _, seq in mapping.pairs_by_degree[n - 1]]
        for (simplex, seq), column in zip(mapping.pairs_by_degree[n], rel.boundary(n).columns):
            image = {row_map[r]: -x for r, x in column.items()}
            if image != mag_columns[mag_index[seq]]:
                raise InternalCheckError(
                    f"boundary sign identity fails at degree {n}, "
                    f"column of simplex {simplex!r} in component {mapping.key}"
                )
    return True


def magnitude_homology_geometric(g, key, kmax=None):
    """MH_{k,l}(a, b) for 0 <= k <= kmax via the relative pair.

    Degrees k >= 3 read H_{k-2} of the pair; k = 2 uses H_0 of the pair when
    d(a, b) < l and reduced H_0 of the total complex when d(a, b) = l;
    degrees 0 and 1 are delegated to the direct route (their chain groups
    are at most one-dimensional).  Requires l >= 3.
    """
    a, b, l = key
    if kmax is None:
        kmax = l
    if l < 3:
        raise ValueError(f"the geometric method needs l >= 3, got {l}")
    low = magnitude_homology_direct(g, key, kmax=min(1, kmax))
    out = list(low)
    if kmax < 2:
        return out

    if g.distance(a, b) > l:
        out.extend(ZERO_GROUP for _ in range(2, kmax + 1))
        return out

    kpair = build_k_pair(g, key)
    rel = relative_chain_complex(kpair.total, kpair.sub)
    rel_homology = homology_all(rel, up_to=max(kmax - 2, 0))

    if g.distance(a, b) < l:
        out.append(rel_homology[0])
    else:
        # every interior tuple is at least d(a, b) = l long, so K' is empty,
        # the pair's H_0 is H_0 of K, and reduced H_0 drops one Z
        if len(kpair.sub):
            raise InternalCheckError(f"K' of {key} is not empty although d(a, b) = l")
        out.append(HomologyGroup(max(rel_homology[0].betti - 1, 0)))
    for k in range(3, kmax + 1):
        out.append(rel_homology[k - 2] if k - 2 < len(rel_homology) else ZERO_GROUP)
    return out


# -- cross-validation ---------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    key: ComponentKey
    k: int
    direct: object
    geometric: object

    def describe(self):
        return (
            f"component (a={self.key.a}, b={self.key.b}, l={self.key.l}), degree {self.k}: "
            f"direct {self.direct.describe()} vs geometric {self.geometric.describe()}"
        )


@dataclass
class CrossValidationReport:
    graph: object
    l: int
    kmax: int
    pairs_checked: int = 0
    chain_checks: int = 0
    mismatch: Mismatch | None = None

    @property
    def ok(self):
        return self.mismatch is None

    def describe(self):
        if self.ok:
            return (
                f"l={self.l}: {self.pairs_checked} components agree "
                f"({self.chain_checks} chain-level identities checked)"
            )
        return f"l={self.l}: MISMATCH at {self.mismatch.describe()}"


def cross_validate(g, l, kmax=None):
    """Compare the direct and geometric routes on every component of a graph.

    Checks betti and torsion for all ordered pairs (a, b) and all degrees
    2 <= k <= kmax, and the chain-level basis bijection and boundary sign
    identity.  Stops at the first mismatch and reports it.
    Internal invariant failures raise InternalCheckError instead of being
    reported as mismatches.
    """
    if kmax is None:
        kmax = l
    report = CrossValidationReport(graph=g, l=l, kmax=kmax)
    for a in g.vertices:
        for b in g.vertices:
            key = ComponentKey(a, b, l)
            direct = magnitude_homology_direct(g, key, kmax)
            geometric = magnitude_homology_geometric(g, key, kmax)
            report.pairs_checked += 1
            for k in range(2, kmax + 1):
                if direct[k] != geometric[k]:
                    report.mismatch = Mismatch(key, k, direct[k], geometric[k])
                    return report
            if g.distance(a, b) <= l:
                kpair = build_k_pair(g, key)
                mapping = chain_map_t(g, kpair)
                verify_chain_map(g, mapping)
                report.chain_checks += 1
    return report
