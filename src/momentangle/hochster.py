"""Independent oracle for the bigraded cohomology via vertex restrictions.

The group in bidegree (-p, 2q) decomposes as a direct sum, over all
q-element vertex subsets J, of the reduced simplicial cohomology of the
restriction of the complex to J in degree q - p - 1.  This route never
touches the cochain algebra, so it cross-checks the algebra engine
end to end.

Each bidegree is assembled in one pass over the subsets J.  A bidegree
in which the complex has no face of size q - p is zero outright, with no
restriction built.  Otherwise restrictions with the same faces in the
three sizes that the degree q - p - 1 reads share a single cohomology
solve; the shared results live only as long as that one bidegree.

Reduced cohomology here is augmented: the empty face spans a copy of Z in
degree -1, so the complex whose only face is the empty one has reduced
cohomology Z in degree -1 and nothing anywhere else.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import (
    HomologyResult,
    IntMatrix,
    check_ring,
    homology_of_pair,
    invariant_factor_chain,
)
from .simplicial import SimplicialComplex, full_subcomplex


def coboundary_matrix(K: SimplicialComplex, d: int) -> IntMatrix:
    """Augmented simplicial coboundary from cochain degree d to d + 1.

    Cochain degree d is spanned by the faces with d + 1 vertices; degree -1
    is the empty face.  The entry for (tau, sigma) is the alternating sign
    of the vertex whose removal takes tau to sigma.
    """
    lower = K.faces_of_size(d + 1)
    upper = K.faces_of_size(d + 2)
    index = {f: i for i, f in enumerate(lower)}
    M = IntMatrix(len(upper), len(lower))
    for r, tau in enumerate(upper):
        for j in range(len(tau)):  # distinct deletions, so each entry is written once
            sigma = tau[:j] + tau[j + 1:]
            M.rows[r][index[sigma]] = -1 if j % 2 else 1
    return M


def reduced_cohomology(K: SimplicialComplex, d: int, ring: str = "Z") -> HomologyResult:
    """Reduced simplicial cohomology of K in degree d, exact over Z or Q."""
    check_ring(ring)
    if not K.faces_of_size(d + 1):
        return HomologyResult(0, (), ())
    d_out = coboundary_matrix(K, d)
    d_in = coboundary_matrix(K, d - 1)
    return homology_of_pair(d_in, d_out, ring=ring, want_representatives=False)


def hochster_summands(K: SimplicialComplex, p: int, q: int, ring: str = "Z") -> list:
    """Per-subset contributions to bidegree (-p, 2q): pairs (J, group).

    With d = q - p - 1, a restriction K_J has cohomology in degree d only
    if it has a face of size d + 1, so when K has none every summand is
    zero and nothing is restricted (this covers p > q too).  Otherwise
    reduced_cohomology(K_J, d) reads only the faces of K_J of sizes d,
    d + 1 and d + 2; restrictions that agree on those relabelled faces
    share one solve, held for the length of this call only.
    """
    check_ring(ring)
    d = q - p - 1
    if not K.faces_of_size(d + 1):
        return []
    out = []
    solved: dict = {}
    for J in combinations(range(1, K.n + 1), q):
        L = full_subcomplex(K, J)
        key = (L.faces_of_size(d), L.faces_of_size(d + 1), L.faces_of_size(d + 2))
        H = solved.get(key)
        if H is None:
            H = solved[key] = reduced_cohomology(L, d, ring=ring)
        if H.rank or H.torsion:
            out.append((J, H))
    return out


def hochster_cohomology(K: SimplicialComplex, p: int, q: int, ring: str = "Z") -> HomologyResult:
    """Cohomology in bidegree (-p, 2q) assembled from vertex restrictions.

    The rank is the sum over summands and the torsion coefficients are
    regrouped into a single canonical divisibility chain.  No cochain
    representatives exist on this route, so none are returned.
    """
    check_ring(ring)
    if p < 0 or q < 0 or q > K.n:
        return HomologyResult(0, (), ())
    rank = 0
    torsion_parts = []
    for _, H in hochster_summands(K, p, q, ring=ring):
        rank += H.rank
        torsion_parts.extend(H.torsion)
    return HomologyResult(rank, invariant_factor_chain(torsion_parts), ())


def hochster_bigraded(K: SimplicialComplex, ring: str = "Z") -> dict:
    """All nonzero groups keyed by (p, q), matching the algebra engine."""
    table = {}
    for q in range(0, K.n + 1):
        for p in range(0, q + 1):
            H = hochster_cohomology(K, p, q, ring=ring)
            if H.rank or H.torsion:
                table[(p, q)] = H
    return table
