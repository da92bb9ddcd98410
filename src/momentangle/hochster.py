"""Independent oracle for the bigraded cohomology via vertex restrictions.

The group in bidegree (-p, 2q) decomposes as a direct sum, over all
q-element vertex subsets J, of the reduced simplicial cohomology of the
restriction K_J in degree d = q - p - 1 (Hochster's formula).  This route
never touches the cochain algebra, so it cross-checks the algebra engine
end to end.

Degree d reads only the faces of sizes d, d + 1 and d + 2.  Let V_d, the active vertices, be the vertices of the faces of
sizes d + 1 and d + 2 (for d = -1, the vertices of K).  Then H^d(K_J)
depends only on A = J meet V_d:

- every face of size d + 1 or d + 2 inside J lies inside A, since the
  vertices of a (d + 2)-face lie in its (d + 1)-subfaces, which are faces;
- a d-face of K_J outside V_d lies in no (d + 1)-face, so it is a zero
  column of the coboundary into degree d and changes nothing.

So the sum over J is a sum over A inside V_d, and each A stands for the
C(n - |V_d|, q - |A|) subsets J that add q - |A| of the other, inert
vertices to it.  A window is the faces inside A of the three sizes,
relabelled increasingly onto 0..|A| - 1.  Windows are read off K per
subset; only the first A with a given window is restricted and solved,
and windows that are equal share that solve for the length of one call.
A window with no face of size d + 1 is zero and solves nothing, so a
bidegree in which K has no such face restricts nothing at all.

A window is a cone in degree d, and is skipped before it is keyed, when
some v in A adds to every (d + 1)-face inside A that misses it: then
phi -> phi(v . -) is a contracting homotopy of the cochains in degree d,
so H^d(K_A) = 0 over Z, torsion included.  For d = -1 the only such face
is the empty one, so every nonempty A is skipped.

Reduced cohomology here is augmented: the empty face spans a copy of Z in
degree -1, so the complex whose only face is the empty one has reduced
cohomology Z in degree -1 and nothing anywhere else.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import itemgetter

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


def _windows(K: SimplicialComplex, p: int, q: int, ring: str):
    """Yield (A, inert, count, H) for each A inside V_d with H = H^d(K_A) nonzero.

    `inert` is the tuple of vertices outside V_d, and `count` the number of
    q-subsets J with J meet V_d = A.  Equal windows share one restriction
    and one solve; a window that is a cone in degree d has none.  The cone
    mask of a (d + 1)-face is its vertices and each vertex that adds to it,
    so A's apexes are A cut by the cone masks of its (d + 1)-faces.
    """
    d = q - p - 1
    middle = K.faces_of_size(d + 1)
    if not middle:
        return
    upper = K.faces_of_size(d + 2)
    active = sorted({v for f in middle + upper for v in f})
    seen = set(active)
    inert = tuple([v for v in range(1, K.n + 1) if v not in seen])
    bit = {v: 1 << i for i, v in enumerate(active)}
    levels = []
    for faces in (K.faces_of_size(d), middle, upper):
        level = []
        for f in faces:
            if seen.issuperset(f):  # a d-face outside V_d is a zero column
                mask = 0
                for v in f:
                    mask |= bit[v]
                level.append((mask, f))
        levels.append(level)
    lows, mids, ups = levels
    cone = {mask: mask for mask, _ in mids}
    for mask, f in ups:
        for j in range(len(f)):
            cone[mask & ~bit[f[j]]] |= mask
    solved: dict = {}
    for k in range(max(0, q - len(inert)), min(q, len(active)) + 1):
        count = comb(len(inert), q - k)
        for A in combinations(active, k):
            a = 0
            for v in A:
                a |= bit[v]
            apexes = a
            inside = []
            for mask, f in mids:
                if mask & a == mask:
                    apexes &= cone[mask]
                    inside.append(f)
            if not inside or apexes:
                continue
            label = {v: i for i, v in enumerate(A)}
            mid = [tuple([label[v] for v in f]) for f in inside]
            low = [tuple([label[v] for v in f]) for mask, f in lows if mask & a == mask]
            up = [tuple([label[v] for v in f]) for mask, f in ups if mask & a == mask]
            key = (tuple(low), tuple(mid), tuple(up))
            H = solved.get(key)
            if H is None:
                H = solved[key] = reduced_cohomology(full_subcomplex(K, A), d, ring=ring)
            if H.rank or H.torsion:
                yield A, inert, count, H


def hochster_summands(K: SimplicialComplex, p: int, q: int, ring: str = "Z") -> list:
    """Per-subset contributions to bidegree (-p, 2q): pairs (J, group).

    Lists every q-subset J with H^{q-p-1}(K_J) nonzero, in increasing
    order of J.  Each J is a window A of active vertices together with
    q - |A| inert ones, and carries the window's group.
    """
    check_ring(ring)
    out = []
    for A, inert, _, H in _windows(K, p, q, ring):
        for B in combinations(inert, q - len(A)):
            out.append((tuple(sorted(A + B)), H))
    out.sort(key=itemgetter(0))
    return out


def hochster_cohomology(K: SimplicialComplex, p: int, q: int, ring: str = "Z") -> HomologyResult:
    """Cohomology in bidegree (-p, 2q) assembled from vertex restrictions.

    Each window adds its rank once per subset it stands for, and its
    torsion as often; the torsion coefficients are regrouped into a single
    canonical divisibility chain.  No cochain representatives exist on
    this route, so none are returned.
    """
    check_ring(ring)
    if p < 0 or q < 0 or q > K.n:
        return HomologyResult(0, (), ())
    rank = 0
    torsion_parts = []
    for _, _, count, H in _windows(K, p, q, ring):
        rank += count * H.rank
        torsion_parts.extend(H.torsion * count)
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
