"""Koszul-type cochain algebra attached to a simplicial complex.

The algebra has, for every vertex i, an odd generator of bidegree (-1, 2)
and an even generator of bidegree (0, 2); squares of either vanish, a
product of even generators survives only when its support is a face, and
the differential sends each odd generator to its even partner.  A monomial
is determined by the set of odd indices (`exterior`) and the set of even
indices (`face`), which must be disjoint.  The monomial with exterior set
of size p and face of size q - p sits in bidegree (-p, 2q); this module
keys everything by the plain pair (p, q) of nonnegative integers and the
chain convention is that the differential lowers p by one while fixing q.
koszul_differential returns the image of one monomial as a plain dict
from monomials to coefficients.  It and koszul_basis, whose monomials are
plain pairs (exterior, face) of sorted index tuples, are the stated
definition, which the tests compare the engine against; the engine calls
neither.

The engine has one representation: a monomial is the pair (exterior,
face) of vertex bitmasks, bit v for vertex v.  _basis generates each basis
as mask pairs, straight in koszul_basis order, and a differential term
survives when its face mask is one of the face masks of K.  Nothing checks
that the two parts are disjoint when one is built: a basis exterior part
misses its face, and a differential term only moves a bit from one side
to the other.  The terms of one differential drop different exterior
bits, so no two coincide, and the block matrices write each entry once.
differential_matrix, koszul_cohomology and koszul_bigraded all build
through the one private _matrix.  The masks are built by each call that
reads them and dropped when it returns.

The differential also fixes the support, the union of the two index
sets: this is the Z^n-multigrading of the algebra.  Cohomology is
therefore computed one support block at a time, each block with its own
small pair of matrices, and summed; a term that leaves its block raises
InvariantViolation.  Smith transforms are paid for only when
representatives are requested.  koszul_cohomology builds the three bases
around its bidegree and the two block matrices of each of its blocks;
koszul_bigraded builds each basis of the table once, grouped by support,
and each block differential d_p(S) once, which it reads as the outgoing
map of block (p, S) and the incoming map of block (p - 1, S).  It keeps
only the groups of the q it is solving and the maps of two adjacent p.
Both solve the blocks through one private loop, _solve, and d o d = 0 is
checked for every block inside homology_of_pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InvariantViolation
from .linalg import HomologyResult, IntMatrix, check_ring, homology_of_pair, invariant_factor_chain
from .simplicial import SimplicialComplex


def koszul_basis(K: SimplicialComplex, p: int, q: int) -> tuple:
    """Basis monomials in bidegree (p, q), sorted by (exterior, face).

    These are the monomials whose face part is a member of K of size
    q - p and whose exterior part is a p-subset of the remaining vertices.
    """
    size = q - p
    if p < 0 or size < 0:
        return ()
    pairs = []
    for J in K.faces_of_size(size):
        rest = [v for v in range(1, K.n + 1) if v not in J]
        pairs.extend((I, J) for I in combinations(rest, p))
    # all exterior parts have size p and all faces size q - p, so plain
    # tuple order is the graded lexicographic order of face_key
    pairs.sort()
    return tuple(pairs)


def koszul_differential(K: SimplicialComplex, m: tuple) -> dict:
    """Differential of a monomial, as a monomial-to-coefficient dict.

    Each odd index moves to the even side with an alternating sign; terms
    whose new even support is not a face of K are relations and vanish.
    """
    out: dict = {}
    I, J = m
    faces = K.faces
    for k, i in enumerate(I, start=1):
        new_face = tuple(sorted(J + (i,)))
        if new_face not in faces:
            continue
        out[(I[:k - 1] + I[k:], new_face)] = 1 if k % 2 else -1
    return out


def _mask(indices) -> int:
    """Bitmask of an index tuple: bit v is set for each index v."""
    mask = 0
    for v in indices:
        mask |= 1 << v
    return mask


def _face_masks(K: SimplicialComplex) -> set:
    """The faces of K as bitmasks."""
    return {_mask(F) for F in K.faces}


def _basis(K: SimplicialComplex, p: int, q: int) -> list:
    """koszul_basis(K, p, q) as (exterior, face) bitmask pairs, in its order.

    That order is by exterior set first, so the exterior p-sets are taken
    lexicographically and, for each, the faces of size q - p that miss it,
    in K's order, which is lexicographic within a size.
    """
    faces = [_mask(J) for J in K.faces_of_size(q - p)]
    if p < 0 or not faces:
        return []
    bits = [1 << v for v in range(1, K.n + 1)]
    return [(e, f) for e in map(sum, combinations(bits, p)) for f in faces if not e & f]


def _matrix(faces: set, source, target) -> IntMatrix:
    """Matrix of the differential from the monomials `source` to `target`.

    Monomials are (exterior, face) bitmask pairs, and `faces` holds the
    face masks of K.  Moving the index with bit b of e to the face side
    gives the term (e ^ b, f | b) when f | b is a face, with the sign of
    koszul_differential: +1 for the lowest index of e, alternating upwards.
    A term outside `target` raises InvariantViolation; for a support block
    that means the differential left the block.
    """
    index = {m: i for i, m in enumerate(target)}
    M = IntMatrix(len(target), len(source))
    rows = M.rows
    for j, (e, f) in enumerate(source):
        sign, rest = -1, e
        while rest:
            b = rest & -rest
            rest ^= b
            sign = -sign
            if f | b in faces:
                i = index.get((e ^ b, f | b))
                if i is None:
                    raise InvariantViolation(
                        f"differential of the monomial {(e, f)} has the term "
                        f"{(e ^ b, f | b)} outside its target (exterior and face bitmasks)")
                rows[i][j] = sign
    return M


def differential_matrix(K: SimplicialComplex, p: int, q: int) -> IntMatrix:
    """Matrix of the differential from bidegree (p, q) to (p - 1, q)."""
    return _matrix(_face_masks(K), _basis(K, p, q), _basis(K, p - 1, q))


def _support_blocks(basis: list) -> dict:
    """The mask pairs of `basis`, grouped by support mask e | f.

    Each value lists its monomials in basis order; supports appear in order
    of first occurrence.
    """
    blocks: dict = {}
    for m in basis:
        blocks.setdefault(m[0] | m[1], []).append(m)
    return blocks


def _differentials(faces: set, source: dict, target: dict) -> dict:
    """Block matrices of the differential out of the support groups `source`.

    Maps each support S of `source` to the matrix from source[S] to
    target[S], empty where target has no S.
    """
    return {S: _matrix(faces, block, target.get(S, ())) for S, block in source.items()}


def _solve(middle: dict, d_out: dict, d_in: dict, ring: str,
           want_representatives: bool) -> tuple:
    """Cohomology of the support blocks of `middle`, each between its two maps.

    `middle` is a support grouping from _support_blocks; the block with
    support S is solved with d_out[S] leaving it and d_in[S] entering it,
    or no map entering it where d_in has no S.  Returns (rank, torsion
    chain, representatives), the representatives as (block, local
    coordinates) pairs.
    """
    rank, torsion, reps = 0, [], []
    for S, block in middle.items():
        incoming = d_in[S] if S in d_in else IntMatrix(len(block), 0)
        H = homology_of_pair(incoming, d_out[S], ring=ring,
                             want_representatives=want_representatives)
        rank += H.rank
        torsion.extend(H.torsion)
        for local in H.representatives:
            reps.append((block, local))
    return rank, invariant_factor_chain(torsion), reps


def koszul_cohomology(K: SimplicialComplex, p: int, q: int, ring: str = "Z",
                      want_representatives: bool = True) -> HomologyResult:
    """Cohomology of the algebra in bidegree (-p, 2q).

    The differential moves an index between the exterior and face parts,
    so it preserves the support S = exterior + face, and the cochains split
    as a direct sum over q-subsets S.  Each block gets its own pair of
    matrices; ranks add, and torsion merges into one divisibility chain.
    Representative vectors are coordinates over koszul_basis(K, p, q).
    """
    check_ring(ring)
    basis = _basis(K, p, q)
    if not basis:
        return HomologyResult(0, (), ())
    faces = _face_masks(K)
    groups = _support_blocks(basis)
    lower = _support_blocks(_basis(K, p - 1, q))
    upper = _support_blocks(_basis(K, p + 1, q))
    d_out = _differentials(faces, groups, lower)
    d_in = {S: _matrix(faces, upper.get(S, ()), block) for S, block in groups.items()}
    rank, torsion, local = _solve(groups, d_out, d_in, ring, want_representatives)
    reps = []
    if local:
        zero = Fraction(0) if ring == "Q" else 0
        position = {m: i for i, m in enumerate(basis)}
        for block, coords in local:
            vec = [zero] * len(basis)
            for m, v in zip(block, coords):
                vec[position[m]] = v
            reps.append(tuple(vec))
    return HomologyResult(rank, torsion, tuple(reps))


def koszul_bigraded(K: SimplicialComplex, ring: str = "Z") -> dict:
    """All nonzero cohomology groups, keyed by (p, q).

    Values are HomologyResult without representatives; use
    koszul_cohomology for a single bidegree with cycles.  Each q builds
    the basis of (p, q) once for every p it reads and groups it by support
    once.  Walking p upwards, it builds the maps d_{p+1}(S) once,
    as the incoming maps of the blocks of p, and hands them up as the
    outgoing maps of the blocks of p + 1; a block with no S above it has
    no incoming map.  Only the maps of p and p + 1 are held, and the
    groups and maps of a q are dropped when the next q starts.  Every
    middle block is solved with the same two matrices koszul_cohomology
    builds for it.
    """
    check_ring(ring)
    max_face = max(len(f) for f in K.faces)
    faces = _face_masks(K)
    table = {}
    for q in range(0, K.n + 1):  # exterior and face parts are disjoint, so q <= n
        # a face of size q - p leaves n - (q - p) >= p vertices for the
        # exterior part, so every middle basis in this range is nonempty;
        # the neighbours lo - 1 and q + 1 at its ends are empty
        lo = max(0, q - max_face)
        groups = {p: _support_blocks(_basis(K, p, q)) for p in range(lo - 1, q + 2)}
        # d_out holds d_p leaving the blocks of p; d_{p+1}, built as their
        # incoming maps, is handed up as the outgoing maps of p + 1
        d_out = _differentials(faces, groups[lo], groups[lo - 1])
        for p in range(lo, q + 1):
            d_in = _differentials(faces, groups[p + 1], groups[p])
            rank, torsion, _ = _solve(groups[p], d_out, d_in, ring,
                                      want_representatives=False)
            if rank or torsion:
                table[(p, q)] = HomologyResult(rank, torsion, ())
            d_out = d_in
    return table
