"""Koszul-type cochain algebra attached to a simplicial complex.

The algebra has, for every vertex i, an odd generator of bidegree (-1, 2)
and an even generator of bidegree (0, 2); squares of either vanish, a
product of even generators survives only when its support is a face, and
the differential sends each odd generator to its even partner.  A monomial
is determined by the set of odd indices (`exterior`) and the set of even
indices (`face`), which must be disjoint.  The monomial with exterior set
of size p and face of size q - p sits in bidegree (-p, 2q); this module
keys everything by the pair (p, q) of nonnegative integers and the chain
convention is that the differential lowers p by one while fixing q.

A KoszulMonomial is a tuple pair (exterior, face), so it hashes and
compares like one and equals the plain pair (I, J).  Its public
constructor rejects overlapping index sets; koszul_basis and
koszul_differential build theirs without that check, since a basis
exterior part avoids its face and a differential term only moves an index
from one side to the other.

The differential also fixes the support, the union of the two index
sets: this is the Z^n-multigrading of the algebra.  Cohomology is
therefore computed one support block at a time, each block with its own
small pair of matrices, and summed; a term that leaves its block raises
InvariantViolation.  Smith transforms are paid for only when
representatives are requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import itemgetter

from .errors import InvariantViolation
from .linalg import HomologyResult, IntMatrix, homology_of_pair, invariant_factor_chain
from .simplicial import SimplicialComplex


@dataclass(frozen=True, order=True)
class Bidegree:
    """Cohomological position (-p, 2q), stored as nonnegative (p, q)."""

    p: int
    q: int

    @property
    def total(self) -> int:
        """Total cohomological degree 2q - p."""
        return 2 * self.q - self.p


class KoszulMonomial(tuple):
    """Product of odd generators over `exterior` and even ones over `face`.

    A tuple pair (exterior, face): it equals the plain pair with the same
    entries and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, exterior: tuple, face: tuple):
        if set(exterior) & set(face):
            raise ValueError(f"index sets overlap: {exterior} and {face}")
        return tuple.__new__(cls, (exterior, face))

    def __getnewargs__(self):
        return tuple(self)

    exterior = property(itemgetter(0))
    face = property(itemgetter(1))

    def bidegree(self) -> Bidegree:
        p = len(self[0])
        return Bidegree(p, p + len(self[1]))

    def __repr__(self):
        return f"KoszulMonomial(exterior={self[0]!r}, face={self[1]!r})"


# builds a monomial from a pair (I, J) known to be disjoint, skipping the check
_monomial = partial(tuple.__new__, KoszulMonomial)


# a cochain is a finite integer combination of monomials
KoszulElement = dict


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
    # J is not in rest, so no exterior part meets its face
    return tuple([_monomial(pair) for pair in pairs])


def koszul_differential(K: SimplicialComplex, m: KoszulMonomial) -> KoszulElement:
    """Differential of a monomial, as a monomial-to-coefficient dict.

    Each odd index moves to the even side with an alternating sign; terms
    whose new even support is not a face of K are relations and vanish.
    """
    out: KoszulElement = {}
    I, J = m
    faces = K.faces
    for k, i in enumerate(I, start=1):
        new_face = tuple(sorted(J + (i,)))
        if new_face not in faces:
            continue
        # i moves from I to J, so the two parts stay disjoint
        term = _monomial((I[:k - 1] + I[k:], new_face))
        sign = 1 if k % 2 else -1
        out[term] = out.get(term, 0) + sign
        if not out[term]:
            del out[term]
    return out


def apply_differential(K: SimplicialComplex, element: KoszulElement) -> KoszulElement:
    """Extend the differential linearly to a combination of monomials."""
    out: KoszulElement = {}
    for m, c in element.items():
        if not c:
            continue
        for term, sign in koszul_differential(K, m).items():
            v = out.get(term, 0) + c * sign
            if v:
                out[term] = v
            else:
                del out[term]
    return out


def _matrix(K: SimplicialComplex, source, target) -> IntMatrix:
    """Matrix of the differential from the monomials `source` to `target`.

    A term outside `target` raises InvariantViolation; for a support block
    that means the differential left the block.
    """
    index = {m: i for i, m in enumerate(target)}
    M = IntMatrix(len(target), len(source))
    for j, m in enumerate(source):
        for term, sign in koszul_differential(K, m).items():
            i = index.get(term)
            if i is None:
                raise InvariantViolation(
                    f"differential of {m} has the term {term} outside its target")
            M.add(i, j, sign)
    return M


def differential_matrix(K: SimplicialComplex, p: int, q: int) -> IntMatrix:
    """Matrix of the differential from bidegree (p, q) to (p - 1, q)."""
    return _matrix(K, koszul_basis(K, p, q), koszul_basis(K, p - 1, q))


def _support_blocks(basis: tuple) -> dict:
    """Monomials of `basis` grouped by support, the union of both index sets.

    Each value lists (position in basis, monomial) in basis order; supports
    appear in order of first occurrence.
    """
    blocks: dict = {}
    for i, m in enumerate(basis):
        blocks.setdefault(tuple(sorted(m[0] + m[1])), []).append((i, m))
    return blocks


def koszul_cohomology(K: SimplicialComplex, p: int, q: int, ring: str = "Z",
                      want_representatives: bool = True) -> HomologyResult:
    """Cohomology of the algebra in bidegree (-p, 2q).

    The differential moves an index between the exterior and face parts,
    so it preserves the support S = exterior + face, and the cochains split
    as a direct sum over q-subsets S.  Each block gets its own pair of
    matrices; ranks add, and torsion merges into one divisibility chain.
    Representative vectors are coordinates over koszul_basis(K, p, q).
    """
    middle = koszul_basis(K, p, q)
    lower = _support_blocks(koszul_basis(K, p - 1, q))
    upper = _support_blocks(koszul_basis(K, p + 1, q))
    zero = Fraction(0) if ring == "Q" else 0
    rank, torsion, reps = 0, [], []
    for S, block in _support_blocks(middle).items():
        monomials = [m for _, m in block]
        d_out = _matrix(K, monomials, [m for _, m in lower.get(S, ())])
        d_in = _matrix(K, [m for _, m in upper.get(S, ())], monomials)
        H = homology_of_pair(d_in, d_out, ring=ring,
                             want_representatives=want_representatives)
        rank += H.rank
        torsion.extend(H.torsion)
        for local in H.representatives:
            vec = [zero] * len(middle)
            for (i, _), v in zip(block, local):
                vec[i] = v
            reps.append(tuple(vec))
    return HomologyResult(rank, invariant_factor_chain(torsion), tuple(reps))


def koszul_bigraded(K: SimplicialComplex, ring: str = "Z") -> dict:
    """All nonzero cohomology groups, keyed by (p, q).

    Values are HomologyResult without representatives; use
    koszul_cohomology for a single bidegree with cycles.
    """
    max_face = max(len(f) for f in K.faces)
    table = {}
    for q in range(0, K.n + 1):  # exterior and face parts are disjoint, so q <= n
        # a face of size q - p leaves n - (q - p) >= p vertices for the
        # exterior part, so every basis in this range is nonempty
        for p in range(max(0, q - max_face), q + 1):
            H = koszul_cohomology(K, p, q, ring=ring, want_representatives=False)
            if H.rank or H.torsion:
                table[(p, q)] = H
    return table
