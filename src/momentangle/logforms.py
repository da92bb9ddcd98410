"""Logarithmic cochain model of the arrangement complement, and periods.

The third computational route.  A cochain of form degree r and cover
degree t assigns, to each (t + 1)-tuple of faces of the complex, a
combination of logarithmic forms dz_I/z_I over r-element index sets I;
the value at a tuple may only use index sets disjoint from the common
intersection of the tuple's faces.  The cochains alternate in the tuple,
the differential is the usual alternating sum over face deletions (values
at tuples that violate admissibility read as zero), and the form indices
never mix, so the complex splits into one block per index set.  Block
cohomology is computed from face-deletion matrices of the cover's own
tuples; the nerve K_I of the Hochster route is never built.

A block is the relative cochain complex of the pair (full simplex on the
faces, B), where B holds the tuples whose meet meets the index set and is
closed under deleting faces; the simplex is contractible, so the
connecting map of the pair carries the reduced degree-(t - 1) cohomology
of B isomorphically onto the block's degree t.  B's tuples of degree
t - 1 are never more than the block's of degree t, so both a dimension
and a basis solve B: the dimension ranks it, and the basis carries B's
representatives through the connecting map to the admissible tuples,
giving the cocycles the periods integrate.  The basis runs that map in
integers, on each representative cleared of its denominators, and writes
the values straight into the cochains, whose tuples it built canonical
and admissible itself.  One call enumerates the cover levels t - 1 and t
once, each tuple with the vertex set of its meet, and takes B's level
t - 2 as the deletions of its level t - 1; index sets that cut the
union of the meets of levels t - 1 and t in the same vertices have the
same B, so each distinct B is solved once per call, and nothing is kept
after the call.  Every solve goes through homology_of_pair over Q
(ranks only for a dimension), which checks that the complex it solves
composes to zero, so the check also covers the filter that chose its
tuples.

A period pairs one cocycle with the resolvent level of its own cover
degree, integrating each tuple's form over the matching chain entry; the
only nonzero primitive integral is a full torus against its own index
set, contributing (2 pi i) per index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_, or_

from ._record import Record
from .cech import Resolvent, _FaceTupleFamily, build_resolvent
from .cells import Cell, homology_cycle_basis
from .linalg import IntMatrix, _integral, homology_of_pair
from .simplicial import SimplicialComplex


class LogCochain(_FaceTupleFamily):
    """Alternating face-tuple family of admissible logarithmic r-forms.

    Each entry maps an index set I to the coefficient of dz_I/z_I.
    """

    __slots__ = ("K", "r")

    def __init__(self, K: SimplicialComplex, r: int, t: int):
        if r < 0 or t < 0:
            raise ValueError(f"degrees must be nonnegative, got r={r}, t={t}")
        super().__init__(t)
        self.K = K
        self.r = r

    def add(self, faces: tuple, I: tuple, coeff) -> None:
        """Accumulate coeff * dz_I/z_I at the given face tuple."""
        self._check_length(faces)
        for f in faces:
            if not self.K.has_face(f):
                raise ValueError(f"{f} is not a face")
        I = tuple(I)
        if len(I) != self.r or list(I) != sorted(set(I)):
            raise ValueError(f"index set {I} is not an increasing {self.r}-tuple")
        if I and (I[0] < 1 or I[-1] > self.K.n):
            raise ValueError(f"index set {I} outside 1..{self.K.n}")
        meet = set(faces[0])
        for f in faces[1:]:
            meet &= set(f)
        if meet & set(I):
            raise ValueError(
                f"dz_{I} is not admissible at {faces}: indices meet {sorted(meet)}")
        self._accumulate(faces, {I: coeff})

    def differential(self) -> "LogCochain":
        """Alternating sum over insertions of one more face of the complex."""
        out = LogCochain(self.K, self.r, self.t + 1)
        # add puts beta at its slot j of the ascending tuple with the sign
        # (-1)^j, and drops it where S already holds beta
        for S, forms in self.entries.items():
            for beta in self.K.faces_sorted():
                for I, a in forms.items():
                    out.add((beta,) + S, I, a)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LogCochain)
            and self.K == other.K
            and (self.r, self.t) == (other.r, other.t)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"LogCochain(r={self.r}, t={self.t}, tuples={len(self.entries)})"


def block_tuples(K: SimplicialComplex, I: tuple, t: int) -> list:
    """Canonical (t + 1)-tuples of faces whose intersection misses I.

    These index the block of the index set I at cover degree t.
    """
    if t < 0:
        return []
    if not I:  # nothing is forbidden, so every tuple is admissible
        return list(combinations(K.faces_sorted(), t + 1))
    forbidden = set(I)
    out = []
    for T in combinations(K.faces_sorted(), t + 1):
        meet = set(T[0])
        for f in T[1:]:
            meet &= set(f)
            if not meet:
                break
        if not meet & forbidden:
            out.append(T)
    return out


def _coboundary(source: list, target: list) -> IntMatrix:
    """Face-deletion matrix from the source tuples to the target tuples.

    Deleting a face may enlarge the intersection past admissibility; such
    deletions read as zero, which is exactly a missing row index here.
    The faces of a tuple are distinct, so its deletions are distinct
    tuples and each entry is written once.
    """
    index = {T: j for j, T in enumerate(source)}
    M = IntMatrix(len(target), len(source))
    for T, row in zip(target, M.rows):
        for j in range(len(T)):
            col = index.get(T[:j] + T[j + 1:])
            if col is not None:
                row[col] = -1 if j % 2 else 1
    return M


def block_matrix(K: SimplicialComplex, I: tuple, t: int) -> IntMatrix:
    """Differential of the I-block from cover degree t to t + 1."""
    return _coboundary(block_tuples(K, I, t), block_tuples(K, I, t + 1))


def _cover_levels(K: SimplicialComplex, r: int, t: int):
    """Cover levels t - 1 and t with meet bitmasks, and the r-sets by key.

    Each level s is block_tuples(K, (), s) as a list of (tuple, bitmask of
    its meet).  The key of an r-set is the set of vertices in which it cuts
    the union of the meets on both levels, so r-sets with one key admit the
    same tuples on them.  The groups map each key to its r-sets in
    ascending order, keys in the order of their first r-set; a key that is
    the mask of a nonempty face is left out (see _complements).
    """
    mask = {f: sum(1 << v for v in f) for f in K.faces_sorted()}
    levels = [[(T, reduce(and_, map(mask.get, T))) for T in block_tuples(K, (), s)]
              for s in (t - 1, t)]
    meet_vertices = reduce(or_, (m for level in levels for _, m in level), 0)
    cones = {m for m in mask.values() if m}
    groups = {}
    for I in combinations(range(1, K.n + 1), r):
        key = sum(1 << v for v in I) & meet_vertices
        if key not in cones:
            groups.setdefault(key, []).append(I)
    return levels, groups


def _complements(K: SimplicialComplex, r: int, t: int):
    """(index_sets, low, mid, high, admissible) per key: B on levels t - 2 .. t.

    B is the family of tuples whose meet meets the key.  Deleting a face
    only enlarges a meet, so B is closed under deletion; the key's block is
    the relative cochain complex of the full simplex on the faces modulo B,
    which is contractible, so the connecting map of the pair, extending a
    cocycle of B by zero and taking its coboundary, is an isomorphism from
    the reduced degree-(t - 1) cohomology of B onto the block's degree t.
    It lands on the admissible level-t tuples, whose meet misses the key,
    which admissible yields lazily in ascending order.
    Level -1 of B is the empty tuple whatever the key (the augmented
    convention), so an empty B has its one class in degree -1.  The empty
    face lies in every complex, and putting it in front of a tuple of B
    gives an admissible tuple one level up, so mid is never longer than
    the admissible tuples.  The key comes from the meets on levels t - 1
    and t (see _cover_levels), which decides B exactly on those levels.
    Level t - 2 is taken as the deletions of mid's tuples, which leaves out
    only zero columns of the incoming differential: each vertex of the key
    lies in a level-(t - 1) meet, so t faces contain it, and adding one of
    them to a level-(t - 2) tuple whose meet holds it gives a tuple of mid.
    At t = 1 that is [()] exactly when mid is nonempty, and an empty mid has
    no cohomology.  A degree past the face count, or a negative form degree,
    yields nothing.
    No key is yielded that is the vertex set of a nonempty face sigma of K,
    as its B has no cohomology: adding sigma to a tuple T of B cuts T's
    meet by sigma, which it already meets, so B is a cone on sigma, and a
    cone has no reduced cohomology in any degree.
    """
    if r < 0:
        return
    levels, groups = _cover_levels(K, r, t)
    if levels[1]:
        for key, index_sets in groups.items():
            mid, high = ([()] if s == -1 else [T for T, m in level if m & key]
                         for s, level in enumerate(levels, t - 1))
            low = list(dict.fromkeys(T[:j] + T[j + 1:] for T in mid for j in range(len(T))))
            yield index_sets, low, mid, high, _missing(levels[1], key)


def _missing(level: list, key: int):
    """The tuples of a cover level whose meet misses the key, lazily."""
    return (T for T, m in level if not m & key)


def log_cohomology_dim(K: SimplicialComplex, r: int, t: int) -> int:
    """Dimension of the degree-t cohomology of the form-degree-r complex.

    Sums, over every r-element index set, the rational homology rank of
    the complement B of its block in degree t - 1 (see _complements),
    which equals the block's degree-t rank over a middle never longer.
    Each distinct key is solved once; homology_of_pair raises
    CompositionError if B's differentials have d_out * d_in != 0.
    """
    return sum(len(index_sets) * homology_of_pair(_coboundary(low, mid), _coboundary(mid, high),
                                                  ring="Q", want_representatives=False).rank
               for index_sets, low, mid, high, _ in _complements(K, r, t))


def log_cohomology_basis(K: SimplicialComplex, r: int, t: int) -> list:
    """Cocycle representatives of a basis of the degree-t cohomology.

    Each key's classes are the rational representatives of B's degree
    t - 1 (see _complements), carried to the admissible level-t tuples by
    the connecting map with the sign (-1)^t; homology_of_pair raises
    CompositionError if B's differentials have d_out * d_in != 0.  The
    connecting map runs in integers: each representative is cleared of
    denominators once, and each entry is one Fraction of an integer sum
    over that common denominator.  Each representative is concentrated in
    a single index set (the complex splits), with exact rational
    coefficients; index sets come in ascending order, and each distinct
    key is solved once.  The entries are written straight into their
    cochains without LogCochain.add: the admissible tuples are distinct
    canonical tuples of faces whose meet misses the index set, which is
    all that add would check.
    """
    sign = -1 if t % 2 else 1
    found = []
    for index_sets, low, mid, high, admissible in _complements(K, r, t):
        reps = homology_of_pair(_coboundary(low, mid), _coboundary(mid, high),
                                ring="Q").representatives
        if reps:
            tuples = list(admissible)
            delta = _coboundary(mid, tuples)
            cocycles = []
            for c in reps:
                v, s = _integral(c)
                values = ((T, sign * sum(a * v.get(j, 0) for j, a in row.items()))
                          for T, row in zip(tuples, delta.rows))
                cocycles.append({T: Fraction(x, s) for T, x in values if x})
            found += [(I, cocycles) for I in index_sets]
    basis = []
    for I, cocycles in sorted(found, key=lambda f: f[0]):
        for cocycle in cocycles:
            w = LogCochain(K, r, t)
            w.entries = {T: {I: c} for T, c in cocycle.items()}
            basis.append(w)
    return basis


class Period(Record):
    """An exact period: coefficient times (2 pi i) to the given power."""

    __slots__ = ("coefficient", "power")
    coefficient: Fraction
    power: int

    def __init__(self, coefficient: Fraction, power: int):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "power", power)

    def is_zero(self) -> bool:
        return self.coefficient == 0


def integrate_cell(I: tuple, cell: Cell) -> Period:
    """Integral of dz_I/z_I over one product cell.

    A torus factor soaks up one dz/z each, worth 2 pi i; any disc factor
    or any mismatch between the index set and the circle set kills the
    integral.  The empty form over the point cell integrates to 1.
    """
    I = tuple(I)
    if not cell.disks and I == cell.circles:
        return Period(Fraction(1), len(I))
    return Period(Fraction(0), len(I))


def period_of_cycle(w: LogCochain, res: Resolvent) -> Period:
    """Integral of a cocycle over the cycle of a resolvent.

    The cocycle pairs with the resolvent level of its own cover degree,
    summing over canonical tuples shared by both; the alternation of the
    two sides makes the canonical-tuple sum the whole pairing.  A cover
    degree past the resolvent's top level pairs to zero.  The result
    carries the power w.r of (2 pi i).
    """
    total = Fraction(0)
    if w.t < len(res.levels):
        level = res.levels[w.t]
        for T, forms in w.entries.items():
            chain = level.entries.get(T)
            if not chain:
                continue
            for I, a in forms.items():
                for cell, c in chain.items():
                    piece = integrate_cell(I, cell)
                    if piece.coefficient:
                        total += Fraction(a) * c * piece.coefficient
    return Period(total, w.r)


def period_matrix(K: SimplicialComplex, p: int, q: int):
    """Pairing matrix between homology cycles and log cohomology classes.

    Returns (resolvents, cocycles, matrix): one resolvent per basis cycle
    of homological position (p, q), carrying that cycle as .cycle, the
    cohomology basis at form degree q and cover degree q - p, and
    matrix[i][j], the coefficient of the period of cocycle j over cycle i.
    Every nonzero period here carries the power q of (2 pi i).
    """
    resolvents = [build_resolvent(K, c)
                  for c in homology_cycle_basis(K, p, q)]
    cocycles = log_cohomology_basis(K, q, q - p)
    matrix = [
        [period_of_cycle(w, res).coefficient for w in cocycles]
        for res in resolvents
    ]
    return resolvents, cocycles, matrix
