"""Logarithmic cochain model of the arrangement complement, and periods.

The third computational route.  A cochain of form degree r and cover
degree t assigns, to each (t + 1)-tuple of faces of the complex, a
combination of logarithmic forms dz_I/z_I over r-element index sets I;
the value at a tuple may only use index sets disjoint from the common
intersection of the tuple's faces.  The cochains alternate in the tuple,
the differential is the usual alternating sum over face deletions (values
at tuples that violate admissibility read as zero), and the form indices
never mix, so the complex splits into one block per index set.  Block
cohomology is computed honestly from the block matrices; no shortcut
through the nerve of the cover is taken anywhere.  One call enumerates the
tuples of cover degrees t - 1, t and t + 1 once, each with the vertex set
of its meet; an index set's block keeps the tuples whose meet misses it
and is built from those tuple lists alone.  Index sets that cut the union
of all those meets in the same vertices admit the same tuples, so their
blocks are equal: each distinct block is built and solved once per call,
and nothing is kept after the call.  Dimensions and bases alike read each
block through homology_of_pair over Q (ranks only for a dimension), which
checks that the block's own two differentials compose to zero, so the
check also covers the admissibility filter that chose the block's tuples.

A period pairs one cocycle with the resolvent level of its own cover
degree, integrating each tuple's form over the matching chain entry; the
only nonzero primitive integral is a full torus against its own index
set, contributing (2 pi i) per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from operator import and_, or_

from .cech import Resolvent, _FaceTupleFamily, build_resolvent
from .cells import Cell, homology_cycle_basis
from .linalg import IntMatrix, homology_of_pair
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


def _blocks(K: SimplicialComplex, r: int, t: int):
    """(index_sets, tuples, d_in, d_out) for each distinct nonempty degree-t block.

    The tuples of levels t - 1, t and t + 1 are enumerated once, as
    block_tuples(K, (), s), with the bitmask of each tuple's meet.  The
    block of an r-set I keeps, on each level, the tuples whose meet misses
    I, in ascending order (block_tuples(K, I, s)), and builds its two
    differentials from those lists with _coboundary, as block_matrix does;
    at t = 0 the incoming differential has no columns.  r-sets that cut
    the union of the meets on the three levels in the same vertices admit
    the same tuples on every level, so they share one block, yielded once
    with all of them in ascending order; blocks come in the order of their
    first r-set.
    """
    mask = {f: sum(1 << v for v in f) for f in K.faces_sorted()}
    levels = [block_tuples(K, (), s) for s in (t - 1, t, t + 1)]
    meets = [[reduce(and_, map(mask.get, T)) for T in level] for level in levels]
    meet_vertices = reduce(or_, chain.from_iterable(meets), 0)
    groups = {}
    for I in combinations(range(1, K.n + 1), r):
        groups.setdefault(sum(1 << v for v in I) & meet_vertices, []).append(I)
    for key, index_sets in groups.items():
        low, mid, high = ([T for T, m in zip(level, level_meets) if not m & key]
                          for level, level_meets in zip(levels, meets))
        if mid:
            yield index_sets, mid, _coboundary(low, mid), _coboundary(mid, high)


def log_cohomology_dim(K: SimplicialComplex, r: int, t: int) -> int:
    """Dimension of the degree-t cohomology of the form-degree-r complex.

    Sums the rational homology ranks of the blocks over every r-element
    index set, solving each distinct block once; homology_of_pair raises
    CompositionError if some block has d_out * d_in != 0.
    """
    return sum(len(index_sets) * homology_of_pair(d_in, d_out, ring="Q",
                                                  want_representatives=False).rank
               for index_sets, _, d_in, d_out in _blocks(K, r, t))


def log_cohomology_basis(K: SimplicialComplex, r: int, t: int) -> list:
    """Cocycle representatives of a basis of the degree-t cohomology.

    Each representative is concentrated in a single index set (the
    complex splits), with exact rational coefficients; index sets come in
    ascending order, and each distinct block is solved once.
    """
    found = []
    for index_sets, tuples, d_in, d_out in _blocks(K, r, t):
        reps = homology_of_pair(d_in, d_out, ring="Q").representatives
        found += [(I, tuples, reps) for I in index_sets]
    basis = []
    for I, tuples, reps in sorted(found, key=lambda f: f[0]):
        for vec in reps:
            w = LogCochain(K, r, t)
            for T, c in zip(tuples, vec):
                if c:
                    w.add(T, I, c)
            basis.append(w)
    return basis


@dataclass(frozen=True)
class Period:
    """An exact period: coefficient times (2 pi i) to the given power."""

    coefficient: Fraction
    power: int

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
    resolvents = [build_resolvent(K, c, p=p, q=q)
                  for c in homology_cycle_basis(K, p, q)]
    cocycles = log_cohomology_basis(K, q, q - p)
    matrix = [
        [period_of_cycle(w, res).coefficient for w in cocycles]
        for res in resolvents
    ]
    return resolvents, cocycles, matrix
