"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction; no floating point is used anywhere.  Matrices are
sparse row dicts because the chain-level matrices in this package are
mostly zeros, while the Smith normal form runs on dense lists (the
matrices that reach it are small).

One Smith elimination serves two entry points: smith_normal_form returns
the invariant factors alone, and smith_with_transforms also keeps the
four change-of-basis matrices.  homology_of_pair pays for the transforms
only when representatives are requested; over Z, ranks and torsion come
from invariant factors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CompositionError, InvariantViolation


class IntMatrix:
    """Sparse integer matrix representing a linear map Z^ncols -> Z^nrows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, int]] = [{} for _ in range(nrows)]

    def add(self, i: int, j: int, value: int) -> None:
        if not 0 <= i < self.nrows or not 0 <= j < self.ncols:
            raise IndexError(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        row = self.rows[i]
        v = row.get(j, 0) + value
        if v:
            row[j] = v
        else:
            row.pop(j, None)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i].get(j, 0)

    @classmethod
    def from_rows(cls, dense: list) -> "IntMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if dense else 0
        M = cls(nrows, ncols)
        for i, row in enumerate(dense):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    M.rows[i][j] = v
        return M

    @classmethod
    def from_columns(cls, nrows: int, columns: list) -> "IntMatrix":
        M = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                if v:
                    M.rows[i][j] = v
        return M

    def to_rows(self) -> list:
        return [
            [row.get(j, 0) for j in range(self.ncols)]
            for row in self.rows
        ]

    def column(self, j: int) -> tuple:
        return tuple(self.rows[i].get(j, 0) for i in range(self.nrows))

    def transpose(self) -> "IntMatrix":
        T = IntMatrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                T.rows[j][i] = v
        return T

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        out = IntMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def rank(M: IntMatrix) -> int:
    """Rank over Q by sparse fraction-free elimination.

    Rows stay integral throughout: each elimination step cross-multiplies
    and then divides the row by its content, so entries cannot blow up the
    way naive integer elimination would.
    """
    live = [dict(row) for row in M.rows if row]
    r = 0
    for j in range(M.ncols):
        holders = [row for row in live if j in row]
        if not holders:
            continue
        pivot = min(holders, key=lambda row: (len(row), abs(row[j])))
        pv = pivot[j]
        for row in holders:
            if row is pivot:
                continue
            rv = row.pop(j)
            for k in list(row):
                row[k] *= pv
            for k, v in pivot.items():
                if k == j:
                    continue
                w = row.get(k, 0) - rv * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
            if row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    for k in row:
                        row[k] //= g
        live = [row for row in live if row and row is not pivot]
        r += 1
    return r


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith(A: list, transforms) -> tuple:
    """Diagonalize the dense rows A in place and return its invariant factors.

    `transforms` is None, or the list [U, Uinv, V, Vinv] of identity-started
    dense matrices that every row and column operation also updates, so
    that U * M * V ends up diagonal.  The elimination is the same either
    way; without transforms it only skips their bookkeeping.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    if transforms is not None:
        U, Uinv, V, Vinv = transforms

    # Rows t.. are zero left of column t and columns t.. are zero above
    # row t, so the operations at step t only touch the trailing block.
    def swap_rows(a, b):
        A[a], A[b] = A[b], A[a]
        if transforms is not None:
            U[a], U[b] = U[b], U[a]
            for r in Uinv:
                r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        for r in A[t:]:
            r[a], r[b] = r[b], r[a]
        if transforms is not None:
            for r in V:
                r[a], r[b] = r[b], r[a]
            Vinv[a], Vinv[b] = Vinv[b], Vinv[a]

    def row_op(i, s, q):
        # row_i -= q * row_s
        A[i][t:] = [x - q * y for x, y in zip(A[i][t:], A[s][t:])]
        if transforms is not None:
            U[i] = [x - q * y for x, y in zip(U[i], U[s])]
            for r in Uinv:
                r[s] += q * r[i]

    def col_op(j, s, q):
        # col_j -= q * col_s
        for r in A[t:]:
            r[j] -= q * r[s]
        if transforms is not None:
            for r in V:
                r[j] -= q * r[s]
            Vinv[s] = [x + q * y for x, y in zip(Vinv[s], Vinv[j])]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if transforms is not None:
            U[i] = [-x for x in U[i]]
            for r in Uinv:
                r[i] = -r[i]

    t = 0
    while t < min(m, n):
        # the first entry of least absolute value in the trailing block is
        # the pivot; a unit cannot be beaten, so the search stops there
        best, least = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < least):
                    best, least = (i, j), abs(v)
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        if best[0] != t:
            swap_rows(best[0], t)
        if best[1] != t:
            swap_cols(best[1], t)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain
            # condition, which a unit pivot always does
            pivot = A[t][t]
            offender = None
            if pivot not in (1, -1):
                for i in range(t + 1, m):
                    if any(x % pivot for x in A[i][t + 1:]):
                        offender = i
                        break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row into the pivot row
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [A[i][i] for i in range(min(m, n)) if A[i][i]]
    return tuple(factors)


def smith_with_transforms(M: IntMatrix):
    """Smith normal form with all four change-of-basis matrices.

    Returns (factors, U, Uinv, V, Vinv) where U * M * V is diagonal with
    the given nonzero invariant factors (each dividing the next, leading
    1s included) in its upper-left corner, U and V are unimodular, and
    Uinv, Vinv are their exact inverses.  All five are dense row lists.
    """
    transforms = [_identity_rows(M.nrows), _identity_rows(M.nrows),
                  _identity_rows(M.ncols), _identity_rows(M.ncols)]
    factors = _smith(M.to_rows(), transforms)
    return (factors, *transforms)


def smith_normal_form(M: IntMatrix) -> tuple:
    """Nonzero invariant factors of M, leading 1s included.

    Runs the elimination of smith_with_transforms without keeping any
    change-of-basis matrix.
    """
    return _smith(M.to_rows(), None)


@dataclass(frozen=True)
class HomologyResult:
    """Homology at the middle term of d_in: A -> B, d_out: B -> C.

    rank            free rank
    torsion         invariant factors > 1, each dividing the next
    representatives cycles in B spanning the free part (integer vectors
                    over Z, Fraction vectors over Q; empty over Q unless
                    requested)
    """

    rank: int
    torsion: tuple
    representatives: tuple


def homology_of_pair(d_in: IntMatrix, d_out: IntMatrix, ring: str = "Z",
                     want_representatives: bool = True) -> HomologyResult:
    """Homology ker(d_out)/im(d_in), with exact representatives on request.

    Over Z without representatives no transform is computed: the rank is
    nmid - rank(d_out) - rank(d_in), both ranks counted from invariant
    factors, and the torsion is that of coker(d_in), because ker(d_out) is
    saturated.  With representatives, the Smith transforms of d_out give a
    kernel basis and those of d_in in kernel coordinates give the classes.

    Raises CompositionError unless d_out * d_in = 0, and InvariantViolation
    if the image fails to land in the kernel coordinates (which would mean
    the Smith transforms are wrong).
    """
    if d_in.nrows != d_out.ncols:
        raise ValueError(
            f"middle dimensions differ: d_in maps into Z^{d_in.nrows}, "
            f"d_out maps out of Z^{d_out.ncols}")
    if not d_out.matmul(d_in).is_zero():
        raise CompositionError("d_out * d_in is not zero")
    nmid = d_in.nrows
    if nmid == 0:
        return HomologyResult(0, (), ())

    if ring == "Q":
        r = (nmid - rank(d_out)) - rank(d_in)
        reps = ()
        if want_representatives and r:
            kernel = nullspace_rational(d_out)
            image = [d_in.column(j) for j in range(d_in.ncols)]
            reps = tuple(quotient_representatives(kernel, image))
            if len(reps) != r:
                raise InvariantViolation("rational representative count disagrees with rank")
        return HomologyResult(r, (), reps)
    if ring != "Z":
        raise ValueError(f"ring must be 'Z' or 'Q', got {ring!r}")
    if not want_representatives:
        factors_in = smith_normal_form(d_in)
        free_rank = nmid - len(smith_normal_form(d_out)) - len(factors_in)
        # torsion: the factors > 1, which follow the leading 1s of the chain
        return HomologyResult(free_rank, factors_in[factors_in.count(1):], ())

    factors_out, _, _, V1, V1inv = smith_with_transforms(d_out)
    r_out = len(factors_out)
    k = nmid - r_out  # kernel rank; V1 columns r_out.. are a saturated basis

    # image of d_in in kernel coordinates
    coords = [
        [sum(V1inv[i][l] * d_in.entry(l, j) for l in range(nmid))
         for j in range(d_in.ncols)]
        for i in range(nmid)
    ]
    for i in range(r_out):
        if any(coords[i]):
            raise InvariantViolation("image of d_in escapes the kernel of d_out")
    X = IntMatrix.from_rows(coords[r_out:]) if k else IntMatrix(0, d_in.ncols)

    factors_in, _, U2inv, _, _ = smith_with_transforms(X)
    m = len(factors_in)
    torsion = factors_in[factors_in.count(1):]
    free_rank = k - m

    # kernel basis in middle coordinates: columns r_out.. of V1
    reps = [
        tuple(sum(V1[i][r_out + l] * U2inv[l][col] for l in range(k))
              for i in range(nmid))
        for col in range(m, k)
    ]
    return HomologyResult(free_rank, torsion, tuple(reps))


def nullspace_rational(M: IntMatrix) -> list:
    """Basis of the rational kernel of M, as tuples of Fraction."""
    rows = [[Fraction(v) for v in row] for row in M.to_rows()]
    n = M.ncols
    pivots: dict[int, int] = {}  # column -> row index in echelon form
    rank_so_far = 0
    for j in range(n):
        pivot_row = None
        for i in range(rank_so_far, len(rows)):
            if rows[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank_so_far], rows[pivot_row] = rows[pivot_row], rows[rank_so_far]
        pr = rows[rank_so_far]
        inv = 1 / pr[j]
        rows[rank_so_far] = pr = [v * inv for v in pr]
        for i in range(len(rows)):
            if i != rank_so_far and rows[i][j]:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], pr)]
        pivots[j] = rank_so_far
        rank_so_far += 1
    basis = []
    free_cols = [j for j in range(n) if j not in pivots]
    for f in free_cols:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for j, i in pivots.items():
            vec[j] = -rows[i][f]
        basis.append(tuple(vec))
    return basis


def quotient_representatives(vectors: list, modulo: list) -> list:
    """Subset of `vectors` inducing a basis of span(vectors)/span(modulo).

    Both lists contain coordinate vectors of equal length (ints or
    Fractions).  Streaming: the modulo span is built first, then each
    vector is reduced against the running span and kept verbatim when a
    nonzero remainder survives.
    """
    span: list = []  # (pivot index, reduced vector with pivot 1)

    def reduce(v):
        v = [Fraction(x) for x in v]
        for piv, row in span:
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(v):
        for piv in range(len(v)):
            if v[piv]:
                inv = 1 / v[piv]
                span.append((piv, [x * inv for x in v]))
                return True
        return False

    for w in modulo:
        insert(reduce(w))
    reps = []
    for v in vectors:
        r = reduce(v)
        if insert(r):
            reps.append(tuple(v))
    return reps


def determinant_rational(rows: list) -> Fraction:
    """Determinant of a square matrix of ints or Fractions, exactly."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    A = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if A[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            A[j], A[pivot] = A[pivot], A[j]
            det = -det
        det *= A[j][j]
        inv = 1 / A[j][j]
        for i in range(j + 1, n):
            if A[i][j]:
                c = A[i][j] * inv
                A[i] = [a - c * b for a, b in zip(A[i], A[j])]
    return det


def _factorize(value: int) -> list:
    out = []
    v = value
    p = 2
    while p * p <= v:
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if v > 1:
        out.append((v, 1))
    return out


def invariant_factor_chain(factors) -> tuple:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Input: any iterable of integers > 1 (orders of cyclic summands, in any
    order and not necessarily prime powers).  Output: the divisibility
    chain d_1 | d_2 | ... | d_k describing the same group.
    """
    exps: dict[int, list] = {}
    for f in factors:
        if f <= 1:
            raise ValueError(f"cyclic group order must exceed 1, got {f}")
        for p, e in _factorize(f):
            exps.setdefault(p, []).append(e)
    depth = max((len(v) for v in exps.values()), default=0)
    chain = []
    for i in range(depth):  # i = 0 collects the largest power of every prime
        d = 1
        for p, v in exps.items():
            ordered = sorted(v, reverse=True)
            if i < len(ordered):
                d *= p ** ordered[i]
        chain.append(d)
    chain.reverse()
    return tuple(chain)
