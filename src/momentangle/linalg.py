"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction; no floating point is used anywhere.  Matrices are
sparse row dicts, as the chain-level matrices in this package are mostly
zeros.

Over Q one sparse echelon of primitive integer rows does every
elimination: rank, nullspace_rational, quotient_representatives and
determinant_rational are thin entry points over it.  Over Z one Smith
elimination, a single dense pass that updates a transform only when
given one, serves smith_normal_form (the invariant factors alone) and
smith_with_transforms (with the three change-of-basis matrices that
homology representatives read).  homology_of_pair pays for the
transforms only when integer representatives are requested, and applies
them with sparse IntMatrix.matmul products.  The two transform-free
eliminations, rank and smith_normal_form, first split off every ±1 pivot
with sparse integer row operations (Dumas, Saunders and Villard, JSC
2001): each is one invariant factor 1 and one unit of rank, and only the
residue they leave goes on to the echelon or the dense Smith form.
add_into is the one in-place sparse combination: the echelon step, the
unit-pivot pass and the cell and face-tuple chains of the other modules
all add through it.  invariant_factor_chain merges torsion orders into
their divisibility chain by pairwise gcd and lcm, so no integer is ever
factored.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from ._record import Record
from .errors import CompositionError, InvariantViolation


class IntMatrix:
    """Sparse integer matrix representing a linear map Z^ncols -> Z^nrows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, int]] = [{} for _ in range(nrows)]

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

    def to_rows(self) -> list:
        return [
            [row.get(j, 0) for j in range(self.ncols)]
            for row in self.rows
        ]

    def column(self, j: int) -> tuple:
        return tuple([self.rows[i].get(j, 0) for i in range(self.nrows)])

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


def add_into(out: dict, values: dict, scale=1) -> None:
    """out += scale * values in place; a key whose coefficient cancels is
    dropped, and a new key goes to the end of out in the order of values."""
    for k, x in values.items():
        y = out.get(k, 0) + scale * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)


def _reduce(v: dict, rows: dict, cols) -> int:
    """Clear v at the pivot columns `cols`, ascending, fraction-free and in
    place: v becomes num * (v - a rational combination of the rows), and num
    is returned.  No row has entries left of its pivot, so clearing one
    column never refills an earlier one."""
    num = 1
    for c in cols:
        a = v.get(c)
        if not a:
            continue
        p = rows[c]
        b = p[c]
        g = gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for k in v:
                v[k] *= b
            num *= b
        add_into(v, p, -a)  # column c itself cancels here
    return num


class _Echelon:
    """Row echelon form over Q, kept as primitive integer rows.

    `rows` maps each pivot column to its row {column: int}, whose leftmost
    entry is the pivot, in insertion order.  Every new row is reduced
    against all pivots held, so no row has an entry at an earlier row's
    pivot, and the pivot columns are those of the reduced row echelon form
    of the rows inserted, in whatever order they came.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: list[int] = []  # the pivot columns, ascending
        for v in rows:
            if v:
                self.insert(v)

    def insert(self, v: dict):
        """Reduce the integer row v against the pivots and keep any remainder.

        Returns the new pivot's entry in v minus a rational combination of
        the rows held, before the remainder is divided by its content (an
        int when no row was scaled, else a Fraction), or None when v lies
        in their span.
        """
        v = dict(v)
        num = _reduce(v, self.rows, self.cols)
        if not v:
            return None
        c = min(v)
        value = v[c] if num == 1 else Fraction(v[c], num)
        g = gcd(*v.values())
        self.rows[c] = v if g == 1 else {k: x // g for k, x in v.items()}
        insort(self.cols, c)
        return value


def _integral(v) -> tuple:
    """(row, s): s * v as a {index: int} row of its nonzero entries, where
    s is the least common denominator of the ints or Fractions in v."""
    s = 1
    for x in v:
        if x and x.denominator != 1:
            s = lcm(s, x.denominator)
    return {j: x.numerator * (s // x.denominator) for j, x in enumerate(v) if x}, s


def _unit_pivots(M: IntMatrix) -> tuple:
    """(units, residue): M brought by sparse integer row operations to an
    identity block of size `units` beside the nonzero rows `residue`.

    While some row holds a ±1 entry s, the first such row in row order
    clears s's column in every other row.  It is then alone in its column,
    so the column operations that would clear the rest of it touch no other
    row, and it is dropped as one invariant factor 1.  Rows before the scan
    position hold no ±1 until an elimination changes them, so the scan
    resumes at the first changed row.  M is not modified.
    """
    rows = [dict(row) for row in M.rows if row]
    units = i = 0
    while i < len(rows):
        pivot = rows[i]
        for c, s in pivot.items():
            if s == 1 or s == -1:
                break
        else:
            i += 1
            continue
        units += 1
        del rows[i]
        for j, row in enumerate(rows):
            a = row.get(c)
            if a:
                add_into(row, pivot, -a * s)  # clears column c, as s * s == 1
                if j < i:
                    i = j
    return units, [row for row in rows if row]


def rank(M: IntMatrix) -> int:
    """Rank over Q: the unit pivots of M plus the rank the echelon finds in
    the residue they leave."""
    units, residue = _unit_pivots(M)
    if not residue:
        return units
    return units + len(_Echelon(residue).cols)


def nullspace_rational(M: IntMatrix) -> list:
    """Basis of the rational kernel of M, as tuples of Fraction.

    One vector per free column f of the reduced row echelon form: 1 at f,
    0 at the other free columns and minus the reduced entry at column f of
    each pivot row.
    """
    ech = _Echelon(M.rows)
    rows, cols = ech.rows, ech.cols
    # back-substitution: right to left, clear each row at the later pivots
    for i in range(len(cols) - 2, -1, -1):
        _reduce(rows[cols[i]], rows, cols[i + 1:])
    n = M.ncols
    kernel = {f: [Fraction(0)] * n for f in range(n) if f not in rows}
    for f, vec in kernel.items():
        vec[f] = Fraction(1)
    for c, row in rows.items():
        b = row[c]
        for k, x in row.items():
            if k != c:
                kernel[k][c] = Fraction(-x, b)
    return [tuple(vec) for vec in kernel.values()]


def quotient_representatives(vectors: list, modulo: list) -> list:
    """Subset of `vectors` inducing a basis of span(vectors)/span(modulo).

    Both lists hold coordinate vectors of equal length (ints or Fractions).
    A vector is kept verbatim unless the modulo vectors and the vectors
    kept so far span it.
    """
    ech = _Echelon(_integral(w)[0] for w in modulo)
    return [tuple(v) for v in vectors if ech.insert(_integral(v)[0]) is not None]


def determinant_rational(rows: list) -> Fraction:
    """Determinant of a square matrix of ints or Fractions, exactly.

    Row i, cleared of denominators by s_i and reduced against the rows
    before it, has its pivot at column pi(i) and zeros at pi(0..i-1), so
    det = sign(pi) * prod(pivot_i / s_i); a dependent row makes it 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ech = _Echelon()
    det = Fraction(1)
    for row in rows:
        v, s = _integral(row)
        value = ech.insert(v)
        if value is None:
            return Fraction(0)
        det = det * value / s
    pi = list(ech.rows)
    inversions = sum(pi[i] > pi[j] for i in range(n) for j in range(i + 1, n))
    return -det if inversions % 2 else det


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith(A: list, transforms=((), (), ())) -> tuple:
    """Diagonalize the dense rows A in place and return its invariant factors.

    `transforms` is (Uinv, V, VinvT): identity-started dense row lists, each
    empty when unwanted.  Each operation on A is a column operation on
    them, so that M * V ends up as Uinv * D with D diagonal, and VinvT as
    the transpose of the inverse of V.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    Uinv, V, VinvT = transforms

    # Rows t.. are zero left of column t and columns t.. are zero above
    # row t, so the operations at step t only touch the trailing block.
    def swap_rows(a, b):
        A[a], A[b] = A[b], A[a]
        for r in Uinv:
            r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        for r in A[t:]:
            r[a], r[b] = r[b], r[a]
        for r in V:
            r[a], r[b] = r[b], r[a]
        for r in VinvT:
            r[a], r[b] = r[b], r[a]

    def row_op(i, s, q):
        # row_i -= q * row_s
        A[i][t:] = [x - q * y for x, y in zip(A[i][t:], A[s][t:])]
        for r in Uinv:
            r[s] += q * r[i]

    def col_op(j, s, q):
        # col_j -= q * col_s
        for r in A[t:]:
            r[j] -= q * r[s]
        for r in V:
            r[j] -= q * r[s]
        for r in VinvT:
            r[s] += q * r[j]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
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
    """Smith normal form with the change-of-basis matrices homology needs.

    Returns (factors, Uinv, V, Vinv) where M * V = Uinv * D for the matrix
    D holding the given nonzero invariant factors (each dividing the next,
    leading 1s included) in its upper-left corner and zeros elsewhere;
    Uinv and V are unimodular and Vinv is the exact inverse of V.  All four
    are dense row lists; the elimination keeps Vinv transposed.
    """
    Uinv, V, VinvT = (_identity_rows(M.nrows),
                      _identity_rows(M.ncols), _identity_rows(M.ncols))
    factors = _smith(M.to_rows(), (Uinv, V, VinvT))
    return factors, Uinv, V, [list(r) for r in zip(*VinvT)]


def smith_normal_form(M: IntMatrix) -> tuple:
    """Nonzero invariant factors of M, leading 1s included.

    Each unit pivot is a factor 1.  The residue the pivots leave, restricted
    to the columns it still uses, goes through the elimination of
    smith_with_transforms without any change-of-basis matrix; for most
    Koszul blocks there is no residue.
    """
    units, residue = _unit_pivots(M)
    if not residue:
        return (1,) * units
    cols = sorted(set().union(*residue))
    dense = [[row.get(j, 0) for j in cols] for row in residue]
    return (1,) * units + _smith(dense)


def check_ring(ring: str) -> None:
    """Raise ValueError unless ring is 'Z' or 'Q'."""
    if ring not in ("Z", "Q"):
        raise ValueError(f"ring must be 'Z' or 'Q', got {ring!r}")


class HomologyResult(Record):
    """Homology at the middle term of d_in: A -> B, d_out: B -> C.

    rank            free rank
    torsion         invariant factors > 1, each dividing the next
    representatives cycles in B spanning the free part (integer vectors
                    over Z, Fraction vectors over Q; empty over Q unless
                    requested)
    """

    __slots__ = ("rank", "torsion", "representatives")
    rank: int
    torsion: tuple
    representatives: tuple

    def __init__(self, rank: int, torsion: tuple, representatives: tuple):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "representatives", representatives)


def homology_of_pair(d_in: IntMatrix, d_out: IntMatrix, ring: str = "Z",
                     want_representatives: bool = True) -> HomologyResult:
    """Homology ker(d_out)/im(d_in), with exact representatives on request.

    Over Z without representatives no transform is computed: the rank is
    nmid - rank(d_out) - rank(d_in), both ranks counted from invariant
    factors, and the torsion is that of coker(d_in), because ker(d_out) is
    saturated.  With representatives, the Smith transforms of d_out give a
    kernel basis and those of d_in in kernel coordinates give the classes;
    both coordinate changes are sparse products.

    Raises CompositionError unless d_out * d_in = 0, and InvariantViolation
    if the image fails to land in the kernel coordinates (which would mean
    the Smith transforms are wrong).
    """
    check_ring(ring)
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
    if not want_representatives:
        factors_in = smith_normal_form(d_in)
        free_rank = nmid - len(smith_normal_form(d_out)) - len(factors_in)
        # torsion: the factors > 1, which follow the leading 1s of the chain
        return HomologyResult(free_rank, factors_in[factors_in.count(1):], ())

    factors_out, _, V1, V1inv = smith_with_transforms(d_out)
    r_out = len(factors_out)
    k = nmid - r_out  # kernel rank; V1 columns r_out.. are a saturated basis

    # image of d_in in kernel coordinates: the rows below r_out
    coords = IntMatrix.from_rows(V1inv).matmul(d_in)
    if any(coords.rows[:r_out]):
        raise InvariantViolation("image of d_in escapes the kernel of d_out")
    X = IntMatrix(k, d_in.ncols)
    X.rows = coords.rows[r_out:]

    factors_in, U2inv, _, _ = smith_with_transforms(X)
    m = len(factors_in)
    torsion = factors_in[factors_in.count(1):]

    # the kernel basis, columns r_out.. of V1, recombined by U2inv
    cycles = IntMatrix.from_rows([row[r_out:] for row in V1]).matmul(
        IntMatrix.from_rows(U2inv))
    reps = tuple([cycles.column(col) for col in range(m, k)])
    return HomologyResult(k - m, torsion, reps)


def invariant_factor_chain(factors) -> tuple:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Input: any iterable of integers > 1 (orders of cyclic summands, in any
    order and not necessarily prime powers).  Output: the divisibility
    chain d_1 | d_2 | ... | d_k describing the same group.  Each factor
    enters the chain from the top by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b);
    the gcd carried down past the bottom is a new d_1 unless it is 1.
    """
    chain = []
    for f in factors:
        if f <= 1:
            raise ValueError(f"cyclic group order must exceed 1, got {f}")
        for i in range(len(chain) - 1, -1, -1):
            if f == 1:
                break
            g = gcd(chain[i], f)
            chain[i] = chain[i] // g * f
            f = g
        if f > 1:
            chain.insert(0, f)
    return tuple(chain)
