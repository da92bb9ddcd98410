"""Tests for exact integer/rational linear algebra."""

import hashlib
import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from momentangle import linalg
from momentangle.cells import boundary_matrix
from momentangle.errors import CompositionError, InvariantViolation
from momentangle.hochster import (
    hochster_bigraded,
    hochster_cohomology,
    hochster_summands,
    reduced_cohomology,
)
from momentangle.koszul import (
    _matrix,
    _support_blocks,
    koszul_basis,
    koszul_bigraded,
    koszul_cohomology,
)
from momentangle.linalg import (
    HomologyResult,
    IntMatrix,
    add_into,
    determinant_rational,
    homology_of_pair,
    invariant_factor_chain,
    nullspace_rational,
    quotient_representatives,
    rank,
    smith_normal_form,
    smith_with_transforms,
)
from momentangle.report import betti_table
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


def random_matrix(rng, nrows, ncols, lo=-3, hi=3, density=0.6):
    M = IntMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    M.rows[i][j] = v
    return M


def mat_eq_dense(dense_a, dense_b):
    return dense_a == dense_b


def dense_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]) if B else 0)]
        for i in range(len(A))
    ]


def test_matmul():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    B = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert A.matmul(B).to_rows() == [[2, 1], [4, 3]]


def test_add_into_drops_a_cancelling_key():
    out = {1: 2, 2: 5}
    add_into(out, {1: -1}, 2)
    assert out == {2: 5}


def test_add_into_ignores_zero_terms():
    # a zero scale, or a zero coefficient at a key out lacks, leaves out as
    # it was: the cancelled key is popped only if present
    out = {1: 2}
    add_into(out, {1: 3, 4: 7}, 0)
    assert out == {1: 2}
    add_into(out, {5: 0})
    assert out == {1: 2}


def test_add_into_fraction_scale():
    out = {1: 1}
    add_into(out, {1: 1, 2: 3}, Fraction(1, 2))
    assert out == {1: Fraction(3, 2), 2: Fraction(3, 2)}
    assert all(type(v) is Fraction for v in out.values())


def test_add_into_keeps_key_order():
    out = {3: 1, 1: 1, 2: 1}
    add_into(out, {5: 1, 1: 1, 4: 1, 2: -1})
    assert list(out) == [3, 1, 5, 4]
    assert out == {3: 1, 1: 2, 5: 1, 4: 1}


def test_rank_examples():
    assert rank(IntMatrix.from_rows([[1, -1], [2, -2]])) == 1
    assert rank(IntMatrix.from_rows([[2]])) == 1
    assert rank(IntMatrix(3, 4)) == 0
    assert rank(IntMatrix.from_rows([[1, 0, 2], [0, 1, 3], [1, 1, 5]])) == 2


def test_smith_normal_form_examples():
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntMatrix.from_rows([[0]])) == ()
    assert smith_normal_form(IntMatrix.from_rows([[2]])) == (2,)
    assert smith_normal_form(IntMatrix(0, 5)) == ()
    assert smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 6]])) == (1, 6)


def test_smith_factors_form_divisibility_chain():
    rng = random.Random(7)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        f = smith_normal_form(M)
        for a, b in zip(f, f[1:]):
            assert b % a == 0
        assert all(x > 0 for x in f)
        assert len(f) == rank(M)


def test_smith_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        rows = M.to_rows()
        rng.shuffle(rows)
        cols = list(range(n))
        rng.shuffle(cols)
        P = IntMatrix.from_rows([[row[j] for j in cols] for row in rows])
        assert smith_normal_form(M) == smith_normal_form(P)


def test_smith_transforms_are_exact():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        factors, Uinv, V, Vinv = smith_with_transforms(M)
        D = [[factors[i] if i == j and i < len(factors) else 0
              for j in range(n)] for i in range(m)]
        assert dense_mul(M.to_rows(), V) == dense_mul(Uinv, D)
        assert all(a > 0 and b % a == 0 for a, b in zip(factors, factors[1:]))
        assert abs(determinant_rational(Uinv)) == 1
        eye_n = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert dense_mul(V, Vinv) == eye_n



SMITH_DIGEST = "f3ebcc99a526ea638256f88c783d130e0ce6c8e8453268c2e9847368449482e9"


def test_smith_transforms_are_pinned_byte_for_byte():
    """The exact transforms fix every representative, resolvent and period
    byte, so an elimination change that moves any of them moves this digest."""
    rng = random.Random(5)
    h = hashlib.sha256()
    for _ in range(4000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.random()
        M = IntMatrix.from_rows([[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
                                  for _ in range(n)] for _ in range(m)])
        h.update(repr(smith_with_transforms(M)).encode())
        h.update(repr(smith_normal_form(M)).encode())
    assert h.hexdigest() == SMITH_DIGEST


def test_smith_normal_form_matches_transform_path():
    rng = random.Random(29)
    non_unit = 0
    for _ in range(80):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        M = random_matrix(rng, m, n, lo=-4, hi=4)
        scale = rng.choice([1, 1, 2, 3, 6])
        for row in M.rows:
            for j in row:
                row[j] *= scale
        factors = smith_normal_form(M)
        assert factors == smith_with_transforms(M)[0]
        non_unit += any(f > 1 for f in factors)
    assert non_unit >= 20


def assert_unit_pivot_paths(M):
    """smith_normal_form and rank, which start with the sparse unit-pivot
    pass, agree with the dense transform path and the kernel dimension,
    and leave M as it was."""
    rows = [dict(row) for row in M.rows]
    assert smith_normal_form(M) == smith_with_transforms(M)[0]
    assert rank(M) == M.ncols - len(nullspace_rational(M))
    assert M.rows == rows


def koszul_blocks(K):
    """d_in and d_out of every support block of every bidegree of K."""
    for q in range(K.n + 1):
        for p in range(q + 1):
            lower = _support_blocks(koszul_basis(K, p - 1, q))
            upper = _support_blocks(koszul_basis(K, p + 1, q))
            for S, block in _support_blocks(koszul_basis(K, p, q)).items():
                yield _matrix(K, block, lower.get(S, ()))
                yield _matrix(K, upper.get(S, ()), block)


def test_unit_pivots_on_every_koszul_block_of_four_vertices():
    blocks = 0
    for K in enumerate_complexes(4):
        for M in koszul_blocks(K):
            assert_unit_pivot_paths(M)
            blocks += 1
    assert blocks > 1000


def test_unit_pivots_on_random_matrices():
    rng = random.Random(37)
    for _ in range(150):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        kind = rng.choice(["no units", "units only", "zero lines", "mixed"])
        if kind == "no units":
            # every entry is at least 2 in size, so the dense residue path runs
            M = random_matrix(rng, m, n, lo=2, hi=5, density=0.5)
            for row in M.rows:
                for j in row:
                    row[j] *= rng.choice([1, -1])
        elif kind == "units only":
            M = random_matrix(rng, m, n, lo=-1, hi=1)
        else:
            M = random_matrix(rng, m, n, lo=-4, hi=4, density=0.5)
        if kind == "zero lines":
            if m:
                M.rows[rng.randrange(m)] = {}
            if n:
                j = rng.randrange(n)
                for row in M.rows:
                    row.pop(j, None)
        assert_unit_pivot_paths(M)


def test_unit_pivots_examples():
    # a -1 pivot, after which the residue holds no unit
    M = IntMatrix.from_rows([[-1, 2, 0], [3, 4, 0], [0, 0, 6], [0, 2, 4]])
    assert_unit_pivot_paths(M)
    assert smith_normal_form(M) == (1, 2, 2)
    # clearing the pivot column creates the next unit in an earlier row
    M = IntMatrix.from_rows([[2, 3], [1, 1]])
    assert_unit_pivot_paths(M)
    assert smith_normal_form(M) == (1, 1)
    assert rank(IntMatrix.from_rows([[1, 1], [-1, -1], [2, 2]])) == 1


def test_homology_torsion_only():
    # Z --2--> Z --> 0 gives Z/2
    d_in = IntMatrix.from_rows([[2]])
    d_out = IntMatrix(0, 1)
    H = homology_of_pair(d_in, d_out)
    assert H == HomologyResult(0, (2,), ())


def test_homology_free_with_representative():
    # 0 --> Z^2 --[1,-1]--> Z gives Z with cycle (1, 1)
    d_in = IntMatrix(2, 0)
    d_out = IntMatrix.from_rows([[1, -1]])
    H = homology_of_pair(d_in, d_out)
    assert H.rank == 1
    assert H.torsion == ()
    assert len(H.representatives) == 1
    a, b = H.representatives[0]
    assert a == b and abs(a) == 1


def test_homology_circle():
    # simplicial circle on 3 vertices: edges 12, 13, 23
    # boundary of edge {a,b} is b - a
    d_out = IntMatrix.from_rows([
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ])
    d_in = IntMatrix(3, 0)
    H = homology_of_pair(d_in, d_out)
    assert H.rank == 1 and H.torsion == ()
    v = H.representatives[0]
    # the cycle must be a generator: edge12 - edge13 + edge23 up to sign
    assert sorted(map(abs, v)) == [1, 1, 1]


def test_homology_rejects_bad_composition():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(CompositionError):
        homology_of_pair(d_in, d_out)


def test_invalid_ring_is_refused_at_an_empty_bidegree():
    # the plane minus the origin: bidegree (0, 2) and reduced degree 1 hold
    # no cochains, so each call would return zero before reaching any solve;
    # the whole tables must refuse the ring too
    K = SimplicialComplex.from_facets(2, [[1], [2]])
    calls = [
        lambda: homology_of_pair(IntMatrix(0, 0), IntMatrix(0, 0), ring="q"),
        lambda: koszul_cohomology(K, 0, 2, ring="zz"),
        lambda: hochster_summands(K, 0, 2, ring="zz"),
        lambda: hochster_cohomology(K, 0, 2, ring="zz"),
        lambda: hochster_cohomology(K, -1, 3, ring="zz"),
        lambda: reduced_cohomology(K, 1, ring="zz"),
        lambda: koszul_bigraded(K, ring="zz"),
        lambda: hochster_bigraded(K, ring="zz"),
        lambda: betti_table(K, ring="zz"),
        lambda: betti_table(K, ring="zz", engine="hochster"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="ring"):
            call()


def integral_kernel_columns(rng, d_out):
    """Columns lying in ker(d_out), scaled to integers, some doubled or dropped."""
    from math import gcd

    cols = []
    for vec in nullspace_rational(d_out):
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        scale = rng.randint(0, 2)
        if scale:
            cols.append([int(x * lcm) * scale for x in vec])
    return cols


def test_homology_rational_matches_integer_rank():
    rng = random.Random(17)
    torsion_seen = 0
    for _ in range(25):
        mid = rng.randint(1, 5)
        d_out = random_matrix(rng, rng.randint(0, 4), mid)
        cols = integral_kernel_columns(rng, d_out)
        d_in = IntMatrix.from_rows(list(zip(*cols))) if cols else IntMatrix(mid, 0)
        HZ = homology_of_pair(d_in, d_out, ring="Z")
        HQ = homology_of_pair(d_in, d_out, ring="Q")
        assert HQ.rank == HZ.rank
        assert HQ.torsion == ()
        assert len(HQ.representatives) == HQ.rank
        # the transform-free integer path gives the same group
        bare = homology_of_pair(d_in, d_out, ring="Z", want_representatives=False)
        assert (bare.rank, bare.torsion, bare.representatives) == (HZ.rank, HZ.torsion, ())
        torsion_seen += bool(HZ.torsion)
    assert torsion_seen


def test_representatives_are_independent_cycles():
    rng = random.Random(19)
    for _ in range(25):
        mid = rng.randint(1, 5)
        d_out = random_matrix(rng, rng.randint(0, 4), mid)
        cols = integral_kernel_columns(rng, d_out)
        d_in = IntMatrix.from_rows(list(zip(*cols))) if cols else IntMatrix(mid, 0)
        H = homology_of_pair(d_in, d_out)
        for v in H.representatives:
            image = [d_out.entry(i, 0) * 0 for i in range(d_out.nrows)]
            for i in range(d_out.nrows):
                image[i] = sum(d_out.entry(i, j) * v[j] for j in range(mid))
            assert not any(image)
        # classes stay independent modulo the image of d_in
        reps = quotient_representatives(
            [tuple(map(Fraction, v)) for v in H.representatives],
            [d_in.column(j) for j in range(d_in.ncols)],
        )
        assert len(reps) == H.rank


def dense_integral_homology(d_in, d_out):
    """(H, k, m): the integral homology by dense sums over the Smith
    transforms, the kernel rank k of d_out and the rank m of the image of
    d_in in kernel coordinates."""
    factors_out, _, V1, V1inv = smith_with_transforms(d_out)
    r_out = len(factors_out)
    nmid = d_in.nrows
    k = nmid - r_out
    coords = [[sum(V1inv[i][l] * d_in.entry(l, j) for l in range(nmid))
               for j in range(d_in.ncols)]
              for i in range(nmid)]
    assert not any(any(row) for row in coords[:r_out])
    X = IntMatrix.from_rows(coords[r_out:]) if k else IntMatrix(0, d_in.ncols)
    factors_in, U2inv, _, _ = smith_with_transforms(X)
    m = len(factors_in)
    reps = tuple(
        tuple(sum(V1[i][r_out + l] * U2inv[l][col] for l in range(k)) for i in range(nmid))
        for col in range(m, k))
    return HomologyResult(k - m, factors_in[factors_in.count(1):], reps), k, m


def integral_pairs():
    """Cell boundary pairs at every bidegree of every complex with n = 3 and
    of RP^2 on 6 vertices, random pairs with d_out * d_in = 0, and the two
    extremes: an injective d_out (k = 0) and a d_in onto a finite-index
    sublattice of the kernel (m = k)."""
    rp2 = SimplicialComplex.from_facets(6, [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
        [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]])
    for K in [*enumerate_complexes(3), rp2]:
        for q in range(K.n + 1):
            for p in range(q + 1):
                yield boundary_matrix(K, p - 1, q), boundary_matrix(K, p, q)
    rng = random.Random(43)
    for _ in range(150):
        mid = rng.randint(1, 6)
        d_out = random_matrix(rng, rng.randint(0, 5), mid)
        cols = integral_kernel_columns(rng, d_out)
        if len(cols) > 1:  # one more column, an integer combination of two
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            cols.append([a * x + b * y for x, y in zip(cols[0], cols[-1])])
        yield IntMatrix.from_rows(list(zip(*cols))) if cols else IntMatrix(mid, 0), d_out
    yield IntMatrix(2, 0), IntMatrix.from_rows([[1, 0], [0, 1]])
    yield IntMatrix.from_rows([[2, 0], [0, 1]]), IntMatrix(0, 2)


def test_integer_representatives_match_dense_reference():
    # the sparse products give the integers of the dense sums exactly
    injective = onto = 0
    for d_in, d_out in integral_pairs():
        want, k, m = dense_integral_homology(d_in, d_out)
        assert homology_of_pair(d_in, d_out) == want, (d_in.to_rows(), d_out.to_rows())
        injective += k == 0 < d_in.nrows
        onto += 0 < k == m
    assert injective and onto


def test_homology_catches_an_image_outside_the_kernel(monkeypatch):
    # d_in = e2 spans ker [1 0]; a coordinate change with its rows swapped
    # sends the image to the pivot row, which the kernel coordinates lack
    real = linalg.smith_with_transforms

    def swapped(M):
        factors, Uinv, V, Vinv = real(M)
        return factors, Uinv, V, Vinv[::-1]

    monkeypatch.setattr(linalg, "smith_with_transforms", swapped)
    with pytest.raises(InvariantViolation):
        homology_of_pair(IntMatrix.from_rows([[0], [1]]), IntMatrix.from_rows([[1, 0]]))


def test_nullspace_rational():
    M = IntMatrix.from_rows([[1, 2, 3]])
    basis = nullspace_rational(M)
    assert basis == [(-2, 1, 0), (-3, 0, 1)]
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert nullspace_rational(IntMatrix.from_rows([[1, 0], [0, 1]])) == []
    # a zero column and a dependent row
    assert nullspace_rational(IntMatrix.from_rows([[1, 0, 2], [2, 0, 4]])) == [
        (0, 1, 0), (-2, 0, 1)]
    # rows out of pivot order give the reduced row echelon basis all the same
    assert nullspace_rational(IntMatrix.from_rows([[0, 1, 1], [1, 1, 0]])) == [(1, -1, 1)]
    assert nullspace_rational(IntMatrix.from_rows([[2, 3]])) == [(Fraction(-3, 2), 1)]
    assert nullspace_rational(IntMatrix(2, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert nullspace_rational(IntMatrix(0, 0)) == []
    for rows in ([[1, 2, 3]], [[1, 0, 2], [2, 0, 4]], [[2, 3]]):
        for v in nullspace_rational(IntMatrix.from_rows(rows)):
            assert all(type(x) is Fraction for x in v)


def determinant_by_permutations(A):
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def test_echelon_entry_points_random():
    rng = random.Random(31)
    singular = nonsingular = kept = dropped = 0
    for _ in range(300):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        M = random_matrix(rng, m, n, density=rng.choice([0.2, 0.4, 0.7]))
        dense = M.to_rows()
        r = rank(M)
        kernel = nullspace_rational(M)
        assert len(kernel) == n - r
        for v in kernel:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in dense)
        # free columns of the reduced row echelon form: those that do not
        # raise the rank of the columns to their left
        free = [f for f in range(n)
                if rank(IntMatrix.from_rows([row[:f + 1] for row in dense]))
                == rank(IntMatrix.from_rows([row[:f] for row in dense]))]
        assert len(free) == len(kernel)
        for f, v in zip(free, kernel):
            assert [v[g] for g in free] == [1 if g == f else 0 for g in free]

        k = rng.randint(0, 4)
        A = random_matrix(rng, k, k, density=rng.choice([0.4, 0.8])).to_rows()
        if k > 1 and rng.random() < 0.3:
            A[rng.randrange(k)] = [2 * x for x in A[rng.randrange(k)]]
        if rng.random() < 0.5:
            A = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in A]
        det = determinant_rational(A)
        assert det == determinant_by_permutations(A)
        singular += det == 0
        nonsingular += det != 0

        modulo = [M.column(j) for j in range(n) if rng.random() < 0.5]
        vectors = [tuple(rng.randint(-1, 1) * x for x in M.column(rng.randrange(n)))
                   if n and rng.random() < 0.5 else
                   tuple(rng.randint(-2, 2) for _ in range(m))
                   for _ in range(rng.randint(0, 5))]
        vectors = [tuple(Fraction(x, 3) for x in v) if rng.random() < 0.3 else v
                   for v in vectors]
        reps = quotient_representatives(vectors, modulo)
        span = list(modulo)  # the vectors below are scaled by 3 to clear thirds
        expected = []
        for v in vectors:
            before = rank(IntMatrix.from_rows(span)) if span else 0
            span.append(tuple(int(3 * x) for x in v))
            if rank(IntMatrix.from_rows(span)) > before:
                expected.append(v)
        assert reps == expected
        kept += len(reps)
        dropped += len(vectors) - len(reps)
    assert singular >= 30 and nonsingular >= 30
    assert kept >= 30 and dropped >= 30


def test_quotient_representatives_streaming():
    vectors = [(1, 0, 0), (0, 0, 1), (1, 1, 0)]
    modulo = [(1, -1, 0)]
    reps = quotient_representatives(vectors, modulo)
    # (1,1,0) is 2*(1,0,0) modulo (1,-1,0), so only the first two survive
    assert reps == [(1, 0, 0), (0, 0, 1)]
    assert quotient_representatives([(2, 2)], [(1, 1)]) == []
    assert quotient_representatives([(0, 0)], []) == []


def test_invariant_factor_chain():
    assert invariant_factor_chain([]) == ()
    assert invariant_factor_chain([2]) == (2,)
    assert invariant_factor_chain([2, 3]) == (6,)
    assert invariant_factor_chain([2, 2]) == (2, 2)
    assert invariant_factor_chain([2, 4, 3]) == (2, 12)
    assert invariant_factor_chain([6, 4]) == (2, 12)
    assert invariant_factor_chain([2**61 - 1, 2]) == (2 * (2**61 - 1),)
    with pytest.raises(ValueError):
        invariant_factor_chain([1])


def chain_by_insertion(factors):
    """The divisibility chain built one factor at a time, each entering from
    the top by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): quadratic, but plain."""
    chain = []
    for f in factors:
        for i in range(len(chain) - 1, -1, -1):
            if f == 1:
                break
            g = math.gcd(chain[i], f)
            chain[i] = chain[i] // g * f
            f = g
        if f > 1:
            chain.insert(0, f)
    return tuple(chain)


def test_invariant_factor_chain_matches_insertion():
    rng = random.Random(29)
    for _ in range(200):
        factors = [rng.choice([2, 3, 4, 6, 8, 12, 30]) for _ in range(rng.randint(0, 40))]
        assert invariant_factor_chain(factors) == chain_by_insertion(factors), factors
        assert invariant_factor_chain(iter(factors)) == chain_by_insertion(factors)


def test_invariant_factor_chain_is_fast_on_many_equal_factors():
    # C(20, 10) twos: the torsion of RP2 on six vertices with 20 ghost vertices
    # at (13, 16), where inserting one factor at a time walks the whole chain
    start = time.process_time()
    chain = invariant_factor_chain([2] * 184756)
    elapsed = time.process_time() - start
    assert chain == (2,) * 184756
    assert elapsed < 1.0


def test_invariant_factor_chain_matches_smith():
    # the chain of a diagonal matrix's cyclic parts equals its Smith factors > 1
    rng = random.Random(23)
    for _ in range(30):
        diag = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(1, 4))]
        M = IntMatrix(len(diag), len(diag))
        for i, d in enumerate(diag):
            M.rows[i][i] = d
        smith_torsion = tuple(f for f in smith_normal_form(M) if f > 1)
        assert invariant_factor_chain(diag) == smith_torsion
