"""Tests for the cochain algebra engine."""

import hashlib
import random
from itertools import combinations
from math import comb

import pytest

from momentangle import koszul
from momentangle.errors import CompositionError, InvariantViolation
from momentangle.koszul import (
    differential_matrix,
    koszul_basis,
    koszul_bigraded,
    koszul_cohomology,
    koszul_differential,
)
from momentangle.linalg import HomologyResult, quotient_representatives
from momentangle.simplicial import SimplicialComplex, enumerate_complexes
from test_hochster import with_ghosts


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def test_basis_and_differential_build_monomials():
    K = square()
    for p in range(0, 4):
        for q in range(p, 5):
            for m in koszul_basis(K, p, q):
                I, J = m
                assert (len(I), len(I) + len(J)) == (p, q)
                for term in koszul_differential(K, m):
                    I, J = term
                    assert (len(I), len(I) + len(J)) == (p - 1, q)
    m = ((1, 3), (2,))
    assert koszul_differential(K, m) == {
        ((3,), (1, 2)): 1,
        ((1,), (2, 3)): -1,
    }


def test_unchecked_monomials_stay_disjoint():
    # koszul_basis and koszul_differential check no overlap when they build
    # a pair (I, J); every one they build must still be disjoint, with a
    # face part that is a face of K
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    for m in koszul_basis(K, p, q):
                        assert not set(m[0]) & set(m[1]), (K, m)
                        assert K.has_face(m[1]), (K, m)
                        for term in koszul_differential(K, m):
                            assert not set(term[0]) & set(term[1]), (K, m, term)
                            assert K.has_face(term[1]), (K, m, term)


def test_basis_ordering_two_points():
    basis = koszul_basis(two_points(), 1, 2)
    assert basis == (
        ((1,), (2,)),
        ((2,), (1,)),
    )


def test_basis_counts():
    # |basis(p, q)| = sum over faces J of size q - p of C(n - |J|, p)
    for K in (two_points(), square()):
        for p in range(0, K.n + 1):
            for q in range(p, K.n + 1):
                want = sum(
                    comb(K.n - (q - p), p)
                    for J in K.faces_of_size(q - p)
                )
                assert len(koszul_basis(K, p, q)) == want


def test_basis_empty_outside_range():
    assert koszul_basis(two_points(), 2, 1) == ()
    assert koszul_basis(two_points(), -1, 0) == ()


def test_differential_drops_non_faces():
    # in the two-point complex, {1, 2} is not a face, so both cycles survive
    K = two_points()
    assert koszul_differential(K, ((1,), (2,))) == {}
    assert koszul_differential(K, ((2,), (1,))) == {}


def test_differential_alternating_signs():
    # full simplex on 2 vertices: both moves land on faces
    K = SimplicialComplex.from_facets(2, [[1, 2]])
    m = ((1, 2), ())
    assert koszul_differential(K, m) == {
        ((2,), (1,)): 1,
        ((1,), (2,)): -1,
    }


def test_differential_squares_to_zero_randomized():
    rng = random.Random(5)
    complexes = list(enumerate_complexes(3))
    for _ in range(200):
        K = rng.choice(complexes)
        p = rng.randint(0, 3)
        q = rng.randint(p, 3)
        d = differential_matrix(K, p - 1, q).matmul(differential_matrix(K, p, q))
        assert d.is_zero(), (K, p, q)


def test_differential_matrix_shape_and_example():
    K = SimplicialComplex.from_facets(2, [[1, 2]])
    M = differential_matrix(K, 2, 2)
    # source u_{12}, target basis sorted: [u_1 v_2, u_2 v_1]
    assert (M.nrows, M.ncols) == (2, 1)
    assert M.column(0) == (-1, 1)


def test_point_complex_cohomology():
    K = SimplicialComplex(1, [()])
    assert koszul_bigraded(K) == {
        (0, 0): koszul_cohomology(K, 0, 0, want_representatives=False),
        (1, 1): koszul_cohomology(K, 1, 1, want_representatives=False),
    }
    H = koszul_cohomology(K, 1, 1)
    assert H.rank == 1 and H.torsion == ()


def test_two_points_cohomology():
    table = koszul_bigraded(two_points())
    assert {(k, (v.rank, v.torsion)) for k, v in table.items()} == {
        ((0, 0), (1, ())),
        ((1, 2), (1, ())),
    }


def test_full_simplex_is_acyclic():
    K = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    table = koszul_bigraded(K)
    assert set(table) == {(0, 0)}
    assert table[(0, 0)].rank == 1


def test_triangle_boundary_cohomology():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    table = koszul_bigraded(K)
    assert {(k, v.rank) for k, v in table.items()} == {((0, 0), 1), ((1, 3), 1)}


def test_square_cohomology():
    table = koszul_bigraded(square())
    assert {(k, (v.rank, v.torsion)) for k, v in table.items()} == {
        ((0, 0), (1, ())),
        ((1, 2), (2, ())),
        ((2, 4), (1, ())),
    }


def rp2_six():
    return SimplicialComplex.from_facets(6, [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
        [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]])


def pentagon():
    return SimplicialComplex.from_facets(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])


@pytest.mark.parametrize("K, p, q, rank", [
    (square(), 1, 2, 2),
    (rp2_six(), 3, 5, 6),
    (pentagon(), 2, 3, 5),
], ids=["square", "rp2", "pentagon"])
def test_representatives_are_cocycles(K, p, q, rank):
    H = koszul_cohomology(K, p, q)
    basis = koszul_basis(K, p, q)
    d_out = differential_matrix(K, p, q)
    d_in = differential_matrix(K, p + 1, q)
    assert H.rank == rank and len(H.representatives) == rank
    for vec in H.representatives:
        element = {m: c for m, c in zip(basis, vec) if c}
        for i in range(d_out.nrows):
            assert sum(d_out.entry(i, j) * vec[j] for j in range(len(vec))) == 0
    # the classes stay independent modulo the coboundaries
    image = [d_in.column(j) for j in range(d_in.ncols)]
    assert len(quotient_representatives(list(H.representatives), image)) == rank


def mask(indices):
    return sum(1 << v for v in indices)


def monomial_masks(I, J):
    return (mask(I), mask(J))


def test_differential_leaving_its_block_is_caught(monkeypatch):
    # e1 x2 (support {1, 2}) filed under the support {3, 4}: its term
    # x1 x2 is found in no block of support {3, 4}
    K = square()
    real = koszul._support_blocks
    moved = monomial_masks((1,), (2,))

    def misfiled(basis):
        blocks = real(basis)
        if moved in blocks.get(0b110, ()):
            blocks[0b110].remove(moved)
            blocks[0b11000].append(moved)
        return blocks

    monkeypatch.setattr(koszul, "_support_blocks", misfiled)
    # the whole bidegree is not grouped, so its matrix keeps every term
    assert differential_matrix(K, 1, 2).nnz() == 8
    for want in (True, False):
        with pytest.raises(InvariantViolation):
            koszul_cohomology(K, 1, 2, want_representatives=want)
    for ring in ("Z", "Q"):
        with pytest.raises(InvariantViolation):
            koszul_bigraded(K, ring=ring)


def test_differential_not_squaring_to_zero_is_caught(monkeypatch):
    K = square()
    real = koszul._matrix
    top, term = monomial_masks((1, 2), ()), monomial_masks((1,), (2,))

    def flipped(faces, source, target):
        # d(e1 e2) = e2 x1 - e1 x2, here e2 x1 + e1 x2
        M = real(faces, source, target)
        if top in source and term in target:
            i, j = list(target).index(term), list(source).index(top)
            M.rows[i][j] = -M.rows[i][j]
        return M

    monkeypatch.setattr(koszul, "_matrix", flipped)
    # in the support {1, 2} block, d o d sends e1 e2 to 2 x1 x2
    assert differential_matrix(K, 1, 2).matmul(differential_matrix(K, 2, 2)).nnz() == 1
    for ring in ("Z", "Q"):
        for want in (True, False):
            with pytest.raises(CompositionError):
                koszul_cohomology(K, 1, 2, ring=ring, want_representatives=want)
        with pytest.raises(CompositionError):
            koszul_bigraded(K, ring=ring)


def reference_matrix(K, source, target):
    """The differential from `source` to `target`, term by term through
    koszul_differential; every term must lie in `target`."""
    index = {m: i for i, m in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for j, m in enumerate(source):
        for term, sign in koszul_differential(K, m).items():
            rows[index[term]][j] = sign
    return rows


def by_support(basis):
    """Tuple monomials grouped by sorted support, in order of first occurrence."""
    blocks = {}
    for I, J in basis:
        blocks.setdefault(tuple(sorted(I + J)), []).append((I, J))
    return blocks


def assert_blocks_match_reference(K):
    # the engine's mask bases are the definition's, in its order, at every
    # bidegree, the empty ones at either end included
    for q in range(K.n + 2):
        for p in range(-1, q + 2):
            assert koszul._basis(K, p, q) == \
                [monomial_masks(*m) for m in koszul_basis(K, p, q)], (K, p, q)
    faces = koszul._face_masks(K)
    for q in range(K.n + 1):
        for p in range(q + 2):
            source, target = koszul_basis(K, p, q), koszul_basis(K, p - 1, q)
            assert differential_matrix(K, p, q).to_rows() == \
                reference_matrix(K, source, target), (K, p, q)
            blocks, lower = by_support(source), by_support(target)
            # the mask groups hold the same monomials, supports and order
            groups = koszul._support_blocks(koszul._basis(K, p, q))
            below = koszul._support_blocks(koszul._basis(K, p - 1, q))
            assert list(groups.values()) == \
                [[monomial_masks(*m) for m in block] for block in blocks.values()]
            assert list(groups) == [mask(S) for S in blocks]
            for (S, block), group in zip(blocks.items(), groups.values()):
                want = reference_matrix(K, block, lower.get(S, ()))
                got = koszul._matrix(faces, group, below.get(mask(S), ()))
                assert got.to_rows() == want and (got.nrows, got.ncols) == \
                    (len(lower.get(S, ())), len(block)), (K, p, q, S)


def test_mask_blocks_equal_the_tuple_definition():
    # every block matrix the engine builds from bitmasks, and every full
    # differential matrix, equals the one read off koszul_basis and
    # koszul_differential term by term
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            assert_blocks_match_reference(K)
    for K in (rp2_six(), with_ghosts(rp2_six(), 2), octahedron_boundary()):
        assert_blocks_match_reference(K)


def test_cohomology_of_all_small_complexes_is_pinned():
    # rank, torsion and representatives over Z and Q at every p <= q <= n
    # for every complex with n <= 3, hashed; the digest was recorded before
    # empty middle bases returned early, so that exit changes no result
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    for ring in ("Z", "Q"):
                        H = koszul_cohomology(K, p, q, ring=ring)
                        digest.update(repr((H.rank, H.torsion, H.representatives)).encode())
    assert digest.hexdigest() == \
        "52b2ca3f84185a14deb8d70192eaac6e29d8424c6099231639fe9cf5fe91a488"


def test_cohomology_of_larger_blocks_is_pinned():
    # rank, torsion and representatives over Z and Q at every p <= q <= n of
    # complexes whose blocks are large enough that a change of in-block
    # order would alter a Smith transform; recorded before the blocks were
    # built from bitmasks
    digest = hashlib.sha256()
    for K in (square(), rp2_six(), octahedron_boundary()):
        for q in range(K.n + 1):
            for p in range(q + 1):
                for ring in ("Z", "Q"):
                    H = koszul_cohomology(K, p, q, ring=ring)
                    digest.update(repr((H.rank, H.torsion, H.representatives)).encode())
    assert digest.hexdigest() == \
        "712ea76bc441dac4df78662ce6fe9c69ef2b1c291e0ed487ef8c4379b2c72e9b"


def test_empty_middle_basis_builds_no_neighbour(monkeypatch):
    real = koszul._basis
    calls = []

    def counting(K, p, q):
        calls.append((p, q))
        return real(K, p, q)

    monkeypatch.setattr(koszul, "_basis", counting)
    # no face of size 3, while the upper basis at (1, 3) is not empty
    K = square()
    assert real(K, 0, 3) == [] and real(K, 1, 3)
    assert koszul_cohomology(K, 0, 3) == HomologyResult(0, (), ())
    assert calls == [(0, 3)]
    for n in (1, 2, 3):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    if real(K, p, q):
                        continue
                    calls.clear()
                    for ring in ("Z", "Q"):
                        assert koszul_cohomology(K, p, q, ring=ring) == \
                            HomologyResult(0, (), ())
                    assert calls == [(p, q)] * 2


def assert_table_equals_bidegrees(K, ring):
    table = koszul_bigraded(K, ring=ring)
    want = {}
    for q in range(K.n + 1):
        for p in range(q + 1):
            H = koszul_cohomology(K, p, q, ring=ring, want_representatives=False)
            if H.rank or H.torsion:
                want[(p, q)] = H
    assert table == want, (K, ring)
    return table


def drawn_complexes(seed, count):
    """Seeded complexes on 6 or 7 vertices, generated by 6-14 edges and triangles."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 6 + i % 2
        candidates = [f for size in (2, 3) for f in combinations(range(1, n + 1), size)]
        out.append(SimplicialComplex.from_facets(n, rng.sample(candidates, rng.randint(6, 14))))
    return out


def octahedron_boundary():
    return SimplicialComplex.from_facets(6, [
        [1, 2, 3], [1, 2, 6], [1, 5, 3], [1, 5, 6],
        [4, 2, 3], [4, 2, 6], [4, 5, 3], [4, 5, 6]])


def test_table_equals_its_bidegrees():
    # the table builds each basis and each block differential once and
    # solves from its own groups; it must read exactly what the bidegree
    # calls read
    for ring in ("Z", "Q"):
        for n in (1, 2, 3, 4):
            for K in enumerate_complexes(n):
                assert_table_equals_bidegrees(K, ring)
    for K in (rp2_six(), with_ghosts(rp2_six(), 2)):
        table = assert_table_equals_bidegrees(K, "Z")
        assert table[(3, 6)] == HomologyResult(0, (2,), ())
        assert_table_equals_bidegrees(K, "Q")
    # benchmark sizes: with triangles each support runs through up to four
    # p, so most differentials are read as one block's d_in and the next
    # block's d_out
    for K in drawn_complexes(28, 10):
        for ring in ("Z", "Q"):
            assert_table_equals_bidegrees(K, ring)
    for ring in ("Z", "Q"):
        # the boundary of the octahedron is S^0 * S^0 * S^0, and Z_K is (S^3)^3
        table = assert_table_equals_bidegrees(octahedron_boundary(), ring)
        assert {pq: H.rank for pq, H in table.items()} == \
            {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}


def test_table_builds_each_basis_once(monkeypatch):
    real = koszul._basis
    calls = []

    def counting(K, p, q):
        calls.append((p, q))
        return real(K, p, q)

    monkeypatch.setattr(koszul, "_basis", counting)
    table = koszul_bigraded(rp2_six())
    assert table[(3, 6)].torsion == (2,)
    assert len(calls) == len(set(calls)) == 36


def test_engine_never_reads_the_definition(monkeypatch):
    # koszul_basis and koszul_differential are the reference the tests
    # compare against; the engine builds from its own mask bases alone
    def refused(*args):
        raise AssertionError("the engine read the tuple definition")

    tables = {K: {ring: koszul_bigraded(K, ring=ring) for ring in ("Z", "Q")}
              for K in (square(), rp2_six())}
    monkeypatch.setattr(koszul, "koszul_basis", refused)
    monkeypatch.setattr(koszul, "koszul_differential", refused)
    for K, want in tables.items():
        for ring in ("Z", "Q"):
            assert koszul_bigraded(K, ring=ring) == want[ring]
        for q in range(K.n + 1):
            for p in range(q + 1):
                for ring in ("Z", "Q"):
                    koszul_cohomology(K, p, q, ring=ring)
            for p in range(q + 2):
                differential_matrix(K, p, q)


def test_table_builds_each_differential_once(monkeypatch):
    real = koszul._matrix
    calls = []

    def counting(faces, source, target):
        calls.append((tuple(source), tuple(target)))
        return real(faces, source, target)

    monkeypatch.setattr(koszul, "_matrix", counting)
    # one build per middle block: its d_out, which the block below reads
    # as its d_in
    for K, builds in ((rp2_six(), 216), (square(), 40)):
        calls.clear()
        koszul_bigraded(K)
        assert len(calls) == len(set(calls)) == builds
    # a single bidegree still builds both maps of each of its blocks
    calls.clear()
    koszul_cohomology(square(), 1, 2, want_representatives=False)
    assert len(calls) == 2 * len({tuple(sorted(I + J)) for I, J in koszul_basis(square(), 1, 2)})


def test_rational_ranks_match_integer():
    rng = random.Random(9)
    complexes = list(enumerate_complexes(3))
    for K in rng.sample(complexes, 10):
        zt = {k: v.rank for k, v in koszul_bigraded(K, ring="Z").items()}
        qt = {k: v.rank for k, v in koszul_bigraded(K, ring="Q").items()}
        assert zt == qt
