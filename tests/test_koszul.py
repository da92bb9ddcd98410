"""Tests for the cochain algebra engine."""

import copy
import pickle
import random
from itertools import combinations
from math import comb

import pytest

from momentangle import koszul
from momentangle.errors import InvariantViolation
from momentangle.koszul import (
    Bidegree,
    KoszulMonomial,
    apply_differential,
    differential_matrix,
    koszul_basis,
    koszul_bigraded,
    koszul_cohomology,
    koszul_differential,
)
from momentangle.linalg import quotient_representatives
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def test_bidegree_total():
    assert Bidegree(0, 0).total == 0
    assert Bidegree(1, 2).total == 3
    assert Bidegree(2, 4).total == 6


def test_monomial_rejects_overlap():
    with pytest.raises(ValueError):
        KoszulMonomial((1,), (1, 2))
    with pytest.raises(ValueError):
        KoszulMonomial((1, 3), (3,))


def test_monomial_is_a_tuple_pair():
    m = KoszulMonomial((1,), (2,))
    assert (m.exterior, m.face) == ((1,), (2,))
    assert repr(m) == "KoszulMonomial(exterior=(1,), face=(2,))"
    # documented: a monomial equals, and hashes like, the plain pair (I, J)
    assert m == ((1,), (2,)) and hash(m) == hash(((1,), (2,)))
    assert m.bidegree() == Bidegree(1, 2)
    assert KoszulMonomial((), ()).bidegree() == Bidegree(0, 0)


def test_monomial_pickle_and_deepcopy_round_trip():
    for m in (KoszulMonomial((1, 3), (2,)), KoszulMonomial((), ())):
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(m, proto))
            assert type(back) is KoszulMonomial and back == m
            assert (back.exterior, back.face) == (m.exterior, m.face)
        dup = copy.deepcopy(m)
        assert type(dup) is KoszulMonomial and dup == m and repr(dup) == repr(m)
        assert type(copy.copy(m)) is KoszulMonomial


def test_basis_and_differential_build_monomials():
    K = square()
    for p in range(0, 4):
        for q in range(p, 5):
            for m in koszul_basis(K, p, q):
                assert type(m) is KoszulMonomial
                assert m.bidegree() == Bidegree(p, q)
                assert (len(m.exterior), len(m.face)) == (p, q - p)
                for term in koszul_differential(K, m):
                    assert type(term) is KoszulMonomial
                    assert term.bidegree() == Bidegree(p - 1, q)
    m = KoszulMonomial((1, 3), (2,))
    assert koszul_differential(K, m) == {
        KoszulMonomial((3,), (1, 2)): 1,
        KoszulMonomial((1,), (2, 3)): -1,
    }


def test_unchecked_monomials_stay_disjoint():
    # koszul_basis and koszul_differential skip the constructor's overlap
    # check; every monomial they build must still satisfy it, with a face
    # part that is a face of K
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    for m in koszul_basis(K, p, q):
                        assert not set(m.exterior) & set(m.face), (K, m)
                        assert K.has_face(m.face), (K, m)
                        for term in koszul_differential(K, m):
                            assert not set(term.exterior) & set(term.face), (K, m, term)
                            assert K.has_face(term.face), (K, m, term)


def test_basis_ordering_two_points():
    basis = koszul_basis(two_points(), 1, 2)
    assert basis == (
        KoszulMonomial((1,), (2,)),
        KoszulMonomial((2,), (1,)),
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
    assert koszul_differential(K, KoszulMonomial((1,), (2,))) == {}
    assert koszul_differential(K, KoszulMonomial((2,), (1,))) == {}


def test_differential_alternating_signs():
    # full simplex on 2 vertices: both moves land on faces
    K = SimplicialComplex.from_facets(2, [[1, 2]])
    m = KoszulMonomial((1, 2), ())
    assert koszul_differential(K, m) == {
        KoszulMonomial((2,), (1,)): 1,
        KoszulMonomial((1,), (2,)): -1,
    }


def test_differential_squares_to_zero_randomized():
    rng = random.Random(5)
    complexes = list(enumerate_complexes(3))
    for _ in range(200):
        K = rng.choice(complexes)
        p = rng.randint(0, 3)
        q = rng.randint(p, 3)
        basis = koszul_basis(K, p, q)
        if not basis:
            continue
        element = {m: rng.randint(-2, 2) for m in basis}
        assert apply_differential(K, apply_differential(K, element)) == {}


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
        assert apply_differential(K, element) == {}
        for i in range(d_out.nrows):
            assert sum(d_out.entry(i, j) * vec[j] for j in range(len(vec))) == 0
    # the classes stay independent modulo the coboundaries
    image = [d_in.column(j) for j in range(d_in.ncols)]
    assert len(quotient_representatives(list(H.representatives), image)) == rank


def test_differential_leaving_its_block_is_caught(monkeypatch):
    K = square()
    real = koszul.koszul_differential
    stray = KoszulMonomial((), (3, 4))  # support {3, 4}, in bidegree (0, 2)

    def leaky(K, m):
        out = real(K, m)
        if m == KoszulMonomial((1,), (2,)):  # support {1, 2}
            out[stray] = 1
        return out

    monkeypatch.setattr(koszul, "koszul_differential", leaky)
    # the whole bidegree holds the stray term, so the full matrix takes it
    assert differential_matrix(K, 1, 2).nnz() == 9
    for want in (True, False):
        with pytest.raises(InvariantViolation):
            koszul_cohomology(K, 1, 2, want_representatives=want)


def test_rational_ranks_match_integer():
    rng = random.Random(9)
    complexes = list(enumerate_complexes(3))
    for K in rng.sample(complexes, 10):
        zt = {k: v.rank for k, v in koszul_bigraded(K, ring="Z").items()}
        qt = {k: v.rank for k, v in koszul_bigraded(K, ring="Q").items()}
        assert zt == qt
