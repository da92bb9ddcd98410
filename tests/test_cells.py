"""Tests for product cells, their boundary, and the evaluation pairing."""

import random

import pytest

from momentangle.cells import (
    Cell,
    apply_boundary,
    boundary_matrix,
    cell_basis,
    cell_boundary,
    cell_homology,
    homology_cycle_basis,
)
from momentangle.hochster import coboundary_matrix
from momentangle.koszul import (
    differential_matrix,
    koszul_basis,
    koszul_cohomology,
    koszul_differential,
)
from momentangle.linalg import add_into, homology_of_pair
from momentangle.simplicial import SimplicialComplex, enumerate_complexes, face_key


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def test_cell_dim_and_overlap():
    assert Cell((1, 2), (3,)).dim() == 5
    assert Cell((), ()).dim() == 0
    with pytest.raises(ValueError):
        Cell((1,), (1,))


def test_cell_basis_matches_monomial_basis():
    for K in (two_points(), square()):
        for p in range(0, K.n + 1):
            for q in range(p, K.n + 1):
                cells = cell_basis(K, p, q)
                monomials = koszul_basis(K, p, q)
                assert len(cells) == len(monomials)
                assert {(c.disks, c.circles) for c in cells} == \
                    {(m[1], m[0]) for m in monomials}



def test_cell_basis_comes_out_sorted_by_disks_then_circles():
    bidegrees = 0
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    cells = cell_basis(K, p, q)
                    assert cells == tuple(sorted(
                        cells, key=lambda c: (face_key(c.disks), face_key(c.circles))))
                    bidegrees += len(cells) > 1
    assert bidegrees > 1000


def test_boundary_single_disk_signs():
    # moving index i into the circle set alternates with its position there
    assert cell_boundary(Cell((1,), ())) == {Cell((), (1,)): 1}
    c = Cell((1,), (2,))
    assert cell_boundary(c) == {Cell((), (1, 2)): 1}
    c = Cell((2,), (1,))
    assert cell_boundary(c) == {Cell((), (1, 2)): -1}
    c = Cell((2,), (1, 3))
    assert cell_boundary(c) == {Cell((), (1, 2, 3)): -1}


def test_boundary_preserves_q_raises_p():
    c = Cell((1, 3), (2,))
    for term in cell_boundary(c):
        assert len(term.disks) + len(term.circles) == 3
        assert len(term.circles) == 2


def test_boundary_squares_to_zero_randomized():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        disks = [v for v in range(1, n + 1) if rng.random() < 0.5]
        circles = [v for v in range(1, n + 1) if v not in disks and rng.random() < 0.5]
        chain = {Cell(tuple(disks), tuple(circles)): rng.choice([1, -1, 2])}
        assert apply_boundary(apply_boundary(chain)) == {}


def test_sphere_cycle_two_points():
    # the product model of two points is a 3-sphere; its top cycle is the
    # sum of the two disc-times-circle cells
    gamma = {Cell((1,), (2,)): 1, Cell((2,), (1,)): 1}
    assert apply_boundary(gamma) == {}
    cycles = homology_cycle_basis(two_points(), 1, 2)
    assert len(cycles) == 1
    rep = cycles[0]
    assert rep == gamma or rep == {c: -v for c, v in gamma.items()}


def test_square_top_class():
    H = cell_homology(square(), 2, 4)
    assert (H.rank, H.torsion) == (1, ())
    # a representative pairs one opposite-edge pair of discs with the other
    rep = homology_cycle_basis(square(), 2, 4)[0]
    assert {(c.disks, c.circles) for c in rep} == {
        ((1, 2), (3, 4)), ((1, 4), (2, 3)), ((2, 3), (1, 4)), ((3, 4), (1, 2)),
    }


def test_homology_ranks_match_cochain_engine():
    for K in enumerate_complexes(3):
        for p in range(0, 4):
            for q in range(p, 4):
                if not cell_basis(K, p, q):
                    continue
                hc = homology_of_pair(boundary_matrix(K, p - 1, q),
                                      boundary_matrix(K, p, q),
                                      want_representatives=False)
                ha = koszul_cohomology(K, p, q, want_representatives=False)
                assert hc.rank == ha.rank, (K, p, q)


def test_boundary_matrix_is_transpose_of_differential():
    # under the label pairing, <d(m), c> = <m, boundary(c)> becomes a
    # transpose relation between the two matrices
    for K in (two_points(), square()):
        for p in range(1, K.n + 1):
            for q in range(p, K.n + 1):
                monomials_hi = koszul_basis(K, p, q)
                monomials_lo = koszul_basis(K, p - 1, q)
                cells_hi = cell_basis(K, p, q)
                cells_lo = cell_basis(K, p - 1, q)
                D = differential_matrix(K, p, q)
                B = boundary_matrix(K, p - 1, q)
                cell_row = {(c.disks, c.circles): i for i, c in enumerate(cells_hi)}
                cell_col = {(c.disks, c.circles): j for j, c in enumerate(cells_lo)}
                for j, m in enumerate(monomials_hi):
                    for i, t in enumerate(monomials_lo):
                        a = D.entry(i, j)
                        b = B.entry(cell_row[(m[1], m[0])],
                                    cell_col[(t[1], t[0])])
                        assert a == b, (K, p, q, m, t)


def test_chain_matrices_hold_one_entry_per_term():
    # the builders write each entry once, so two terms landing on one entry
    # would lose a coefficient instead of summing; every term is distinct
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            for q in range(n + 1):
                for p in range(q + 1):
                    terms = sum(len(koszul_differential(K, m))
                                for m in koszul_basis(K, p, q))
                    assert differential_matrix(K, p, q).nnz() == terms, (K, p, q)
                    terms = sum(len(cell_boundary(c)) for c in cell_basis(K, p, q))
                    assert boundary_matrix(K, p, q).nnz() == terms, (K, p, q)
            for d in range(-1, n):
                want = (d + 2) * len(K.faces_of_size(d + 2))
                assert coboundary_matrix(K, d).nnz() == want, (K, d)


def test_adjointness_hand_sample():
    # <phi(d(u1 u2)), disc1 x circle2> = <phi(u1 u2), boundary(disc1 x circle2)> = 1
    K = two_points()
    m = ((1, 2), ())
    c = Cell((1,), (2,))
    lhs = koszul_differential(K, m).get((c.circles, c.disks), 0)
    rhs = cell_boundary(c).get(Cell(m[1], m[0]), 0)
    assert lhs == rhs == 1


def test_adjointness_randomized():
    rng = random.Random(37)
    complexes = list(enumerate_complexes(3))
    for _ in range(200):
        K = rng.choice(complexes)
        p = rng.randint(1, 3)
        q = rng.randint(p, 3)
        monomials = koszul_basis(K, p, q)
        cells = cell_basis(K, p - 1, q)
        if not monomials or not cells:
            continue
        m = rng.choice(monomials)
        c = rng.choice(cells)
        lhs = koszul_differential(K, m).get((c.circles, c.disks), 0)
        rhs = cell_boundary(c).get(Cell(m[1], m[0]), 0)
        assert lhs == rhs, (K, m, c)


def test_add_chains():
    a = {Cell((1,), ()): 2}
    b = {Cell((1,), ()): -1, Cell((), (2,)): 3}
    add_into(a, b, 2)
    assert a == {Cell((), (2,)): 6}
