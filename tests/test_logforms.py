"""Tests for the logarithmic cochain engine and the period pairing."""

from fractions import Fraction

import pytest

from momentangle.cech import build_resolvent
from momentangle.cells import Cell, homology_cycle_basis
from momentangle.koszul import koszul_cohomology
from momentangle.linalg import determinant_rational
from momentangle.logforms import (
    LogCochain,
    Period,
    block_matrix,
    block_tuples,
    integrate_cell,
    log_cohomology_basis,
    log_cohomology_dim,
    period_matrix,
    period_of_cycle,
)
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def test_add_rejects_inadmissible_index_set():
    K = two_points()
    w = LogCochain(K, 1, 0)
    with pytest.raises(ValueError):
        w.add(((1,),), (1,), 1)  # dz_1/z_1 cannot live where z_1 = 0 is allowed
    w.add(((1,),), (2,), 1)
    w.add(((),), (1,), 1)


def test_add_alternates_in_the_tuple():
    K = two_points()
    w = LogCochain(K, 2, 1)
    w.add(((2,), (1,)), (1, 2), 1)
    assert w.value(((1,), (2,))) == {(1, 2): -1}


def test_block_tuples_drop_meeting_intersections():
    K = two_points()
    assert block_tuples(K, (1, 2), 0) == [((),)]
    assert block_tuples(K, (1, 2), 1) == [
        ((), (1,)), ((), (2,)), ((1,), (2,)),
    ]
    assert block_tuples(K, (), 0) == [((),), ((1,),), ((2,),)]


def test_block_matrix_frozen_example():
    # form indices {1, 2} on the two-point complex: one level-2 tuple,
    # kernel condition b1 - b2 + b3 = 0, image spanned by (-1, -1, 0)
    K = two_points()
    M = block_matrix(K, (1, 2), 1)
    assert (M.nrows, M.ncols) == (1, 3)
    assert M.to_rows() == [[1, -1, 1]]
    d_in = block_matrix(K, (1, 2), 0)
    assert d_in.column(0) == (-1, -1, 0)


def test_differential_squares_to_zero():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    w = LogCochain(K, 1, 0)
    w.add(((1,),), (2,), 3)
    w.add(((),), (3,), -2)
    w.add(((1, 2),), (3,), 5)
    assert w.differential().differential().is_zero()


def test_differential_matches_block_matrix():
    K = two_points()
    I = (1, 2)
    source = block_tuples(K, I, 1)
    M = block_matrix(K, I, 1)
    for j, T in enumerate(source):
        w = LogCochain(K, 2, 1)
        w.add(T, I, 1)
        dw = w.differential()
        for i, U in enumerate(block_tuples(K, I, 2)):
            assert dw.value(U).get(I, 0) == M.entry(i, j)


def test_log_cohomology_dims_two_points():
    K = two_points()
    assert log_cohomology_dim(K, 0, 0) == 1  # constants
    assert log_cohomology_dim(K, 2, 1) == 1  # the punctured-plane-squared class
    assert log_cohomology_dim(K, 1, 0) == 0
    assert log_cohomology_dim(K, 2, 0) == 0
    assert log_cohomology_dim(K, 1, 1) == 0


def test_log_cohomology_basis_two_points():
    K = two_points()
    basis = log_cohomology_basis(K, 2, 1)
    assert len(basis) == 1
    w = basis[0]
    vec = [w.value(T).get((1, 2), 0) for T in block_tuples(K, (1, 2), 1)]
    assert vec == [-1, 0, 1]
    assert w.differential().is_zero()


def test_log_dims_match_cochain_engine_small():
    # smoke version of the cross-engine criterion on every 2-vertex complex
    # and a 1-dimensional 3-vertex complex
    targets = list(enumerate_complexes(2))
    targets.append(SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]]))
    for K in targets:
        for q in range(0, K.n + 1):
            for p in range(0, q + 1):
                want = koszul_cohomology(K, p, q, ring="Q",
                                         want_representatives=False).rank
                assert log_cohomology_dim(K, q, q - p) == want, (K, p, q)


def test_integrate_cell():
    assert integrate_cell((1, 2), Cell((), (1, 2))) == Period(Fraction(1), 2)
    assert integrate_cell((1, 2), Cell((), (1, 3))).is_zero()
    assert integrate_cell((1, 2), Cell((1,), (2,))).is_zero()
    assert integrate_cell((), Cell((), ())) == Period(Fraction(1), 0)
    assert integrate_cell((), Cell((1,), ())).is_zero()


def test_period_of_sphere_cycle():
    K = two_points()
    cycle = {Cell((1,), (2,)): 1, Cell((2,), (1,)): 1}
    res = build_resolvent(K, cycle)
    [w] = log_cohomology_basis(K, 2, 1)
    period = period_of_cycle(w, res)
    assert period.power == 2
    assert abs(period.coefficient) == 1


def test_period_against_coboundary_is_zero():
    # integrating a differential over a cycle must vanish identically
    K = two_points()
    cycle = {Cell((1,), (2,)): 1, Cell((2,), (1,)): 1}
    res = build_resolvent(K, cycle)
    eta = LogCochain(K, 2, 0)
    eta.add(((),), (1, 2), 1)
    assert period_of_cycle(eta.differential(), res).is_zero()


def test_period_cross_degree_is_zero():
    K = two_points()
    point = build_resolvent(K, {Cell((), ()): 1})
    [w] = log_cohomology_basis(K, 2, 1)
    assert period_of_cycle(w, point).is_zero()


def test_period_rejects_inconsistent_pieces():
    K = two_points()
    res = build_resolvent(K, {Cell((), ()): 1})
    a = LogCochain(K, 0, 0)
    b = LogCochain(K, 1, 0)
    with pytest.raises(ValueError):
        period_of_cycle([a, b], res)


def test_period_rejects_mixed_form_degrees():
    K = two_points()
    res = build_resolvent(K, {Cell((), ()): 1})
    a = LogCochain(K, 0, 0)
    a.add(((),), (), 1)
    b = LogCochain(K, 1, 1)
    b.add(((), (1,)), (2,), 1)
    with pytest.raises(ValueError, match="degree mismatch"):
        period_of_cycle([a, b], res)


def test_period_of_hand_written_class():
    # the representative with entries +1 over (0, {1}) and -1 over ({1}, {2})
    # integrates to exactly -(2 pi i)^2 over the standard sphere generator
    K = two_points()
    w = LogCochain(K, 2, 1)
    w.add(((), (1,)), (1, 2), 1)
    w.add(((1,), (2,)), (1, 2), -1)
    assert w.differential().is_zero()
    cycle = {Cell((1,), (2,)): 1, Cell((2,), (1,)): 1}
    period = period_of_cycle(w, build_resolvent(K, cycle))
    assert period == Period(Fraction(-1), 2)


def test_log_basis_single_puncture():
    # one coordinate line minus its origin: the sole 1-form class is dz_1/z_1
    K = SimplicialComplex(1, {()})
    basis = log_cohomology_basis(K, 1, 0)
    assert len(basis) == 1
    assert basis[0].value(((),)) == {(1,): 1}
    assert log_cohomology_basis(two_points(), 2, 0) == []


def test_period_matrix_two_points():
    K = two_points()
    cycles, cocycles, M = period_matrix(K, 1, 2)
    assert len(cycles) == len(cocycles) == 1
    assert abs(M[0][0]) == 1


def test_period_matrix_point_bidegree():
    # the empty-braid bidegree pairs the point cycle with the constants: [[1]]
    K = two_points()
    cycles, cocycles, M = period_matrix(K, 0, 0)
    assert M == [[Fraction(1)]]


def test_period_matrix_cross_bidegree_vanishes():
    K = two_points()
    cycles, cocycles, M = period_matrix(K, 1, 2, r=0, t=0)
    assert len(cycles) == len(cocycles) == 1
    assert M == [[Fraction(0)]]
    _, _, M2 = period_matrix(K, 0, 0, r=2, t=1)
    assert M2 == [[Fraction(0)]]


def test_period_matrix_square_boundary():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    cycles, cocycles, M = period_matrix(K, 1, 2)
    assert len(cycles) == len(cocycles) == 2
    assert determinant_rational(M) != 0
    top = period_matrix(K, 2, 4)
    assert len(top[0]) == len(top[1]) == 1
    assert top[2][0][0] != 0


# exact period matrices of the points-and-an-edge complex on 5 vertices, a
# sample of the (n = 5, 6 faces) periods stratum; a change in the cocycle
# basis that keeps the matrices nonsingular still changes these entries
POINTS_AND_EDGE_PERIODS = {
    (3, 4): [
        [1, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
    ],
    (1, 2): [
        [0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1],
    ],
}


@pytest.mark.parametrize("p, q", sorted(POINTS_AND_EDGE_PERIODS))
def test_period_matrix_pinned(p, q):
    K = SimplicialComplex.from_facets(5, [[1], [4], [2, 5]])
    _, _, M = period_matrix(K, p, q)
    assert M == POINTS_AND_EDGE_PERIODS[(p, q)]
    assert all(type(x) is Fraction for row in M for x in row)
