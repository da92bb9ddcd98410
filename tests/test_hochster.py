"""Tests for the vertex-restriction oracle engine."""

import pytest

from momentangle.hochster import (
    coboundary_matrix,
    hochster_bigraded,
    hochster_cohomology,
    hochster_summands,
    reduced_cohomology,
)
from momentangle.koszul import koszul_bigraded
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


def projective_plane_six():
    # 6-vertex triangulation of the real projective plane
    return SimplicialComplex.from_facets(6, [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
        [2, 3, 5], [3, 5, 6], [3, 4, 6], [2, 4, 6], [2, 4, 5],
    ])


def test_coboundary_includes_augmentation():
    K = SimplicialComplex.from_facets(2, [[1], [2]])
    M = coboundary_matrix(K, -1)
    assert (M.nrows, M.ncols) == (2, 1)
    assert M.column(0) == (1, 1)


def test_coboundary_squares_to_zero():
    K = projective_plane_six()
    for d in (-1, 0, 1):
        assert coboundary_matrix(K, d + 1).matmul(coboundary_matrix(K, d)).is_zero()


def test_reduced_cohomology_empty_complex():
    K = SimplicialComplex(0, [()])
    H = reduced_cohomology(K, -1)
    assert (H.rank, H.torsion) == (1, ())
    assert reduced_cohomology(K, 0).rank == 0


def test_reduced_cohomology_two_points():
    K = SimplicialComplex.from_facets(2, [[1], [2]])
    assert reduced_cohomology(K, -1).rank == 0
    assert reduced_cohomology(K, 0).rank == 1


def test_reduced_cohomology_circle():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert reduced_cohomology(K, 0).rank == 0
    assert (reduced_cohomology(K, 1).rank, reduced_cohomology(K, 1).torsion) == (1, ())


def test_reduced_cohomology_simplex_is_acyclic():
    K = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    for d in range(-1, 3):
        H = reduced_cohomology(K, d)
        assert (H.rank, H.torsion) == (0, ())


def test_reduced_cohomology_projective_plane():
    K = projective_plane_six()
    assert reduced_cohomology(K, 0).rank == 0
    assert (reduced_cohomology(K, 1).rank, reduced_cohomology(K, 1).torsion) == (0, ())
    H2 = reduced_cohomology(K, 2)
    assert (H2.rank, H2.torsion) == (0, (2,))


def test_hochster_point_complex():
    K = SimplicialComplex(1, [()])
    table = hochster_bigraded(K)
    assert {(k, v.rank) for k, v in table.items()} == {((0, 0), 1), ((1, 1), 1)}


def test_hochster_square():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    table = hochster_bigraded(K)
    assert {(k, (v.rank, v.torsion)) for k, v in table.items()} == {
        ((0, 0), (1, ())),
        ((1, 2), (2, ())),
        ((2, 4), (1, ())),
    }
    # the rank-2 group comes from the two diagonals
    summands = hochster_summands(K, 1, 2)
    assert [J for J, _ in summands] == [(1, 3), (2, 4)]


def test_hochster_torsion_in_projective_plane():
    K = projective_plane_six()
    H = hochster_cohomology(K, 3, 6)
    assert (H.rank, H.torsion) == (0, (2,))


def test_engines_agree_on_all_three_vertex_complexes():
    for K in enumerate_complexes(3):
        a = {k: (v.rank, v.torsion) for k, v in koszul_bigraded(K).items()}
        b = {k: (v.rank, v.torsion) for k, v in hochster_bigraded(K).items()}
        assert a == b, f"engines disagree on {K!r}"


@pytest.mark.slow
def test_engines_agree_on_all_five_vertex_complexes():
    # minutes long, so left out of default runs: python -m pytest -m slow
    count = 0
    for K in enumerate_complexes(5):
        count += 1
        a = {k: (v.rank, v.torsion) for k, v in koszul_bigraded(K).items()}
        b = {k: (v.rank, v.torsion) for k, v in hochster_bigraded(K).items()}
        assert a == b, f"engines disagree on {K!r}"
    assert count == 7580


def test_engines_agree_on_projective_plane_bidegree():
    K = projective_plane_six()
    a = koszul_bigraded(K)
    assert (a[(3, 6)].rank, a[(3, 6)].torsion) == (0, (2,))
