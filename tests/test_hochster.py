"""Tests for the vertex-restriction oracle engine."""

from itertools import combinations
from math import comb
from time import perf_counter

import pytest

from momentangle import hochster
from momentangle.hochster import (
    coboundary_matrix,
    hochster_bigraded,
    hochster_cohomology,
    hochster_summands,
    reduced_cohomology,
)
from momentangle.koszul import koszul_bigraded
from momentangle.linalg import invariant_factor_chain
from momentangle.simplicial import (
    SimplicialComplex,
    enumerate_complexes,
    full_subcomplex,
    parse_complex,
)


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


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def count_calls(monkeypatch, name):
    """Count the engine's calls through its module binding of `name`."""
    original = getattr(hochster, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hochster, name, counting)
    return calls


def with_ghosts(K, extra):
    """K on n + extra vertices, the new ones in no face."""
    return SimplicialComplex(K.n + extra, K.faces)


def restriction_reference(K, p, q, ring):
    """The nonzero pairs (J, H) of Hochster's sum, each J restricted and solved."""
    out = []
    for J in combinations(range(1, K.n + 1), q):
        H = reduced_cohomology(full_subcomplex(K, J), q - p - 1, ring=ring)
        if H.rank or H.torsion:
            out.append((J, H))
    return out


def assert_equals_restriction_reference(K):
    for ring in ("Z", "Q"):
        for q in range(K.n + 1):
            for p in range(q + 1):
                want = restriction_reference(K, p, q, ring)
                assert hochster_summands(K, p, q, ring=ring) == want, (K, p, q, ring)
                H = hochster_cohomology(K, p, q, ring=ring)
                assert (H.rank, H.torsion) == (
                    sum(h.rank for _, h in want),
                    invariant_factor_chain(t for _, h in want for t in h.torsion),
                ), (K, p, q, ring)


def test_hochster_equals_the_plain_sum_over_subsets():
    # one restriction and one solve per subset, no sharing and no early exit;
    # the ghost vertices are inert in every degree
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            assert_equals_restriction_reference(K)
            assert_equals_restriction_reference(with_ghosts(K, 2))


@pytest.mark.slow
def test_hochster_equals_the_restriction_reference_on_five_vertices():
    count = 0
    for K in enumerate_complexes(5):
        count += 1
        assert_equals_restriction_reference(K)
    assert count == 7580


def test_shared_solves_key_on_the_faces_one_size_up():
    # the filled triangle (1, 2, 3) has the vertices and edges of the
    # hollow ones; only its 2-face tells its H^1 apart
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 4], [2, 4], [3, 4]])
    summands = hochster_summands(K, 1, 3)
    assert [J for J, _ in summands] == [(1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert all((H.rank, H.torsion) == (1, ()) for _, H in summands)


def windows(K, p, q):
    """The distinct windows of (p, q) with a nonempty middle: for each q-subset
    J, the faces of sizes d, d + 1 and d + 2 of K restricted to the vertices of
    J that lie in a face of size d + 1 or d + 2."""
    d = q - p - 1
    active = {v for f in K.faces_of_size(d + 1) + K.faces_of_size(d + 2) for v in f}
    keys = set()
    for J in combinations(range(1, K.n + 1), q):
        L = full_subcomplex(K, [v for v in J if v in active])
        if L.faces_of_size(d + 1):
            keys.add((L.faces_of_size(d), L.faces_of_size(d + 1), L.faces_of_size(d + 2)))
    return keys


def test_one_solve_per_distinct_window(monkeypatch):
    K = projective_plane_six()
    expected = {(p, q): len(windows(K, p, q))
                for p, q in ((0, 2), (1, 3), (1, 4), (2, 5), (3, 6))}
    restricts = count_calls(monkeypatch, "full_subcomplex")
    solves = count_calls(monkeypatch, "reduced_cohomology")
    shared = 0
    for (p, q), want in expected.items():
        restricts.clear()
        solves.clear()
        hochster_cohomology(K, p, q)
        # one restriction per distinct window, not one per q-subset
        assert len(restricts) == len(solves) == want, (p, q)
        shared += comb(6, q) - want
    assert shared > 0


def test_bidegree_without_faces_restricts_nothing(monkeypatch):
    restricts = count_calls(monkeypatch, "full_subcomplex")
    solves = count_calls(monkeypatch, "reduced_cohomology")
    # the square has no face of size 4
    H = hochster_cohomology(square(), 0, 4)
    assert (H.rank, H.torsion) == (0, ())
    assert restricts == [] and solves == []
    assert hochster_summands(square(), 3, 2) == []
    assert restricts == [] and solves == []


@pytest.mark.parametrize("text, ghosts", [
    ('{"n": 30, "facets": []}', 30),
    ('{"n": 22, "facets": [[1]]}', 21),
])
def test_ghost_heavy_closed_forms(text, ghosts):
    # H^{-1}(K_J) is Z exactly when J holds no vertex of a face, so the table
    # is C(#ghosts, q) at (q, q); restricting every J would take C(30, 15)
    # restrictions at (15, 15) alone
    K = parse_complex(text)
    start = perf_counter()
    table = hochster_bigraded(K)
    elapsed = perf_counter() - start
    assert {pq: (H.rank, H.torsion) for pq, H in table.items()} == {
        (q, q): (comb(ghosts, q), ()) for q in range(ghosts + 1)}
    assert elapsed < 1.0


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
        a = {k: v.rank for k, v in koszul_bigraded(K, "Q").items()}
        b = {k: v.rank for k, v in hochster_bigraded(K, "Q").items()}
        assert a == b, f"engines disagree over Q on {K!r}"
    assert count == 7580


def test_engines_agree_on_projective_plane_bidegree():
    K = projective_plane_six()
    a = koszul_bigraded(K)
    assert (a[(3, 6)].rank, a[(3, 6)].torsion) == (0, (2,))
