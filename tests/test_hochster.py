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
from momentangle.koszul import koszul_bigraded, koszul_cohomology
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
    # the windows {1, 2, 3, 4} and {5, 6, 7, 8} both hold the six edges of a
    # K4, and neither is a cone in degree 1; only the triangles (1, 2, 3) and
    # (1, 2, 4) of the first tell its H^1 apart
    K = SimplicialComplex.from_facets(8, [[1, 2, 3], [1, 2, 4], [3, 4], [5, 6], [5, 7],
                                          [5, 8], [6, 7], [6, 8], [7, 8]])
    summands = dict(hochster_summands(K, 2, 4))
    assert (summands[(1, 2, 3, 4)].rank, summands[(5, 6, 7, 8)].rank) == (1, 3)
    assert_equals_restriction_reference(K)


def apex(K, A, d):
    """A vertex v of A such that every (d + 1)-face of K inside A that misses v
    is a face with v added, or None."""
    inside = [f for f in K.faces_of_size(d + 1) if set(f) <= set(A)]
    for v in A:
        if all(v in f or K.has_face(tuple(sorted(f + (v,)))) for f in inside):
            return v
    return None


def windows(K, p, q):
    """The distinct windows of (p, q) with a nonempty middle and no apex: for
    each q-subset J, the faces of sizes d + 1 and d + 2 of K restricted to
    the vertices of J that lie in a face of size d + 1 or d + 2."""
    d = q - p - 1
    active = {v for f in K.faces_of_size(d + 1) + K.faces_of_size(d + 2) for v in f}
    keys = set()
    for J in combinations(range(1, K.n + 1), q):
        L = full_subcomplex(K, [v for v in J if v in active])
        if L.faces_of_size(d + 1) and apex(L, range(1, L.n + 1), d) is None:
            keys.add((L.faces_of_size(d + 1), L.faces_of_size(d + 2)))
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
        # one restriction per distinct window that is not a cone, not one
        # per q-subset
        assert len(restricts) == len(solves) == want, (p, q)
        shared += comb(6, q) - want
    assert shared > 0


def test_windows_apart_only_in_isolated_low_faces_share_one_solve(monkeypatch):
    # at (2, 5), d = 2: the windows {1, 2, 3, 4, 5} and {1, 2, 3, 4, 6} have
    # the same 3- and 4-faces, the hollow tetrahedron's triangles and none;
    # they differ only in the edge {1, 5}, which lies in no triangle, so it
    # is a zero column of the coboundary into degree 2
    K = parse_complex('{"n": 7, "facets": [[1,2,3],[1,2,4],[1,3,4],[2,3,4],[5,6,7],[1,5]]}')
    solves = count_calls(monkeypatch, "reduced_cohomology")
    H = hochster_cohomology(K, 2, 5)
    assert len(solves) == len(windows(K, 2, 5)) == 1
    G = koszul_cohomology(K, 2, 5, want_representatives=False)
    assert (H.rank, H.torsion) == (G.rank, G.torsion) == (3, ())


def assert_cones_are_acyclic(K):
    """Over Z, H^d(K_A) = 0 for every A with an apex in degree d, and the
    engine solves no window with one; returns the number of such A."""
    with pytest.MonkeyPatch.context() as mp:
        solves = count_calls(mp, "reduced_cohomology")
        hochster_bigraded(K)
    assert solves and all(apex(L, range(1, L.n + 1), d) is None for L, d, *_ in solves), K
    cones = 0
    for d in range(-1, K.dim() + 1):
        active = sorted({v for f in K.faces_of_size(d + 1) + K.faces_of_size(d + 2) for v in f})
        for k in range(len(active) + 1):
            for A in combinations(active, k):
                if apex(K, A, d) is not None:
                    H = reduced_cohomology(full_subcomplex(K, A), d)
                    assert (H.rank, H.torsion) == (0, ()), (K, A, d)
                    cones += 1
    return cones


def test_skipped_windows_are_acyclic():
    cones = 0
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            cones += assert_cones_are_acyclic(K)
            cones += assert_cones_are_acyclic(with_ghosts(K, 2))
    assert cones > 0


@pytest.mark.slow
def test_skipped_windows_are_acyclic_on_five_vertices():
    assert sum(assert_cones_are_acyclic(K) for K in enumerate_complexes(5)) > 0


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


def test_ghost_padded_torsion_is_fast():
    # the Z/2 at (3, 6) comes once per superset of the six vertices: C(20, 10)
    # copies at (13, 16) with 20 ghosts, all merged into one chain
    K = with_ghosts(projective_plane_six(), 20)
    start = perf_counter()
    H = hochster_cohomology(K, 13, 16)
    elapsed = perf_counter() - start
    assert (H.rank, H.torsion) == (0, (2,) * comb(20, 10))
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
