"""Tests for the logarithmic cochain engine and the period pairing."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from momentangle import linalg, logforms
from momentangle.cech import build_resolvent
from momentangle.cells import Cell, homology_cycle_basis
from momentangle.errors import CompositionError
from momentangle.koszul import koszul_cohomology
from momentangle.linalg import (
    determinant_rational,
    homology_of_pair,
    nullspace_rational,
    quotient_representatives,
    rank,
)
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
from momentangle.report import betti_table
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


# the triangular prism's edges: n = 6 with 9 edges, 16 faces
PRISM = [[1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4], [1, 4], [2, 5], [3, 6]]
# the heptagon: n = 7 with 7 edges, 15 faces
HEPTAGON = [[i, i % 7 + 1] for i in range(1, 8)]


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


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


def _reference_blocks(K, r, t):
    # one block at a time, straight from the public block builders
    for I in combinations(range(1, K.n + 1), r):
        source = block_tuples(K, I, t)
        if source:
            d_in = block_matrix(K, I, t - 1) if t > 0 else None
            yield I, source, d_in, block_matrix(K, I, t)


def _reference_rank(source, d_in, d_out):
    return len(source) - rank(d_out) - (0 if d_in is None else rank(d_in))


def _reference_dim(K, r, t):
    return sum(_reference_rank(*block[1:]) for block in _reference_blocks(K, r, t))


def _reference_basis(K, r, t):
    basis = []
    for I, source, d_in, d_out in _reference_blocks(K, r, t):
        image = [] if d_in is None else [d_in.column(j) for j in range(d_in.ncols)]
        for vec in quotient_representatives(nullspace_rational(d_out), image):
            w = LogCochain(K, r, t)
            for T, c in zip(source, vec):
                if c:
                    w.add(T, I, c)
            basis.append(w.entries)
    return basis


def _check_against_reference(K, r, t):
    # exact entries: the basis through B's connecting map equals the
    # admissible block's own quotient representatives
    want = _reference_basis(K, r, t)
    assert log_cohomology_dim(K, r, t) == _reference_dim(K, r, t) == len(want), (K, r, t)
    assert [w.entries for w in log_cohomology_basis(K, r, t)] == want, (K, r, t)


def test_log_cohomology_matches_block_by_block_reference():
    # every t up to the face count; n = 4 stops at 6 faces, the empty face included
    targets = list(enumerate_complexes(3))
    targets += [K for K in enumerate_complexes(4) if len(K.faces) <= 6]
    for K in targets:
        for r in range(K.n + 1):
            for t in range(len(K.faces) + 1):
                _check_against_reference(K, r, t)


@pytest.mark.slow
def test_log_cohomology_matches_block_by_block_reference_n4_prism_heptagon():
    for K in enumerate_complexes(4):
        if len(K.faces) <= 9:
            for r in range(K.n + 1):
                for t in range(len(K.faces) + 1):
                    _check_against_reference(K, r, t)
    # form degree q, cover degree t = q - p: every class of both lies at
    # t <= 2, and above it the reference's admissible kernels take minutes
    for K in (SimplicialComplex.from_facets(6, PRISM), SimplicialComplex.from_facets(7, HEPTAGON)):
        for q in range(K.n + 1):
            for t in range(min(q, 2) + 1):
                _check_against_reference(K, q, t)


def skew_first_deletion(monkeypatch):
    """Give the deletion of the first face the wrong sign, so d o d != 0."""
    original = logforms._coboundary

    def skewed(source, target):
        M = original(source, target)
        index = {T: j for j, T in enumerate(source)}
        for i, T in enumerate(target):
            col = index.get(T[1:])
            if col is not None:
                M.rows[i][col] -= 2
        return M

    monkeypatch.setattr(logforms, "_coboundary", skewed)


def test_log_cohomology_basis_checks_the_composition(monkeypatch):
    # the basis must refuse rather than return cocycles
    skew_first_deletion(monkeypatch)
    with pytest.raises(CompositionError):
        log_cohomology_basis(square(), 2, 1)


def test_log_cohomology_dim_checks_the_composition(monkeypatch):
    # unchecked, the skewed blocks read a negative dimension here
    skew_first_deletion(monkeypatch)
    with pytest.raises(CompositionError):
        log_cohomology_dim(square(), 2, 1)


def count_calls(monkeypatch, name):
    """Count calls of a linalg function through every package binding."""
    original = getattr(linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("momentangle")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_log_cohomology_basis_skips_kernels_of_acyclic_blocks(monkeypatch):
    K = square()
    calls = count_calls(monkeypatch, "nullspace_rational")
    # every key at (r, t) = (1, 1) is a vertex, so a face, and none is yielded
    assert list(logforms._complements(K, 1, 1)) == []
    assert log_cohomology_basis(K, 1, 1) == []
    assert calls == []
    # the two diagonal keys at (2, 1) carry a class each, the four at (3, 1)
    # none; only the keys whose B carries a class need a kernel
    keys = list(logforms._complements(K, 2, 1)) + list(logforms._complements(K, 3, 1))
    carrying = sum(1 for _, low, mid, high, _ in keys if _solve(low, mid, high))
    assert len(log_cohomology_basis(K, 2, 1)) == log_cohomology_dim(K, 2, 1) == 2
    assert log_cohomology_basis(K, 3, 1) == []
    assert len(calls) == carrying == 2 < len(keys) == 6


def test_equal_blocks_share_one_solve(monkeypatch):
    # vertices 3 and 4 lie in no face, so (1, 2, 3) and (1, 2, 4) cut the
    # meets in the same non-face (1, 2), admit the same tuples on every
    # level and are solved once
    K = SimplicialComplex.from_facets(4, [[1], [2]])
    r, t = 3, 1
    keys = list(logforms._complements(K, r, t))
    index_sets = sum(len(key[0]) for key in keys)
    calls = count_calls(monkeypatch, "homology_of_pair")
    assert log_cohomology_dim(K, r, t) == _reference_dim(K, r, t) == 2
    assert len(calls) == len(keys) == 1 < index_sets == 2
    calls.clear()
    assert len(log_cohomology_basis(K, r, t)) == _reference_dim(K, r, t)
    assert len(calls) == len(keys)


def _solve(low, mid, high):
    return homology_of_pair(logforms._coboundary(low, mid), logforms._coboundary(mid, high),
                            ring="Q", want_representatives=False).rank


def _meet(T):
    meet = set(T[0])
    for f in T[1:]:
        meet &= set(f)
    return meet


def _meets(K, t):
    """The union of the meets of the cover tuples on levels t - 1 and t; an
    r-set's key is the vertices in which it cuts this union."""
    meets = set()
    for s in (t - 1, t):
        for T in block_tuples(K, (), s):
            meets |= _meet(T)
    return meets


def _key(meets, I):
    return tuple(sorted(meets.intersection(I)))


def _is_cone(K, key):
    return bool(key) and K.has_face(key)


def _check_complements(targets):
    """Rank every key's complement against its r-sets' blocks; count the cases that came up."""
    seen = Counter()
    for K in targets:
        for r in range(K.n + 1):
            for t in range(len(K.faces) + 1):
                blocks = {I: (source, _reference_rank(source, d_in, d_out))
                          for I, source, d_in, d_out in _reference_blocks(K, r, t)}
                keyed = []
                for index_sets, low, mid, high, admissible in logforms._complements(K, r, t):
                    admissible = list(admissible)
                    rank_B = _solve(low, mid, high)
                    for I in index_sets:
                        keyed.append(I)
                        # B's class count is the block's, over the block's own tuples
                        assert (admissible, rank_B) == blocks[I], (K, r, t, I)
                    assert len(mid) <= len(admissible), (K, r, t)
                    seen["t = 0"] += t == 0
                    seen["B = {()}"] += low + mid + high == [()]
                    seen["tie"] += len(mid) == len(admissible)
                    seen["shorter"] += len(mid) < len(admissible)
                # each nonempty block comes from exactly one key, or its key
                # is a face and the block has no class
                meets = _meets(K, t)
                cones = [I for I in blocks if _is_cone(K, _key(meets, I))]
                assert all(blocks[I][1] == 0 for I in cones), (K, r, t)
                seen["cone"] += len(cones)
                assert sorted(keyed) == sorted(set(blocks) - set(cones)), (K, r, t)
    return seen


def test_complements_agree_with_every_block():
    # every t up to the face count; n = 4 stops at 9 faces, the empty face included
    targets = [K for n in (1, 2, 3, 4) for K in enumerate_complexes(n) if len(K.faces) <= 9]
    seen = _check_complements(targets)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


@pytest.mark.slow
def test_complements_agree_with_every_block_n5():
    seen = _check_complements(K for K in enumerate_complexes(5) if len(K.faces) <= 10)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_low_slot_is_the_deletions_of_the_middle():
    # level t - 2 of B, read off the cover by the key, equals the distinct
    # deletions of B's level t - 1 for t >= 2; at t = 1 it is the empty
    # tuple exactly when level 0 is nonempty
    slots = Counter()
    for n in (1, 2, 3, 4):
        for K in enumerate_complexes(n):
            if len(K.faces) > 9:
                continue
            for t in range(1, len(K.faces) + 1):
                meets = _meets(K, t)
                below = block_tuples(K, (), t - 2)
                for r in range(K.n + 1):
                    for index_sets, low, mid, _, _ in logforms._complements(K, r, t):
                        if t == 1:
                            assert low == ([()] if mid else []), (K, r, t)
                            continue
                        key = set(_key(meets, index_sets[0]))
                        want = {T for T in below if _meet(T) & key}
                        assert len(low) == len(set(low)) and set(low) == want, (K, r, t)
                        slots[bool(low)] += 1
    assert slots[True] > 0 and slots[False] > 0, slots


def _check_dropped_keys(targets):
    """Every r-set is yielded exactly when its key is not a nonempty face; each
    face key's B, filtered from the cover levels here, solves to rank 0."""
    dropped = 0
    for K in targets:
        for r in range(K.n + 1):
            for t in range(len(K.faces)):
                keyed = [I for index_sets, *_ in logforms._complements(K, r, t)
                         for I in index_sets]
                meets = _meets(K, t)
                keys = {}
                for I in combinations(range(1, K.n + 1), r):
                    keys.setdefault(_key(meets, I), []).append(I)
                for key, index_sets in keys.items():
                    if not _is_cone(K, key):
                        assert all(I in keyed for I in index_sets), (K, r, t, key)
                        continue
                    assert not any(I in keyed for I in index_sets), (K, r, t, key)
                    B = [[()] if s == -1 else
                         [T for T in block_tuples(K, (), s) if _meet(T).intersection(key)]
                         for s in range(t - 2, t + 1)]
                    assert _solve(*B) == 0, (K, r, t, key)
                    dropped += 1
    return dropped


def test_dropped_keys_are_faces_with_acyclic_complements():
    # every t with a nonempty level t; the same complexes as the complements check
    targets = [K for n in (1, 2, 3, 4) for K in enumerate_complexes(n) if len(K.faces) <= 9]
    assert _check_dropped_keys(targets) > 0


@pytest.mark.slow
def test_dropped_keys_are_faces_with_acyclic_complements_n5():
    assert _check_dropped_keys(K for K in enumerate_complexes(5) if len(K.faces) <= 10) > 0


def test_complement_edge_cases():
    # t = 0: level -1 of B is the empty tuple, with no level -2 below it
    K = two_points()
    [(_, *B, admissible)] = logforms._complements(K, 0, 0)
    assert B == [[], [()], []]
    assert list(admissible) == block_tuples(K, (), 0)
    assert _solve(*B) == log_cohomology_dim(K, 0, 0) == 1
    # r = 0: the key is empty, so no tuple of level 0 or more is in B; at
    # t = 1 its low slot, the deletions of an empty mid, is empty too
    for t in (1, 2):
        [(_, *B, _)] = logforms._complements(K, 0, t)
        assert B == [[], [], []]
        assert _solve(*B) == 0
    # past the face count (three faces) there is nothing to solve
    assert list(logforms._complements(K, 0, 3)) == []
    # r > 0 with an empty key: vertex 3 lies in no face, so I = (3,) meets no meet
    K = SimplicialComplex.from_facets(3, [[1], [2]])
    by_sets = {tuple(index_sets): B for index_sets, *B, _ in logforms._complements(K, 1, 0)}
    assert by_sets[((3,),)] == [[], [()], []]
    assert log_cohomology_dim(K, 1, 0) == 1  # dz_3/z_3


def test_complements_bind_each_key_when_yielded():
    # every key's admissible tuples, read only after all keys were collected,
    # are still its own; they stay lazy, so the dimension path builds no list;
    # the square's keys at (2, 1) are its two diagonals, the edges being faces
    K = square()
    keys = list(logforms._complements(K, 2, 1))
    assert len(keys) == 2
    for [I], *_, admissible in keys:
        assert iter(admissible) is admissible
        assert list(admissible) == block_tuples(K, I, 1), I


def test_log_cohomology_dim_ranks_the_complements(monkeypatch):
    # the prism's (p, q) = (0, 4): one solve per key, each on B, whose
    # middles are far shorter than the admissible ones
    K = SimplicialComplex.from_facets(6, PRISM)
    r, t = 4, 4
    keys = [(index_sets[0], len(mid))
            for index_sets, _, mid, _, _ in logforms._complements(K, r, t)]
    calls = count_calls(monkeypatch, "homology_of_pair")
    assert log_cohomology_dim(K, r, t) == 0
    assert [d_in.nrows for d_in, _ in calls] == [m for _, m in keys]
    assert sum(m for _, m in keys) * 4 < sum(len(block_tuples(K, I, t)) for I, _ in keys)


def test_negative_form_degree_is_zero():
    # as at a negative cover degree: no r-sets, so nothing to solve
    for K in (two_points(), square()):
        assert log_cohomology_dim(K, -1, 1) == 0 and log_cohomology_basis(K, -1, 1) == []
        assert log_cohomology_dim(K, 1, -1) == 0 and log_cohomology_basis(K, 1, -1) == []


def test_log_cohomology_dims_of_the_prism_are_its_betti_ranks():
    K = SimplicialComplex.from_facets(6, PRISM)
    table = betti_table(K, ring="Z")
    for q in range(K.n + 1):
        for p in range(q + 1):
            assert log_cohomology_dim(K, q, q - p) == table.rank(p, q), (p, q)


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
    resolvents, cocycles, M = period_matrix(K, 1, 2)
    assert len(resolvents) == len(cocycles) == 1
    assert abs(M[0][0]) == 1


def test_period_matrix_point_bidegree():
    # the empty-braid bidegree pairs the point cycle with the constants: [[1]]
    K = two_points()
    _, _, M = period_matrix(K, 0, 0)
    assert M == [[Fraction(1)]]


def test_period_matrix_cross_bidegree_vanishes():
    # the sphere cycle against the constants, and the point against dz_12/z_12
    K = two_points()
    [sphere], _, _ = period_matrix(K, 1, 2)
    [constant] = log_cohomology_basis(K, 0, 0)
    assert period_of_cycle(constant, sphere) == Period(Fraction(0), 0)
    [point], _, _ = period_matrix(K, 0, 0)
    [w] = log_cohomology_basis(K, 2, 1)
    assert period_of_cycle(w, point) == Period(Fraction(0), 2)


def test_period_matrix_resolvents_carry_the_cycle_basis():
    K = SimplicialComplex.from_facets(5, [[1], [4], [2, 5]])
    for p, q in [(0, 0), (1, 2), (2, 3), (3, 4)]:
        resolvents, cocycles, M = period_matrix(K, p, q)
        assert [res.cycle for res in resolvents] == homology_cycle_basis(K, p, q)
        assert all((res.p, res.q) == (p, q) for res in resolvents)
        assert len(M) == len(resolvents)
        assert all(len(row) == len(cocycles) for row in M)


def test_period_matrix_square_boundary():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    resolvents, cocycles, M = period_matrix(K, 1, 2)
    assert len(resolvents) == len(cocycles) == 2
    assert determinant_rational(M) != 0
    top = period_matrix(K, 2, 4)
    assert len(top[0]) == len(top[1]) == 1
    assert top[2][0][0] != 0


def test_period_matrices_are_unimodular():
    # observed, not proven: at every bidegree with classes, the integral
    # cycle basis and the cocycle basis pair to |det| = 1, over every
    # complex with n <= 4 and at most 9 faces (the empty face included) and
    # over the prism; an input that breaks it needs investigating, and the
    # assertion must not be relaxed to det != 0
    targets = [K for n in (1, 2, 3, 4) for K in enumerate_complexes(n) if len(K.faces) <= 9]
    targets.append(SimplicialComplex.from_facets(6, PRISM))
    seen = 0
    for K in targets:
        for q in range(K.n + 1):
            for p in range(q + 1):
                _, cocycles, M = period_matrix(K, p, q)
                if cocycles:
                    seen += 1
                    assert abs(determinant_rational(M)) == 1, (K, p, q)
    assert seen == 537 + 7


def _validated_basis(K, r, t):
    # the connecting map as one Fraction product per term, each entry
    # through the validating LogCochain.add
    sign = -1 if t % 2 else 1
    found = []
    for index_sets, low, mid, high, admissible in logforms._complements(K, r, t):
        reps = homology_of_pair(logforms._coboundary(low, mid),
                                logforms._coboundary(mid, high), ring="Q").representatives
        if reps:
            tuples = list(admissible)
            delta = logforms._coboundary(mid, tuples)
            cocycles = [[sign * sum(a * c[j] for j, a in row.items()) for row in delta.rows]
                        for c in reps]
            found += [(I, tuples, cocycles) for I in index_sets]
    basis = []
    for I, tuples, cocycles in sorted(found, key=lambda f: f[0]):
        for vec in cocycles:
            w = LogCochain(K, r, t)
            for T, c in zip(tuples, vec):
                if c:
                    w.add(T, I, c)
            basis.append(w)
    return basis


def _entries_in_order(basis):
    return [[(T, [(I, type(c), c) for I, c in forms.items()]) for T, forms in w.entries.items()]
            for w in basis]


def test_log_cohomology_basis_equals_the_validated_basis():
    # log_cohomology_basis writes its entries without LogCochain.add; every
    # entry, its type and its order must be what add would have stored
    targets = [K for n in (1, 2, 3, 4) for K in enumerate_complexes(n) if len(K.faces) <= 9]
    targets.append(SimplicialComplex.from_facets(6, PRISM))
    seen = 0
    for K in targets:
        for q in range(K.n + 1):
            for p in range(q + 1):
                basis = log_cohomology_basis(K, q, q - p)
                if basis:
                    seen += 1
                    want = _entries_in_order(_validated_basis(K, q, q - p))
                    assert _entries_in_order(basis) == want, (K, p, q)
    assert seen == 537 + 7


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
