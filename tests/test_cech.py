"""Tests for face-indexed chain families and resolvents."""

import random
from itertools import combinations_with_replacement, permutations

import pytest

from momentangle.cech import (
    CechChain,
    Resolvent,
    build_resolvent,
    canonical_tuple,
    validate_resolvent,
)
from momentangle.cells import Cell, apply_boundary, homology_cycle_basis
from momentangle.simplicial import SimplicialComplex, enumerate_complexes, face_key
from test_hochster import projective_plane_six, square


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def sphere_cycle():
    return {Cell((1,), (2,)): 1, Cell((2,), (1,)): 1}


def test_canonical_tuple_sorts_and_signs():
    assert canonical_tuple(((1,), (2,))) == (((1,), (2,)), 1)
    assert canonical_tuple(((2,), (1,))) == (((1,), (2,)), -1)
    assert canonical_tuple(((), (1,), (1, 2))) == (((), (1,), (1, 2)), 1)
    assert canonical_tuple(((1,), (1,))) == (None, 0)
    # size dominates lex order
    assert canonical_tuple(((1, 2), (3,))) == (((3,), (1, 2)), -1)


@pytest.mark.parametrize("K, length", [
    (square(), 4),
    (projective_plane_six(), 3),
    # all 32^4 = 1,048,576 ordered 4-tuples of RP2's faces
    pytest.param(projective_plane_six(), 4, marks=pytest.mark.slow),
], ids=["square", "rp2", "rp2-4"])
def test_canonical_tuple_matches_sorting_and_counting_inversions(K, length):
    # every ordering of every tuple of `length` faces, repeats included: a
    # tuple of distinct faces sorts to its ascending multiset, signed by the
    # inversions of the permutation; an ascending tuple comes back as it is
    faces = sorted(K.faces, key=face_key)
    perms = [(perm, (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]))
             for perm in permutations(range(length))]
    for ascending in combinations_with_replacement(faces, length):
        if len(set(ascending)) < length:
            for T in set(permutations(ascending)):
                assert canonical_tuple(T) == (None, 0), T
            continue
        assert canonical_tuple(ascending)[0] is ascending
        for perm, sign in perms:
            T = tuple([ascending[i] for i in perm])
            assert canonical_tuple(T) == (ascending, sign), T


def test_chain_alternation():
    c = CechChain(1)
    c.add(((2,), (1,)), {Cell((), ()): 1})
    assert c.value(((1,), (2,))) == {Cell((), ()): -1}
    assert c.value(((2,), (1,))) == {Cell((), ()): 1}
    assert c.value(((1,), (1,))) == {}
    # adding the swapped tuple cancels the entry
    c.add(((1,), (2,)), {Cell((), ()): 1})
    assert c.is_zero()


def test_delete_faces_is_nerve_boundary():
    c = CechChain(1)
    V = {Cell((), (1,)): 1}
    c.add(((1,), (1, 2)), V)
    d = c.delete_faces()
    assert d.value(((1, 2),)) == V
    assert d.value(((1,),)) == {Cell((), (1,)): -1}


def test_delete_faces_on_sphere_ladder():
    # top level of the punctured-plane resolvent, deleted one face at a time
    c = CechChain(1)
    c.add(((), (1,)), {Cell((), (1, 2)): -1})
    c.add(((), (2,)), {Cell((), (1, 2)): 1})
    d = c.delete_faces()
    assert d.value(((1,),)) == {Cell((), (1, 2)): -1}
    assert d.value(((2,),)) == {Cell((), (1, 2)): 1}
    assert d.value(((),)) == {}  # the two deletions over the empty face cancel


def test_delete_faces_squares_to_zero():
    rng = random.Random(41)
    faces = [(), (1,), (2,), (3,), (1, 2), (2, 3)]
    for _ in range(100):
        c = CechChain(2)
        for _ in range(5):
            T = tuple(rng.sample(faces, 3))
            c.add(T, {Cell((), (rng.randint(1, 3),)): rng.randint(-2, 2)})
        assert c.delete_faces().delete_faces().is_zero()


def test_boundary_commutes_with_delete_faces():
    rng = random.Random(43)
    faces = [(), (1,), (2,), (3,), (1, 2), (2, 3)]
    for _ in range(100):
        c = CechChain(1)
        for _ in range(4):
            T = tuple(rng.sample(faces, 2))
            disks = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 2))))
            circles = tuple(v for v in (1, 2, 3) if v not in disks and rng.random() < 0.5)
            c.add(T, {Cell(disks, circles): rng.randint(-2, 2)})
        assert c.boundary().delete_faces() == c.delete_faces().boundary()


def test_resolvent_of_sphere_cycle_matches_hand_computation():
    K = two_points()
    res = build_resolvent(K, sphere_cycle())
    assert (res.p, res.q, res.total_degree) == (1, 2, 3)
    assert len(res.levels) == 2
    assert res.levels[0].entries == {
        ((1,),): {Cell((1,), (2,)): 1},
        ((2,),): {Cell((2,), (1,)): 1},
    }
    assert res.levels[1].entries == {
        ((), (1,)): {Cell((), (1, 2)): -1},
        ((), (2,)): {Cell((), (1, 2)): 1},
    }
    assert validate_resolvent(K, res) == (True, "")


def test_resolvent_zero_cycle():
    K = two_points()
    # the zero chain has no position to build at, but a zero ladder at a
    # declared position is a valid resolvent
    assert validate_resolvent(K, Resolvent(1, 2, {}, (CechChain(0),))) == (True, "")
    with pytest.raises(ValueError, match="no position"):
        build_resolvent(K, {})
    with pytest.raises(ValueError, match="no position"):
        build_resolvent(K, {Cell((), (1, 2)): 0})


def test_resolvent_ignores_zero_coefficients():
    K = two_points()
    padded = dict(sphere_cycle())
    padded[Cell((1, 2), ())] = 0
    assert build_resolvent(K, padded) == build_resolvent(K, sphere_cycle())


def test_resolvent_rejects_non_cycle():
    with pytest.raises(ValueError):
        build_resolvent(two_points(), {Cell((1,), ()): 1})


def test_resolvent_rejects_mixed_positions():
    chain = {Cell((), (1,)): 1, Cell((), (1, 2)): 1}
    with pytest.raises(ValueError):
        build_resolvent(two_points(), chain)


def test_resolvent_rejects_a_position_other_than_the_cycles():
    K = two_points()
    res = build_resolvent(K, sphere_cycle())
    assert (res.p, res.q) == (1, 2)
    for p, q in [(0, 1), (1, 3)]:
        ok, message = validate_resolvent(K, Resolvent(p, q, res.cycle, res.levels))
        assert not ok
        assert message == f"cycle sits at position (1, 2), not the declared ({p}, {q})"


def test_validate_detects_sign_corruption():
    K = two_points()
    res = build_resolvent(K, sphere_cycle())
    bad_top = CechChain(1)
    for faces, chain in res.levels[1].entries.items():
        bad_top.add(faces, chain, -1)  # flip every sign at the top level
    broken = Resolvent(res.p, res.q, res.cycle, (res.levels[0], bad_top))
    ok, message = validate_resolvent(K, broken)
    assert not ok
    assert "level 0" in message


def test_validate_detects_dropped_entry():
    K = two_points()
    res = build_resolvent(K, sphere_cycle())
    pruned = CechChain(1)
    items = sorted(res.levels[1].entries.items())
    pruned.add(*items[0])
    broken = Resolvent(res.p, res.q, res.cycle, (res.levels[0], pruned))
    ok, message = validate_resolvent(K, broken)
    assert not ok
    assert message


def test_validate_detects_wrong_cycle():
    K = two_points()
    res = build_resolvent(K, sphere_cycle())
    broken = Resolvent(res.p, res.q, {Cell((1,), (2,)): 1, Cell((2,), (1,)): -1},
                       res.levels)
    ok, message = validate_resolvent(K, broken)
    assert not ok
    assert "cycle" in message


def test_validate_reports_a_tuple_of_the_wrong_length():
    K = square()
    res = build_resolvent(K, homology_cycle_basis(K, 1, 2)[0])
    # ascending, made of faces, with discs inside the meet: only the length is wrong
    res.levels[1].entries[((), (1,), (2,))] = {Cell((), (3, 4)): 1}
    ok, message = validate_resolvent(K, res)
    assert not ok
    assert "3-tuple" in message


def square_ladder():
    """The square's three-level resolvent at (2, 4)."""
    K = square()
    [cycle] = homology_cycle_basis(K, 2, 4)
    return K, build_resolvent(K, cycle)


def negated(level):
    out = CechChain(level.t)
    for faces, chain in level.entries.items():
        out.add(faces, chain, -1)
    return out


def with_entry(res, i, faces, chain):
    res.levels[i].entries[faces] = chain
    return res


def with_cycle(res, cycle):
    return Resolvent(res.p, res.q, cycle, res.levels)


def with_levels(res, *levels):
    return Resolvent(res.p, res.q, res.cycle, levels)


# one corruption per failure message of validate_resolvent, in the order
# the checks run
CORRUPTIONS = {
    "inhomogeneous": (lambda r: with_cycle(r, {**r.cycle, Cell((), (1,)): 1}),
                      "cycle is not homogeneous: positions [(1, 1), (2, 4)]"),
    "declared-position": (lambda r: Resolvent(1, 4, r.cycle, r.levels),
                          "cycle sits at position (2, 4), not the declared (1, 4)"),
    "not-a-cycle": (lambda r: with_cycle(r, {Cell((1, 2), (3, 4)): 1}),
                    "the chain is not a cycle"),
    # a boundary, so a cycle, with the non-face disc set (1, 3)
    "non-face-disc-set": (lambda r: with_cycle(r, apply_boundary({Cell((1, 2, 3), (4,)): 1})),
                          "disc set (1, 3) is not a face"),
    "no-levels": (lambda r: with_levels(r), "resolvent has no levels"),
    "wrong-t": (lambda r: with_levels(r, r.levels[0], r.levels[2], r.levels[1]),
                "level 1 stored at tuple length 3"),
    "tuple-length": (lambda r: with_entry(r, 1, ((), (1,), (1, 2)), {Cell((1,), (2, 3, 4)): 1}),
                     "level 1 stores the 3-tuple ((), (1,), (1, 2))"),
    "not-ascending": (lambda r: with_entry(r, 1, ((1, 2), (2,)), {Cell((2,), (1, 3, 4)): 1}),
                      "tuple ((1, 2), (2,)) is not strictly ascending"),
    "non-face": (lambda r: with_entry(r, 1, ((1,), (1, 3)), {Cell((1,), (2, 3, 4)): 1}),
                 "tuple ((1,), (1, 3)) uses the non-face (1, 3)"),
    "empty-entry": (lambda r: with_entry(r, 1, ((2,), (1, 2)), {}),
                    "empty entry stored at ((2,), (1, 2))"),
    "zero-coefficient": (lambda r: with_entry(r, 1, ((2,), (1, 2)), {Cell((2,), (1, 3, 4)): 0}),
                         "zero coefficient stored at ((2,), (1, 2))"),
    "escaping-support": (lambda r: with_entry(r, 1, ((1,), (1, 2)), {Cell((2,), (1, 3, 4)): 1}),
                         "entry at ((1,), (1, 2)) escapes its support: discs (2,)"),
    "entry-position": (lambda r: with_entry(r, 1, ((2,), (1, 2)), {Cell((2,), (1, 3)): 1}),
                       "entry at ((2,), (1, 2)) has a cell outside position (3, 4)"),
    "level-0-sum": (lambda r: with_cycle(r, {cell: 2 * c for cell, c in r.cycle.items()}),
                    "level 0 does not sum to the cycle"),
    "identity-0": (lambda r: with_levels(r, r.levels[0], negated(r.levels[1]), r.levels[2]),
                   "boundary of level 0 differs from the signed deletion of level 1"),
    "identity-1": (lambda r: with_levels(r, r.levels[0], r.levels[1], negated(r.levels[2])),
                   "boundary of level 1 differs from the signed deletion of level 2"),
    "top-boundary": (lambda r: with_levels(r, *r.levels[:2]),
                     "top level still has a boundary"),
}


def test_square_ladder_is_valid():
    K, res = square_ladder()
    assert [len(level.entries) for level in res.levels] == [4, 8, 8]
    assert validate_resolvent(K, res) == (True, "")


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_validate_reports_each_failure(name):
    corrupt, message = CORRUPTIONS[name]
    K, res = square_ladder()
    assert validate_resolvent(K, corrupt(res)) == (False, message)


def test_resolvents_of_all_basis_cycles_validate():
    # every free homology generator of every 3-vertex complex resolves
    for K in enumerate_complexes(3):
        for p in range(0, 4):
            for q in range(p, 4):
                for cycle in homology_cycle_basis(K, p, q):
                    res = build_resolvent(K, cycle)
                    assert validate_resolvent(K, res) == (True, "")


def test_resolvent_of_deep_cycle():
    # boundary of the 2-simplex: the 5-sphere cycle runs three levels deep
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    cycles = homology_cycle_basis(K, 1, 3)
    assert len(cycles) == 1
    res = build_resolvent(K, cycles[0])
    assert len(res.levels) == 3
    assert validate_resolvent(K, res) == (True, "")
    # level entries live on nested tuples with strictly growing face sizes
    for i, level in enumerate(res.levels):
        for faces in level.entries:
            assert [len(f) for f in faces] == list(range(2 - i, 3))
