"""Tests for face-indexed chain families and resolvents."""

import random

import pytest

from momentangle.cech import (
    CechChain,
    Resolvent,
    build_resolvent,
    canonical_tuple,
    validate_resolvent,
)
from momentangle.cells import Cell, apply_boundary, homology_cycle_basis
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


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
    res = build_resolvent(K, {}, p=1, q=2)
    assert len(res.levels) == 1
    assert res.levels[0].is_zero()
    assert validate_resolvent(K, res) == (True, "")


def test_resolvent_rejects_non_cycle():
    with pytest.raises(ValueError):
        build_resolvent(two_points(), {Cell((1,), ()): 1})


def test_resolvent_rejects_mixed_positions():
    chain = {Cell((), (1,)): 1, Cell((), (1, 2)): 1}
    with pytest.raises(ValueError):
        build_resolvent(two_points(), chain)


def test_resolvent_rejects_a_position_other_than_the_cycles():
    K = two_points()
    with pytest.raises(ValueError, match="position"):
        build_resolvent(K, sphere_cycle(), p=0, q=1)
    with pytest.raises(ValueError, match="position"):
        build_resolvent(K, sphere_cycle(), q=3)
    res = build_resolvent(K, sphere_cycle(), p=1, q=2)
    assert (res.p, res.q) == (1, 2)


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
