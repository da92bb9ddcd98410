"""Randomized structural properties of all chain-level operators.

Every test drives at least a thousand randomized cases through one
identity that the machinery must satisfy exactly: differentials and
boundaries square to zero, the cover-deletion operator commutes with
the cell boundary, the algebra differential is adjoint to the boundary
under the label pairing, and the filtration dimensions behave like a
mixed Hodge structure of Tate type.
"""

import random
from itertools import combinations

import pytest

from momentangle.cech import CechChain
from momentangle.cells import Cell, apply_boundary, cell_basis, cell_boundary
from momentangle.hochster import reduced_cohomology
from momentangle.koszul import (
    differential_matrix,
    koszul_basis,
    koszul_cohomology,
    koszul_differential,
)
from momentangle.logforms import LogCochain, block_tuples
from momentangle.report import betti_table, filtration_dims
from momentangle.simplicial import SimplicialComplex, enumerate_complexes

CASES = 1000


def _pool():
    """All complexes with up to 4 vertices (193 of them)."""
    complexes = []
    for n in range(1, 5):
        complexes.extend(enumerate_complexes(n))
    return complexes


POOL = _pool()


def test_algebra_differential_squares_to_zero():
    rng = random.Random(901)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        q = rng.randint(0, K.n)
        p = rng.randint(0, q)
        if not koszul_basis(K, p, q):
            continue
        d = differential_matrix(K, p - 1, q).matmul(differential_matrix(K, p, q))
        assert d.is_zero(), (K, p, q)
        done += 1


def test_cell_boundary_squares_to_zero():
    rng = random.Random(902)
    for _ in range(CASES):
        n = rng.randint(1, 6)
        disks = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        circles = tuple(v for v in range(1, n + 1)
                        if v not in disks and rng.random() < 0.5)
        chain = {Cell(disks, circles): rng.choice([-2, -1, 1, 2])}
        assert apply_boundary(apply_boundary(chain)) == {}


def _random_cech_chain(rng, K, t, entries=4):
    chain = CechChain(t)
    faces = K.faces_sorted()
    for _ in range(entries):
        if len(faces) < t + 1:
            break
        T = tuple(rng.sample(faces, t + 1))
        disks = tuple(v for v in range(1, K.n + 1) if rng.random() < 0.4)
        circles = tuple(v for v in range(1, K.n + 1)
                        if v not in disks and rng.random() < 0.4)
        chain.add(T, {Cell(disks, circles): rng.choice([-2, -1, 1, 2])})
    return chain


def test_cover_deletion_squares_to_zero():
    rng = random.Random(903)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        if len(K.faces) < 3:
            continue
        chain = _random_cech_chain(rng, K, 2)
        assert chain.delete_faces().delete_faces().is_zero()
        done += 1


def test_log_differential_squares_to_zero():
    rng = random.Random(904)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        r = rng.randint(0, K.n)
        I = tuple(sorted(rng.sample(range(1, K.n + 1), r)))
        t = rng.randint(0, 2)
        tuples = block_tuples(K, I, t)
        if not tuples:
            continue
        w = LogCochain(K, r, t)
        for T in rng.sample(tuples, min(len(tuples), 3)):
            w.add(T, I, rng.choice([-2, -1, 1, 2]))
        assert w.differential().differential().is_zero()
        done += 1


def test_boundary_commutes_with_cover_deletion():
    rng = random.Random(905)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        if len(K.faces) < 2:
            continue
        chain = _random_cech_chain(rng, K, 1)
        if chain.is_zero():
            continue
        assert chain.boundary().delete_faces() == chain.delete_faces().boundary()
        done += 1


def test_adjointness_of_differential_and_boundary():
    rng = random.Random(906)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        q = rng.randint(1, K.n)
        p = rng.randint(1, q)
        monomials = koszul_basis(K, p, q)
        cells = cell_basis(K, p - 1, q)
        if not monomials or not cells:
            continue
        m = rng.choice(monomials)
        c = rng.choice(cells)
        lhs = koszul_differential(K, m).get((c.circles, c.disks), 0)
        rhs = cell_boundary(c).get(Cell(m[1], m[0]), 0)
        assert lhs == rhs, (K, m, c)
        done += 1


def test_column_zero_cohomology_vanishes_positively():
    # the p = 0 column carries nothing above the origin
    rng = random.Random(907)
    for _ in range(CASES):
        K = rng.choice(POOL)
        q = rng.randint(1, K.n)
        H = koszul_cohomology(K, 0, q, want_representatives=False)
        assert H.rank == 0 and H.torsion == ()


def test_vanishing_beyond_dimension():
    # groups vanish once q - p - 1 exceeds the dimension of the complex
    rng = random.Random(908)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        dim = K.dim()
        q = rng.randint(0, K.n)
        p = rng.randint(0, q)
        if q - p - 1 <= dim:
            continue
        H = koszul_cohomology(K, p, q, want_representatives=False)
        assert H.rank == 0 and H.torsion == ()
        done += 1


def test_euler_characteristic_per_column():
    # alternating sums of cochain dimensions and of ranks agree per q
    rng = random.Random(909)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        q = rng.randint(0, K.n)
        chain_sum = 0
        rank_sum = 0
        for p in range(0, q + 1):
            sign = -1 if p % 2 else 1
            chain_sum += sign * len(koszul_basis(K, p, q))
            rank_sum += sign * koszul_cohomology(
                K, p, q, ring="Q", want_representatives=False).rank
        assert chain_sum == rank_sum, (K, q)
        done += 1


@pytest.fixture(scope="module")
def cached_tables():
    return {}


def _table(cached, K):
    key = (K.n, tuple(K.faces_sorted()))
    if key not in cached:
        cached[key] = betti_table(K)
    return cached[key]


def test_weight_filtration_shape(cached_tables):
    # W is monotone, starts at zero below s, and exhausts the space at 2s
    rng = random.Random(910)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        bt = _table(cached_tables, K)
        degrees = bt.total_degrees()
        s = rng.choice(degrees + [rng.randint(0, 2 * K.n)])
        dim = bt.total_dim(s)
        F, W = filtration_dims(bt, s)
        if s > 0:
            assert W[s - 1] == 0
        assert W[2 * s] == dim
        previous = 0
        for r in sorted(W):
            assert W[r] >= previous
            if r % 2:  # Tate type: odd weights never jump
                assert W[r] == previous
            previous = W[r]
        done += 1


def test_hodge_filtration_shape(cached_tables):
    # F is weakly decreasing from the full space down to zero
    rng = random.Random(911)
    done = 0
    while done < CASES:
        K = rng.choice(POOL)
        bt = _table(cached_tables, K)
        degrees = bt.total_degrees()
        s = rng.choice(degrees + [rng.randint(0, 2 * K.n)])
        F, W = filtration_dims(bt, s)
        dim = bt.total_dim(s)
        assert F[0] == dim
        assert F[s + 1] == 0
        for k in range(0, s + 1):
            assert F[k] >= F[k + 1]
        done += 1


def test_ghost_vertices_do_not_change_reduced_cohomology():
    # the reduced cohomology of a complex sees faces, not the vertex range,
    # so padding with unused vertices changes no restriction summand
    rng = random.Random(912)
    small = [K for K in POOL if K.n <= 3]
    done = 0
    while done < CASES:
        K = rng.choice(small)
        padded = SimplicialComplex(K.n + rng.randint(1, 2), K.faces)
        d = rng.randint(-1, K.dim())
        a = reduced_cohomology(K, d)
        b = reduced_cohomology(padded, d)
        assert (a.rank, a.torsion) == (b.rank, b.torsion)
        done += 1
