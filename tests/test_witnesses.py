"""Witnesses outside the shared linear algebra: Künneth joins, closed forms,
universal coefficients.

All engines end in the same `linalg` eliminations, so engine agreement
cannot catch a defect there that misleads every engine alike.  These
tests check whole tables against answers that need no elimination of the
large matrices: the Künneth formula over the small tables of two join
factors, and closed forms of Hochster's sum for families whose full
subcomplexes are known.  Universal coefficients check the integral
tables in other arithmetic: a rank over F_l from an elimination written
here, which shares no code with `linalg`.
"""

import random
from itertools import combinations
from math import comb, gcd

import pytest

from momentangle.koszul import differential_matrix, koszul_basis
from momentangle.linalg import IntMatrix, invariant_factor_chain, smith_normal_form
from momentangle.report import betti_table
from momentangle.simplicial import SimplicialComplex, enumerate_complexes
from test_hochster import (
    assert_equals_restriction_reference,
    projective_plane_six,
    with_ghosts,
)

ENGINES = ["koszul", "hochster"]


def join(K1, K2):
    """K1 * K2 on n1 + n2 vertices: the faces are sigma + (tau shifted by n1).

    Its arrangement complement is the product of the factors' complements.
    """
    return SimplicialComplex.from_facets(K1.n + K2.n, [
        sigma + tuple(v + K1.n for v in tau)
        for sigma in K1.facets() for tau in K2.facets()])


def kunneth(table1, table2):
    """Integral table of the product of two complements, as {(p, q): (rank, torsion)}.

    Cohomology is in degree 2q - p.  Free and tensor terms add bidegrees;
    Tor(Z/a, Z/b) = Z/gcd(a, b) lands at (p1 + p2 + 1, q1 + q2), one total
    degree lower.
    """
    ranks, torsion = {}, {}
    for (p1, q1), (r1, t1) in table1.items():
        for (p2, q2), (r2, t2) in table2.items():
            pq = (p1 + p2, q1 + q2)
            ranks[pq] = ranks.get(pq, 0) + r1 * r2
            tor = [gcd(a, b) for a in t1 for b in t2]
            torsion.setdefault(pq, []).extend(list(t1) * r2 + list(t2) * r1 + tor)
            torsion.setdefault((pq[0] + 1, pq[1]), []).extend(tor)
    table = {}
    for pq in set(ranks) | set(torsion):
        entry = (ranks.get(pq, 0),
                 invariant_factor_chain(d for d in torsion.get(pq, ()) if d > 1))
        if entry != (0, ()):
            table[pq] = entry
    return table


def points(n):
    return SimplicialComplex.from_facets(n, [[v] for v in range(1, n + 1)])


def polygon(m):
    return SimplicialComplex.from_facets(
        m, [[v, v % m + 1] for v in range(1, m + 1)])


def simplex_boundary(n):
    return SimplicialComplex.from_facets(n, combinations(range(1, n + 1), n - 1))


def full_simplex(n):
    return SimplicialComplex.from_facets(n, [range(1, n + 1)])


FACTORS = {
    "two-points": points(2),
    "triangle-boundary": simplex_boundary(3),
    "square": polygon(4),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", FACTORS)
def test_projective_plane_joins_obey_kunneth(name, engine):
    K1, K2 = projective_plane_six(), FACTORS[name]
    want = kunneth(betti_table(K1, engine=engine).entries,
                   betti_table(K2, engine=engine).entries)
    got = betti_table(join(K1, K2), engine=engine).entries
    assert got == want
    if name == "square":
        # Z/2 of the projective plane at (3, 6) times the square's free groups
        assert (got[(3, 6)][1], got[(4, 8)][1], got[(5, 10)][1]) == (
            (2,), (2, 2), (2,))


def test_hochster_equals_the_restriction_reference_on_projective_plane_joins():
    K = projective_plane_six()
    assert_equals_restriction_reference(K)
    # two inert vertices: the Z/2 at (3, 6) comes once per superset of the six
    assert_equals_restriction_reference(with_ghosts(K, 2))
    for factor in FACTORS.values():
        assert_equals_restriction_reference(join(K, factor))


def test_join_has_the_product_face_count():
    K = join(projective_plane_six(), polygon(4))
    assert (K.n, len(K.faces_sorted())) == (10, 32 * 9)


def test_kunneth_puts_tor_one_total_degree_lower():
    z2 = {(0, 0): (1, ()), (3, 6): (0, (2,))}
    assert kunneth(z2, z2) == {
        (0, 0): (1, ()), (3, 6): (0, (2, 2)), (6, 12): (0, (2,)),
        (7, 12): (0, (2,))}


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_projective_plane_squared_obeys_kunneth(engine):
    K = projective_plane_six()
    table = betti_table(K, engine=engine).entries
    got = betti_table(join(K, K), engine=engine).entries
    assert got == kunneth(table, table)
    assert got[(6, 12)][1] == got[(7, 12)][1] == (2,)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", range(1, 8))
def test_points(n, engine):
    want = {(0, 0): (1, ())}
    want.update({(q - 1, q): ((q - 1) * comb(n, q), ()) for q in range(2, n + 1)})
    assert betti_table(points(n), engine=engine).entries == want


def arcs(J, m):
    """Number of runs of consecutive vertices of a proper subset J of the m-gon."""
    return sum(1 for v in J if v % m + 1 not in J)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("m", [8, 10, 12])
def test_polygons(m, engine):
    want = {(0, 0): (1, ()), (m - 2, m): (1, ())}
    for q in range(1, m):
        rank = sum(arcs(set(J), m) - 1 for J in combinations(range(1, m + 1), q))
        if rank:
            want[(q - 1, q)] = (rank, ())
    assert betti_table(polygon(m), engine=engine).entries == want


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", range(2, 8))
def test_simplex_boundaries(n, engine):
    # C^n minus the origin retracts onto the (2n - 1)-sphere
    assert betti_table(simplex_boundary(n), engine=engine).entries == {
        (0, 0): (1, ()), (1, n): (1, ())}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", range(1, 7))
def test_full_simplices(n, engine):
    # no coordinate subspace is removed
    assert betti_table(full_simplex(n), engine=engine).entries == {(0, 0): (1, ())}


def rank_mod(M, ell):
    """Rank of an integer matrix over F_ell (ell prime), row by row.

    Each pivot row is kept scaled to 1 at its leading column; a new row
    is cleared at its leading column until it leads at a new one or is 0.
    """
    pivots = {}
    for row in M.rows:
        v = {j: x % ell for j, x in row.items() if x % ell}
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(v[lead], -1, ell)
                pivots[lead] = {j: x * inverse % ell for j, x in v.items()}
                break
            c = v[lead]
            for j, x in pivot.items():
                y = (v.get(j, 0) - c * x) % ell
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return len(pivots)


def test_rank_mod_counts_the_invariant_factors_prime_to_ell():
    # the matrices of the Smith pin test in linalg's tests
    rng = random.Random(5)
    for _ in range(4000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.random()
        M = IntMatrix.from_rows([[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
                                  for _ in range(n)] for _ in range(m)])
        factors = smith_normal_form(M)
        for ell in (2, 3, 5, 7):
            assert rank_mod(M, ell) == sum(1 for d in factors if d % ell), (M.to_rows(), ell)


def dims_mod(K, ell):
    """{(p, q): dim over F_ell} of the Koszul complex's homology, nonzero only."""
    dims = {}
    for q in range(K.n + 1):
        for p in range(q + 1):
            dim = (len(koszul_basis(K, p, q)) - rank_mod(differential_matrix(K, p, q), ell)
                   - rank_mod(differential_matrix(K, p + 1, q), ell))
            if dim:
                dims[(p, q)] = dim
    return dims


def universal_coefficients(table, ell):
    """{(p, q): dim over F_ell} from the integral table: the rank, the
    l-torsion at (p, q), and Tor of the l-torsion at (p - 1, q)."""
    torsion = {pq: sum(1 for d in factors if d % ell == 0)
               for pq, (_, factors) in table.items()}
    dims = {}
    for p, q in set(table) | {(p + 1, q) for p, q in table}:
        dim = table.get((p, q), (0, ()))[0] + torsion.get((p, q), 0) + torsion.get((p - 1, q), 0)
        if dim:
            dims[(p, q)] = dim
    return dims


@pytest.mark.parametrize("ell", [2, 3])
def test_universal_coefficients_on_every_small_complex(ell):
    for n in range(1, 5):
        for K in enumerate_complexes(n):
            assert dims_mod(K, ell) == universal_coefficients(betti_table(K).entries, ell), K


@pytest.mark.parametrize("name", [None, *FACTORS])
def test_universal_coefficients_on_the_projective_plane(name):
    K = projective_plane_six()
    if name is not None:
        K = join(K, FACTORS[name])
    table = betti_table(K).entries
    for ell in (2, 3):
        dims = dims_mod(K, ell)
        assert dims == universal_coefficients(table, ell), ell
        if name is None:
            # Z/2 at (3, 6) counts at (3, 6) and, through Tor, at (4, 6)
            gains = {pq: dim - table.get(pq, (0, ()))[0] for pq, dim in dims.items()}
            assert {pq: g for pq, g in gains.items() if g} == (
                {(3, 6): 1, (4, 6): 1} if ell == 2 else {})
