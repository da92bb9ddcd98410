"""Witnesses outside the shared linear algebra: Künneth joins, closed forms.

All engines end in the same `linalg` eliminations, so engine agreement
cannot catch a defect there that misleads every engine alike.  These
tests check whole tables against answers that need no elimination of the
large matrices: the Künneth formula over the small tables of two join
factors, and closed forms of Hochster's sum for families whose full
subcomplexes are known.
"""

from itertools import combinations
from math import comb, gcd

import pytest

from momentangle.linalg import invariant_factor_chain
from momentangle.report import betti_table
from momentangle.simplicial import SimplicialComplex
from test_hochster import projective_plane_six

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
