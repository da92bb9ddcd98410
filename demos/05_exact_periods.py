"""Exact periods: pairing logarithmic cocycles with homology cycles.

The third engine models the complement's cohomology by Cech cochains
on the face-indexed cover whose values are constant combinations of
logarithmic symbols dz_I/z_I.  Integrating such a cocycle over a cycle
-- via its resolvent ladder -- gives a rational multiple of (2 pi i)^q,
computed here exactly with fractions.

Three facts are demonstrated:
  * the period matrix at a nonzero bidegree is square and nondegenerate,
  * coboundaries integrate to zero (the Stokes identity),
  * classes from one bidegree annihilate cycles from another.
"""

from momentangle import (
    LogCochain,
    SimplicialComplex,
    build_resolvent,
    determinant_rational,
    homology_cycle_basis,
    log_cohomology_basis,
    period_matrix,
    period_of_cycle,
)

plane = SimplicialComplex.from_facets(2, [[1], [2]])

resolvents, cocycles, matrix = period_matrix(plane, 1, 2)
print("plane minus origin, bidegree (1, 2):")
print(f"  period matrix {matrix} x (2 pi i)^2, determinant "
      f"{determinant_rational(matrix)}")
assert abs(matrix[0][0]) == 1

# A hand-written cocycle: dz_12/z_12 placed over the tuples ({}, {1})
# and (with opposite sign) ({1}, {2}).  Its differential vanishes and
# its period over the sphere cycle is exactly -(2 pi i)^2.
w = LogCochain(plane, 2, 1)
w.add(((), (1,)), (1, 2), 1)
w.add(((1,), (2,)), (1, 2), -1)
assert w.differential().is_zero()
[cycle] = homology_cycle_basis(plane, 1, 2)
ladder = build_resolvent(plane, cycle)
period = period_of_cycle(w, ladder)
print(f"  hand-written class integrates to {period.coefficient} "
      f"x (2 pi i)^{period.power}")

# Stokes: the differential of any lower cochain has period zero.
eta = LogCochain(plane, 2, 0)
eta.add(((),), (1, 2), 1)
assert period_of_cycle(eta.differential(), ladder).is_zero()
print("  coboundary pairing: 0 (Stokes)")

# Cross-bidegree: constants cannot feel the sphere cycle.
[constant] = log_cohomology_basis(plane, 0, 0)
assert period_of_cycle(constant, ladder).is_zero()
print("  cross-bidegree pairing: 0")

# A two-generator example: the square boundary at bidegree (1, 2) has a
# 2 x 2 unimodular period matrix.
square = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
resolvents, cocycles, matrix = period_matrix(square, 1, 2)
print("square boundary, bidegree (1, 2):")
print(f"  period matrix {matrix}, determinant {determinant_rational(matrix)}")
assert determinant_rational(matrix) != 0
