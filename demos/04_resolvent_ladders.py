"""Resolvent ladders: feeding a cycle through the face-indexed cover.

A homology cycle of the product-cell model usually spreads over several
cover sets at once.  A resolvent rewrites it as a ladder of
tuple-indexed chains: level 0 splits the cycle by its disc sets, and
each next level records how the pieces' boundaries cancel across
deeper cover intersections.  The defining identities are

    sum of level 0      = the cycle
    boundary of level i = (-1)^(s - i) * (face-deletion of level i + 1)

with the last level closed.  The ladder is what periods integrate
against.
"""

from momentangle import (
    SimplicialComplex,
    build_resolvent,
    homology_cycle_basis,
    validate_resolvent,
)


def show(K, p, q):
    for cycle in homology_cycle_basis(K, p, q):
        res = build_resolvent(K, cycle)
        ok, message = validate_resolvent(K, res)
        print(f"cycle at ({p}, {q}) with {len(res.levels)} levels "
              f"-> valid: {ok}{message and ' (' + message + ')'}")
        for level in res.levels:
            for faces in sorted(level.entries):
                chain = level.entries[faces]
                terms = ", ".join(f"{c:+d} D{list(cell.disks)}xS{list(cell.circles)}"
                                  for cell, c in sorted(chain.items(),
                                                        key=lambda kv: kv[0].disks))
                print(f"    level {level.t}  {faces} -> {terms}")


# The 3-sphere cycle of the plane-minus-origin complement: two cells,
# one ladder step.
print("== plane minus the origin")
show(SimplicialComplex.from_facets(2, [[1], [2]]), 1, 2)

# The triangle boundary gives a 5-sphere; its generator runs three
# levels deep, through single faces, edges-in-pairs, and a triple.
print("== triangle boundary")
show(SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]]), 1, 3)
