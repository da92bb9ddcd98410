"""Product cells of the polydisc model and their boundary operator.

A cell is a product over the vertex set: a disc factor for each index in
`disks` (which must form a face of the complex), a circle factor for each
index in `circles`, and a point factor elsewhere.  Its dimension is twice
the number of discs plus the number of circles.  Taking the boundary of
one disc factor turns it into a circle, so the boundary operator fixes
q = |disks| + |circles| while raising p = |circles| by one.

The pairing with the cochain algebra matches the monomial with odd part I
and even part J against the cell with circles I and disks J; under that
matching the algebra differential and the cell boundary are transposes of
one another, which the tests check entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .koszul import KoszulMonomial
from .linalg import HomologyResult, IntMatrix, homology_of_pair
from .simplicial import SimplicialComplex, face_key


@dataclass(frozen=True)
class Cell:
    """D^2 factors over `disks`, S^1 factors over `circles`, points elsewhere."""

    disks: tuple
    circles: tuple

    def __post_init__(self):
        if set(self.disks) & set(self.circles):
            raise ValueError(f"factor sets overlap: {self.disks} and {self.circles}")

    def dim(self) -> int:
        return 2 * len(self.disks) + len(self.circles)


# a chain is a finite integer (or Fraction) combination of cells
CellChain = dict


def cell_basis(K: SimplicialComplex, p: int, q: int) -> tuple:
    """Cells with p circles and a (q - p)-face of discs, sorted by (disks, circles)."""
    size = q - p
    if p < 0 or size < 0:
        return ()
    basis = []
    for sigma in K.faces_of_size(size):
        rest = [v for v in range(1, K.n + 1) if v not in sigma]
        for gamma in combinations(rest, p):
            basis.append(Cell(sigma, gamma))
    basis.sort(key=lambda c: (face_key(c.disks), face_key(c.circles)))
    return tuple(basis)


def cell_boundary(c: Cell) -> CellChain:
    """Geometric boundary: each disc factor degenerates to a circle.

    The sign for moving index i is determined by the parity of its position
    among the enlarged circle set.  No face of the complex is ever lost:
    shrinking the disc set keeps it a face by downward closure.
    """
    out: CellChain = {}
    for i in c.disks:
        circles = tuple(sorted(c.circles + (i,)))
        sign = 1 if circles.index(i) % 2 == 0 else -1
        out[Cell(tuple([v for v in c.disks if v != i]), circles)] = sign
    return out


def apply_boundary(chain: CellChain) -> CellChain:
    """Extend the boundary linearly to a chain."""
    out: CellChain = {}
    for c, coeff in chain.items():
        if not coeff:
            continue
        for term, sign in cell_boundary(c).items():
            v = out.get(term, 0) + coeff * sign
            if v:
                out[term] = v
            else:
                del out[term]
    return out


def add_chains(a: CellChain, b: CellChain, scale=1) -> CellChain:
    """a + scale * b with zero coefficients dropped."""
    out = dict(a)
    for c, coeff in b.items():
        v = out.get(c, 0) + scale * coeff
        if v:
            out[c] = v
        else:
            out.pop(c, None)
    return out


def boundary_matrix(K: SimplicialComplex, p: int, q: int) -> IntMatrix:
    """Matrix of the boundary from cells(p, q) to cells(p + 1, q)."""
    source = cell_basis(K, p, q)
    target = cell_basis(K, p + 1, q)
    index = {c: i for i, c in enumerate(target)}
    M = IntMatrix(len(target), len(source))
    for j, c in enumerate(source):
        for term, sign in cell_boundary(c).items():
            M.add(index[term], j, sign)
    return M


def cell_homology(K: SimplicialComplex, p: int, q: int,
                  want_representatives: bool = True) -> HomologyResult:
    """Integral homology of the cell chains at (p, q); boundary raises p by one.

    Representative vectors are coordinates over cell_basis(K, p, q).
    """
    d_in = boundary_matrix(K, p - 1, q)
    d_out = boundary_matrix(K, p, q)
    return homology_of_pair(d_in, d_out,
                            want_representatives=want_representatives)


def homology_cycle_basis(K: SimplicialComplex, p: int, q: int) -> list:
    """Integral cycles spanning the free part of the homology at (p, q), as chains."""
    basis = cell_basis(K, p, q)
    H = cell_homology(K, p, q)
    return [
        {c: v for c, v in zip(basis, vec) if v}
        for vec in H.representatives
    ]


def phi_pairing(m: KoszulMonomial, c: Cell) -> int:
    """Evaluation of the cochain monomial on the cell: 1 on its partner, else 0."""
    return 1 if m.face == c.disks and m.exterior == c.circles else 0


def pair_element_chain(element: dict, chain: CellChain):
    """Bilinear extension of the evaluation pairing."""
    total = 0
    for m, a in element.items():
        c = Cell(m.face, m.exterior)
        total += a * chain.get(c, 0)
    return total
