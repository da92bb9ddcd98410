"""Families of cell chains indexed by tuples of faces, and resolvents.

A level-t family assigns a cell chain to each (t + 1)-tuple of faces of
the complex, alternating under permutations of the tuple; only tuples in
strictly ascending graded-lex order are stored.  Two commuting operators
act: the entrywise cell boundary, and a nerve-style face-deletion operator
that drops each tuple slot with an alternating sign and lowers t by one.

A resolvent of a cycle is a tower of such families, one per level,
refining the cycle into pieces supported on ever smaller disc sets: the
level-0 entries sum back to the cycle, and each entrywise boundary equals
the face-deletion of the next level up to the sign (-1)^(s - level) with
s the cycle's total degree.  Resolvents are what the period pairing
integrates against one level at a time.
"""

from __future__ import annotations

from ._record import Record
from .cells import CellChain, apply_boundary
from .errors import InvariantViolation
from .linalg import add_into
from .simplicial import SimplicialComplex, face_key


def canonical_tuple(faces: tuple):
    """Ascending reordering of a face tuple and the permutation sign.

    Returns (None, 0) when a face repeats, since alternation kills the
    entry.  A tuple already strictly ascending, as every tuple the period
    path builds is, comes back as it is with the sign 1, without a sort.
    """
    keys = [face_key(f) for f in faces]
    if all(a < b for a, b in zip(keys, keys[1:])):
        return tuple(faces), 1
    order = sorted(range(len(faces)), key=keys.__getitem__)
    arranged = tuple([faces[i] for i in order])
    for a, b in zip(arranged, arranged[1:]):
        if a == b:
            return None, 0
    inversions = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    return arranged, -1 if inversions % 2 else 1


class _FaceTupleFamily:
    """Alternating {key: coefficient} family over (t + 1)-tuples of faces.

    Only canonical (ascending) tuples are stored, and an entry whose values
    all cancel is dropped.
    """

    __slots__ = ("t", "entries")

    def __init__(self, t: int):
        self.t = t
        self.entries: dict = {}  # canonical tuple -> {key: coefficient}

    def _check_length(self, faces: tuple) -> None:
        if len(faces) != self.t + 1:
            raise ValueError(f"expected {self.t + 1} faces, got {len(faces)}")

    def _accumulate(self, faces: tuple, values: dict, scale=1) -> None:
        """Add scale * values at the given tuple, signed by its reordering."""
        arranged, sign = canonical_tuple(faces)
        if sign == 0:
            return
        current = self.entries.setdefault(arranged, {})
        add_into(current, values, sign * scale)
        if not current:
            del self.entries[arranged]

    def value(self, faces: tuple) -> dict:
        """Signed entry at an arbitrary (possibly unordered) tuple."""
        arranged, sign = canonical_tuple(faces)
        if sign == 0:
            return {}
        entry = self.entries.get(arranged, {})
        if sign == 1:
            return dict(entry)
        return {k: -v for k, v in entry.items()}

    def is_zero(self) -> bool:
        return not self.entries


class CechChain(_FaceTupleFamily):
    """Alternating family of cell chains over (t + 1)-tuples of faces."""

    __slots__ = ()

    def __init__(self, t: int):
        if t < 0:
            raise ValueError(f"level must be nonnegative, got {t}")
        super().__init__(t)

    def add(self, faces: tuple, chain: CellChain, scale=1) -> None:
        """Accumulate scale * chain at the given tuple, canonicalizing."""
        self._check_length(faces)
        self._accumulate(faces, chain, scale)

    def boundary(self) -> "CechChain":
        """Entrywise cell boundary; level is unchanged."""
        out = CechChain(self.t)
        for faces, chain in self.entries.items():
            out.add(faces, apply_boundary(chain))
        return out

    def delete_faces(self) -> "CechChain":
        """Drop each tuple slot with alternating sign; level falls by one."""
        if self.t == 0:
            raise ValueError("level-0 families have no face-deletion")
        out = CechChain(self.t - 1)
        for faces, chain in self.entries.items():
            for j in range(len(faces)):
                out.add(faces[:j] + faces[j + 1:], chain, -1 if j % 2 else 1)
        return out

    def augment(self) -> CellChain:
        """Sum of all entries; only meaningful at level 0."""
        total: CellChain = {}
        for chain in self.entries.values():
            add_into(total, chain)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CechChain)
            and self.t == other.t
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"CechChain(t={self.t}, tuples={len(self.entries)})"


class Resolvent(Record):
    """Tower of families refining a cycle in homological position (p, q)."""

    __slots__ = ("p", "q", "cycle", "levels")
    p: int
    q: int
    cycle: CellChain
    levels: tuple  # CechChain at levels 0, 1, ...

    def __init__(self, p: int, q: int, cycle: CellChain, levels: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "levels", levels)

    @property
    def total_degree(self) -> int:
        return 2 * self.q - self.p


def _position(cell) -> tuple:
    return len(cell.circles), len(cell.circles) + len(cell.disks)


def _cycle_problem(K: SimplicialComplex, cycle: CellChain, p: int, q: int) -> str:
    """The first way the cycle fails to be a cycle of K at (p, q), or ""."""
    positions = {_position(cell) for cell in cycle}
    if len(positions) > 1:
        return f"cycle is not homogeneous: positions {sorted(positions)}"
    if positions - {(p, q)}:
        return f"cycle sits at position {positions.pop()}, not the declared ({p}, {q})"
    if apply_boundary(cycle):
        return "the chain is not a cycle"
    for cell in cycle:
        if not K.has_face(cell.disks):
            return f"disc set {cell.disks} is not a face"
    return ""


def build_resolvent(K: SimplicialComplex, cycle: CellChain) -> Resolvent:
    """Construct a resolvent of the given cycle level by level.

    Zero coefficients are dropped and (p, q) is read from the cycle's
    cells.  The zero chain, which has no position, and a cycle that fails
    validate_resolvent's cycle check raise ValueError.  Level 0 splits the
    cycle by disc set.  Each next level distributes the entrywise boundary
    of the previous one: the boundary term that freed the disc at index i
    lands at the tuple extended by the smaller disc set, scaled by
    (-1)^(s - level).  The tower ends when no discs remain.
    """
    cycle = {cell: c for cell, c in cycle.items() if c}
    if not cycle:
        raise ValueError("the zero chain has no position")
    p, q = _position(next(iter(cycle)))
    problem = _cycle_problem(K, cycle, p, q)
    if problem:
        raise ValueError(problem)
    s = 2 * q - p

    level0 = CechChain(0)
    for cell, coeff in cycle.items():
        level0.add((cell.disks,), {cell: coeff})
    levels = [level0]

    for k in range(q - p):
        prev = levels[k]
        sign = -1 if (s - k) % 2 else 1
        nxt = CechChain(k + 1)
        for faces, chain in prev.entries.items():
            sigma = faces[0]
            for cell, coeff in chain.items():
                if cell.disks != sigma:
                    raise InvariantViolation(
                        f"level {k} entry at {faces} holds a cell with discs {cell.disks}")
            for term, c in apply_boundary(chain).items():
                nxt.add((term.disks,) + faces, {term: sign * c})
        levels.append(nxt)

    while len(levels) > 1 and levels[-1].is_zero():
        levels.pop()
    res = Resolvent(p, q, cycle, tuple(levels))
    ok, message = validate_resolvent(K, res)
    if not ok:
        raise InvariantViolation(f"constructed resolvent is inconsistent: {message}")
    return res


def validate_resolvent(K: SimplicialComplex, res: Resolvent) -> tuple:
    """Check every defining identity of a resolvent.

    Returns ``(True, "")`` when everything holds, otherwise
    ``(False, message)`` describing the first failing identity.

    Verified exactly: the cycle stored on the resolvent is a homogeneous
    chain at the declared position (p, q), boundaryless, with every disc
    set a face of K (the check build_resolvent makes); level 0 sums back
    to it; every stored tuple has its level's length, is in canonical
    order and is made of faces, with entry discs inside the smallest face
    of the tuple; and, level by level, the face-deletion of the next level
    minus (-1)^(s - level) times the entrywise boundary cancels to zero,
    the top level having nothing to delete, so its boundary vanishes.
    """
    p, q, s = res.p, res.q, res.total_degree
    problem = _cycle_problem(K, res.cycle, p, q)
    if problem:
        return False, problem
    if not res.levels:
        return False, "resolvent has no levels"

    for i, level in enumerate(res.levels):
        if level.t != i:
            return False, f"level {i} stored at tuple length {level.t + 1}"
        for faces, chain in level.entries.items():
            if len(faces) != i + 1:
                return False, f"level {i} stores the {len(faces)}-tuple {faces}"
            if canonical_tuple(faces) != (faces, 1):
                return False, f"tuple {faces} is not strictly ascending"
            meet = set(faces[0])
            for f in faces:
                if not K.has_face(f):
                    return False, f"tuple {faces} uses the non-face {f}"
                meet &= set(f)
            if not chain:
                return False, f"empty entry stored at {faces}"
            for cell, coeff in chain.items():
                if not coeff:
                    return False, f"zero coefficient stored at {faces}"
                if not set(cell.disks) <= meet:
                    return False, (f"entry at {faces} escapes its support: "
                                   f"discs {cell.disks}")
                if _position(cell) != (p + i, q):
                    return False, (f"entry at {faces} has a cell outside "
                                   f"position ({p + i}, {q})")

    if res.levels[0].augment() != res.cycle:
        return False, "level 0 does not sum to the cycle"
    top = len(res.levels) - 1
    for i, level in enumerate(res.levels):
        residue = res.levels[i + 1].delete_faces() if i < top else CechChain(i)
        for faces, chain in level.entries.items():
            residue.add(faces, apply_boundary(chain), 1 if (s - i) % 2 else -1)
        if not residue.is_zero():
            return False, ("top level still has a boundary" if i == top else
                           f"boundary of level {i} differs from the signed "
                           f"deletion of level {i + 1}")
    return True, ""
