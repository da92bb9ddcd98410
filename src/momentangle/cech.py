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

    def scaled(self, c) -> "CechChain":
        out = CechChain(self.t)
        for faces, chain in self.entries.items():
            out.add(faces, chain, c)
        return out

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


def _homogeneous_position(cycle: CellChain):
    positions = {(len(c.circles), len(c.circles) + len(c.disks)) for c in cycle}
    if len(positions) != 1:
        raise ValueError(f"cycle is not homogeneous: positions {sorted(positions)}")
    return positions.pop()


def build_resolvent(K: SimplicialComplex, cycle: CellChain,
                    p: int = None, q: int = None) -> Resolvent:
    """Construct a resolvent of the given cycle level by level.

    Level 0 splits the cycle by disc set.  Each next level distributes the
    entrywise boundary of the previous one: the boundary term that freed
    the disc at index i lands at the tuple extended by the smaller disc
    set, scaled by (-1)^(s - level).  The tower ends when no discs remain.
    A position (p, q) given with a nonempty cycle must be the cycle's own.
    """
    if cycle:
        position = _homogeneous_position(cycle)
        if any(given is not None and given != found
               for given, found in zip((p, q), position)):
            raise ValueError(f"cycle sits at position {position}, "
                             f"not the given ({p}, {q})")
        p, q = position
    elif p is None or q is None:
        raise ValueError("empty cycle needs an explicit position (p, q)")
    if apply_boundary(cycle):
        raise ValueError("chain is not a cycle")
    s = 2 * q - p

    level0 = CechChain(0)
    for cell, coeff in cycle.items():
        if not K.has_face(cell.disks):
            raise ValueError(f"disc set {cell.disks} is not a face")
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
    res = Resolvent(p, q, dict(cycle), tuple(levels))
    ok, message = validate_resolvent(K, res)
    if not ok:
        raise InvariantViolation(f"constructed resolvent is inconsistent: {message}")
    return res


def validate_resolvent(K: SimplicialComplex, res: Resolvent) -> tuple:
    """Check every defining identity of a resolvent.

    Returns ``(True, "")`` when everything holds, otherwise
    ``(False, message)`` describing the first failing identity.

    Verified exactly: the cycle is a homogeneous boundaryless chain in
    position (p, q); level 0 sums back to it; every stored tuple has its
    level's length, is strictly ascending and is made of faces, with entry
    discs inside the smallest face of the tuple; each level's entrywise
    boundary equals (-1)^(s - level) times the face-deletion of the next
    level; and the last level's entrywise boundary vanishes.  The cycle
    checked is the one stored on the resolvent.
    """
    p, q, s = res.p, res.q, res.total_degree
    cycle = res.cycle
    if cycle:
        try:
            position = _homogeneous_position(cycle)
        except ValueError as exc:
            return False, str(exc)
        if position != (p, q):
            return False, (f"cycle sits at position {position}, "
                           f"not the declared ({p}, {q})")
    if apply_boundary(cycle):
        return False, "the chain is not a cycle"
    if not res.levels:
        return False, "resolvent has no levels"

    for i, level in enumerate(res.levels):
        if level.t != i:
            return False, f"level {i} stored at tuple length {level.t + 1}"
        for faces, chain in level.entries.items():
            if len(faces) != i + 1:
                return False, f"level {i} stores the {len(faces)}-tuple {faces}"
            for a, b in zip(faces, faces[1:]):
                if face_key(a) >= face_key(b):
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
                if (len(cell.circles), len(cell.disks) + len(cell.circles)) != (p + i, q):
                    return False, (f"entry at {faces} has a cell outside "
                                   f"position ({p + i}, {q})")

    if res.levels[0].augment() != cycle:
        return False, "level 0 does not sum to the cycle"
    for i in range(len(res.levels) - 1):
        expected = res.levels[i + 1].delete_faces().scaled(1 if (s - i) % 2 == 0 else -1)
        if res.levels[i].boundary() != expected:
            return False, (f"boundary of level {i} differs from the signed "
                           f"deletion of level {i + 1}")
    if not res.levels[-1].boundary().is_zero():
        return False, "top level still has a boundary"
    return True, ""
