"""Simplicial complexes on the vertex set {1, ..., n}.

Faces are strictly increasing tuples of 1-based vertices; the empty face is
the empty tuple.  A complex stores every face explicitly (the families at
play here are tiny), is immutable after construction, and may have ghost
vertices: elements of {1, ..., n} that appear in no face but still index a
coordinate.

The constructor validates its faces (sorted, in range, downward closed).
A restriction K_J of a valid complex is valid too, so full_subcomplex fills
its result directly, without re-validating.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import combinations

from .errors import ParseError

Face = tuple  # strictly increasing tuple of ints in 1..n

MAX_ENUMERATION_VERTICES = 5


def face_key(face: Face):
    """Graded lexicographic sort key: by size, then lexicographically."""
    return (len(face), face)


def make_face(vertices: Iterable[int]) -> Face:
    """Canonicalize an iterable of vertices into a face tuple.

    Rejects duplicates; does not check the 1..n range (the complex does).
    """
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ParseError(f"duplicate vertex {a} in face {list(vertices)}")
    return vs


class SimplicialComplex:
    """A downward-closed family of faces on {1, ..., n}, containing ()."""

    __slots__ = ("n", "faces", "_sorted", "_by_size")

    def __init__(self, n: int, faces: Iterable[Face]):
        if n < 0:
            raise ParseError(f"vertex count must be nonnegative, got {n}")
        face_set = frozenset(faces)
        if () not in face_set:
            raise ParseError("the empty face must be a member")
        for f in face_set:
            if list(f) != sorted(set(f)):
                raise ParseError(f"face {f} is not strictly increasing")
            if f and (f[0] < 1 or f[-1] > n):
                raise ParseError(f"face {f} has a vertex outside 1..{n}")
        for f in face_set:
            if not f:
                continue
            for g in combinations(f, len(f) - 1):
                if g not in face_set:
                    raise ParseError(f"family is not downward closed: {g} missing under {f}")
        self._fill(n, sorted(face_set, key=face_key))

    def _fill(self, n: int, faces_sorted: list) -> None:
        """Set every field from a valid family listed in graded lexicographic order."""
        self.n = n
        self._sorted = tuple(faces_sorted)
        self.faces = frozenset(self._sorted)
        by_size: dict = {}
        for f in self._sorted:
            by_size.setdefault(len(f), []).append(f)
        self._by_size = {k: tuple(v) for k, v in by_size.items()}

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets, plus the empty face."""
        closure = {()}
        for facet in facets:
            f = make_face(facet)
            if f and (f[0] < 1 or f[-1] > n):
                raise ParseError(f"facet {list(facet)} has a vertex outside 1..{n}")
            for k in range(len(f) + 1):
                closure.update(combinations(f, k))
        return cls(n, closure)

    def faces_sorted(self) -> tuple:
        """All faces in graded lexicographic order."""
        return self._sorted

    def faces_of_size(self, k: int) -> tuple:
        return self._by_size.get(k, ())

    def has_face(self, face: Face) -> bool:
        return face in self.faces

    def dim(self) -> int:
        """Dimension of the complex; -1 for the complex {()}."""
        return max(len(f) for f in self.faces) - 1

    def facets(self) -> tuple:
        """Maximal faces, in graded lexicographic order: by downward closure,
        the faces that are no codimension-one face of a face."""
        covered = {h for g in self._sorted if g for h in combinations(g, len(g) - 1)}
        return tuple([f for f in self._sorted if f not in covered])

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.n, self.faces))

    def __repr__(self):
        facets = ",".join("{" + ",".join(map(str, f)) + "}" for f in self.facets())
        return f"SimplicialComplex(n={self.n}, facets=[{facets}])"


def _refuse_repeated_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key would silently drop a value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated key {key!r}")
        out[key] = value
    return out


def parse_complex(text: str) -> SimplicialComplex:
    """Parse a JSON object {"n": int, "facets": [[int, ...], ...]}.

    Returns the downward closure of the listed facets together with the
    empty face.  Raises ParseError on malformed input (including nesting
    too deep to parse, an integer too long to convert, and a repeated
    key), a key other than "n" and "facets", an out-of-range or repeated
    vertex, or negative n.
    """
    try:
        data = json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    for key in data:
        if key not in ("n", "facets"):
            raise ParseError(f'unknown key {key!r}; expected only "n" and "facets"')
    if "n" not in data:
        raise ParseError('missing required key "n"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    facets = data.get("facets", [])
    if not isinstance(facets, list):
        raise ParseError('"facets" must be a list of vertex lists')
    for facet in facets:
        if not isinstance(facet, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in facet
        ):
            raise ParseError(f"facet {facet!r} must be a list of integers")
        for v in facet:
            if v < 1 or v > n:
                raise ParseError(f"vertex {v} out of range 1..{n}")
    return SimplicialComplex.from_facets(n, facets)


def full_subcomplex(K: SimplicialComplex, J: Face) -> SimplicialComplex:
    """Restriction of K to the vertex subset J, re-indexed on 1..|J|.

    The result contains exactly the faces of K contained in J.  The
    relabelling is increasing, so it keeps graded lexicographic order, and
    a restriction of a valid complex is valid: the result is filled
    directly, without the constructor's checks.
    """
    J = make_face(J)
    if J and (J[0] < 1 or J[-1] > K.n):
        raise ParseError(f"subset {J} not contained in 1..{K.n}")
    relabel = {v: i + 1 for i, v in enumerate(J)}
    members = set(J)
    faces = [
        tuple([relabel[v] for v in f])
        for f in K.faces_sorted()
        if members.issuperset(f)
    ]
    L = SimplicialComplex.__new__(SimplicialComplex)
    L._fill(len(J), faces)
    return L


def enumerate_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Yield every simplicial complex on {1, ..., n} exactly once.

    Enumerates downward-closed families containing the empty face, i.e.
    nonempty antichains of facets, in a fixed depth-first order (the void
    family is never produced).  Supported for 1 <= n <= 5; the counts are
    the Dedekind numbers minus one.
    """
    if not 1 <= n <= MAX_ENUMERATION_VERTICES:
        raise ValueError(f"enumeration supported for 1 <= n <= {MAX_ENUMERATION_VERTICES}, got {n}")
    subsets = sorted(
        (f for k in range(1, n + 1) for f in combinations(range(1, n + 1), k)),
        key=face_key,
    )
    covers = [tuple(combinations(s, len(s) - 1)) for s in subsets]

    def rec(i: int, chosen: set) -> Iterator[SimplicialComplex]:
        if i == len(subsets):
            yield SimplicialComplex(n, chosen | {()})
            return
        yield from rec(i + 1, chosen)
        s = subsets[i]
        if all(c == () or c in chosen for c in covers[i]):
            yield from rec(i + 1, chosen | {s})

    yield from rec(0, set())
