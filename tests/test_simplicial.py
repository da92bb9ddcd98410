"""Tests for simplicial complex construction, parsing, and enumeration."""

from itertools import combinations

import pytest

from momentangle.errors import ParseError
from momentangle.simplicial import (
    SimplicialComplex,
    enumerate_complexes,
    face_key,
    full_subcomplex,
    parse_complex,
)


def square_boundary():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def test_face_key_orders_by_size_then_lex():
    faces = [(2,), (1, 3), (), (1, 2), (3,), (1,)]
    assert sorted(faces, key=face_key) == [(), (1,), (2,), (3,), (1, 2), (1, 3)]


def test_from_facets_closes_downward():
    K = SimplicialComplex.from_facets(2, [[1], [2]])
    assert K.faces == {(), (1,), (2,)}


def test_square_boundary_has_nine_faces():
    K = square_boundary()
    assert len(K.faces) == 9
    assert K.faces_sorted() == (
        (), (1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 3), (3, 4),
    )
    assert K.dim() == 1
    assert K.facets() == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_ghost_vertices_are_allowed():
    K = SimplicialComplex.from_facets(3, [[1]])
    assert K.n == 3
    assert K.faces == {(), (1,)}


def test_missing_empty_face_rejected():
    with pytest.raises(ParseError):
        SimplicialComplex(2, [(1,)])


def test_not_downward_closed_rejected():
    with pytest.raises(ParseError):
        SimplicialComplex(2, [(), (1, 2)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(ParseError):
        SimplicialComplex.from_facets(2, [[1, 3]])


def test_empty_complex_on_one_vertex():
    K = SimplicialComplex(1, [()])
    assert K.dim() == -1
    assert K.facets() == ((),)


def test_parse_complex_round_trip():
    K = parse_complex('{"n": 4, "facets": [[1,2],[2,3],[3,4],[1,4]]}')
    assert K == square_boundary()


def test_parse_complex_no_facets_key():
    K = parse_complex('{"n": 2}')
    assert K.faces == {()}


def test_parse_complex_rejects_unknown_key():
    # a misspelled "facets" must not read as n ghost vertices
    with pytest.raises(ParseError, match="'facet'"):
        parse_complex('{"n": 4, "facet": [[1, 2]]}')
    with pytest.raises(ParseError, match="'note'"):
        parse_complex('{"n": 2, "facets": [[1]], "note": "x"}')


def test_parse_complex_bad_json():
    with pytest.raises(ParseError):
        parse_complex("{not json")


DEEP_NESTING = '{"n": 2, "facets": ' + "[" * 100000 + "]" * 100000 + "}"
LONG_INTEGER = '{"n": ' + "9" * 5000 + "}"
REPEATED_KEY = '{"n": 3, "facets": [[1, 2]], "n": 2}'


@pytest.mark.parametrize("text", [DEEP_NESTING, LONG_INTEGER],
                         ids=["deep-nesting", "long-integer"])
def test_parse_complex_refuses_json_the_decoder_cannot_hold(text):
    # the decoder raises RecursionError and a plain ValueError on these
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_complex(text)


def test_parse_complex_refuses_repeated_keys():
    # json.loads would keep the last value and drop the others silently
    with pytest.raises(ParseError, match="repeated key 'n'"):
        parse_complex(REPEATED_KEY)
    with pytest.raises(ParseError, match="repeated key 'facets'"):
        parse_complex('{"n": 3, "facets": [[1, 2]], "facets": [[3]]}')


def test_parse_complex_bad_types():
    with pytest.raises(ParseError):
        parse_complex('[1, 2]')
    with pytest.raises(ParseError):
        parse_complex('{"facets": []}')
    with pytest.raises(ParseError):
        parse_complex('{"n": "two", "facets": []}')
    with pytest.raises(ParseError):
        parse_complex('{"n": 2, "facets": [[1, "a"]]}')


def test_parse_complex_vertex_out_of_range():
    with pytest.raises(ParseError):
        parse_complex('{"n": 2, "facets": [[1, 3]]}')
    with pytest.raises(ParseError):
        parse_complex('{"n": 2, "facets": [[0]]}')


def test_parse_complex_duplicate_vertex():
    with pytest.raises(ParseError):
        parse_complex('{"n": 2, "facets": [[1, 1]]}')


def test_full_subcomplex_square_opposite_corners():
    # Opposite corners of the square boundary induce two isolated points.
    K = square_boundary()
    L = full_subcomplex(K, (1, 3))
    assert L.n == 2
    assert L.faces == {(), (1,), (2,)}


def test_full_subcomplex_square_edge():
    K = square_boundary()
    L = full_subcomplex(K, (1, 2))
    assert L.faces == {(), (1,), (2,), (1, 2)}


def test_full_subcomplex_empty_subset():
    K = square_boundary()
    L = full_subcomplex(K, ())
    assert L.n == 0
    assert L.faces == {()}


def test_full_subcomplex_matches_validating_constructor():
    # full_subcomplex skips the constructor's checks and its sort, so every
    # restriction must equal what the validating constructor builds, in the
    # same graded lexicographic order
    for K in enumerate_complexes(4):
        for size in range(K.n + 1):
            for J in combinations(range(1, K.n + 1), size):
                L = full_subcomplex(K, J)
                relabel = {v: i + 1 for i, v in enumerate(J)}
                want = SimplicialComplex(size, [
                    tuple(relabel[v] for v in f) for f in K.faces if set(f) <= set(J)])
                assert L == want and L.n == size and hash(L) == hash(want)
                assert L.faces_sorted() == want.faces_sorted()
                for k in range(size + 2):
                    assert L.faces_of_size(k) == want.faces_of_size(k), (K, J, k)
                assert L.facets() == want.facets()


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_complexes(1)) == 2
    assert sum(1 for _ in enumerate_complexes(2)) == 5
    assert sum(1 for _ in enumerate_complexes(3)) == 19
    assert sum(1 for _ in enumerate_complexes(4)) == 167


def test_enumeration_distinct_and_valid():
    seen = set()
    for K in enumerate_complexes(3):
        assert K.n == 3
        key = frozenset(K.faces)
        assert key not in seen
        seen.add(key)


def test_enumeration_first_is_empty_complex():
    first = next(enumerate_complexes(2))
    assert first.faces == {()}


def test_enumeration_deterministic():
    a = [K.faces_sorted() for K in enumerate_complexes(3)]
    b = [K.faces_sorted() for K in enumerate_complexes(3)]
    assert a == b


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_complexes(0))
    with pytest.raises(ValueError):
        list(enumerate_complexes(6))


def test_complex_pickles_whole():
    # worker processes receive complexes as they are, without rebuilding
    import pickle

    K = square_boundary()
    copy = pickle.loads(pickle.dumps(K))
    assert copy == K
    assert copy.faces_sorted() == K.faces_sorted()
    assert copy._by_size == K._by_size
