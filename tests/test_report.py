"""Tests for Betti tables, filtration dimensions, and report rendering."""

import json

import pytest

from momentangle.report import (
    BettiTable,
    betti_table,
    describe_complex,
    filtration_dims,
    hodge_report,
    mixed_hodge_numbers,
    render_betti,
    render_report,
    report_payload,
)
from momentangle.simplicial import SimplicialComplex, enumerate_complexes


def punctured_line():
    return SimplicialComplex(1, {()})


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def square():
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def projective_plane_six():
    return SimplicialComplex.from_facets(6, [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
        [2, 3, 5], [3, 5, 6], [3, 4, 6], [2, 4, 6], [2, 4, 5],
    ])


def test_betti_table_two_points():
    bt = betti_table(two_points())
    assert bt.entries == {(0, 0): (1, ()), (1, 2): (1, ())}
    assert bt.total_degrees() == [0, 3]
    assert bt.total_dim(3) == 1
    assert bt.rank(1, 2) == 1 and bt.torsion(1, 2) == ()


def test_engines_agree_on_square():
    assert betti_table(square()).entries == \
        betti_table(square(), engine="hochster").entries


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        betti_table(two_points(), engine="morse")


def test_describe_complex_is_deterministic():
    text = describe_complex(square())
    assert text == "n=4; facets {1,2} {1,4} {2,3} {3,4}"
    assert describe_complex(punctured_line()) == "n=1; facets {}"


def test_filtrations_punctured_plane():
    bt = betti_table(two_points())
    F, W = filtration_dims(bt, 3)
    assert F[0] == F[1] == F[2] == 1
    assert F[3] == 0
    assert W[3] == 0
    assert W[4] == 1


def test_filtrations_punctured_line():
    bt = betti_table(punctured_line())
    assert bt.entries == {(0, 0): (1, ()), (1, 1): (1, ())}
    F, W = filtration_dims(bt, 1)
    assert F[1] == 1
    assert F[2] == 0
    assert W[1] == 0
    assert W[2] == 1


def test_filtrations_full_simplex_vanish_positively():
    K = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    bt = betti_table(K)
    assert bt.entries == {(0, 0): (1, ())}
    for s in (1, 2, 3, 4):
        F, W = filtration_dims(bt, s)
        assert all(v == 0 for v in F.values())
        assert all(v == 0 for v in W.values())


def test_mixed_hodge_numbers():
    assert mixed_hodge_numbers(betti_table(two_points())) == {
        (0, 0): 1, (3, 2): 1}
    assert mixed_hodge_numbers(betti_table(square())) == {
        (0, 0): 1, (3, 2): 2, (6, 4): 1}
    full = SimplicialComplex.from_facets(2, [[1, 2]])
    assert mixed_hodge_numbers(betti_table(full)) == {(0, 0): 1}


def test_filtration_structure_across_n3():
    # telescoping, monotonicity, and even-weight jumps on every 3-vertex complex
    for K in enumerate_complexes(3):
        bt = betti_table(K)
        for s in bt.total_degrees():
            F, W = filtration_dims(bt, s)
            dim = bt.total_dim(s)
            assert F[0] == dim
            assert F[s + 1] == 0
            for k in range(0, s + 1):
                assert F[k] >= F[k + 1]
            assert W[s - 1] == 0 if s > 0 else True
            assert W[2 * s] == dim
            for r in range(s, 2 * s + 1):
                assert W[r] >= W[r - 1]
                if r % 2:  # odd weights never jump: Tate type only
                    assert W[r] == W[r - 1]


def test_hodge_report_rows():
    hr = hodge_report(betti_table(square()))
    assert [row.s for row in hr.degrees] == [0, 3, 6]
    assert [row.dim for row in hr.degrees] == [1, 2, 1]
    assert hr.degrees[1].h == {2: 2}
    assert hr.degrees[2].h == {4: 1}


def test_json_round_trip():
    bt = betti_table(square())
    text = render_report(bt, format="json")
    payload = json.loads(text)
    assert payload == report_payload(bt)
    assert payload["betti"] == [
        {"p": 0, "q": 0, "rank": 1, "torsion": []},
        {"p": 1, "q": 2, "rank": 2, "torsion": []},
        {"p": 2, "q": 4, "rank": 1, "torsion": []},
    ]
    h3 = next(row for row in payload["hodge"] if row["s"] == 3)
    assert h3["F"] == {"0": 2, "1": 2, "2": 2, "3": 0, "4": 0}
    assert h3["W"] == {"2": 0, "3": 0, "4": 2, "5": 2, "6": 2}
    assert h3["h"] == {"2": 2}


def test_betti_json_builds_no_hodge_report(monkeypatch):
    from momentangle import report

    bt = betti_table(square())
    want = render_betti(bt, "json")
    assert json.loads(want) == {"betti": report_payload(bt)["betti"]}

    def explode(bt):
        raise AssertionError("render_betti built a Hodge report")

    monkeypatch.setattr(report, "hodge_report", explode)
    assert render_betti(bt, "json") == want


def test_json_records_torsion_chain():
    bt = betti_table(projective_plane_six())
    payload = json.loads(render_report(bt, format="json"))
    torsion_rows = [row for row in payload["betti"] if row["torsion"]]
    assert torsion_rows == [{"p": 3, "q": 6, "rank": 0, "torsion": [2]}]


def test_tsv_square_has_four_betti_rows():
    text = render_report(betti_table(square()), format="tsv")
    betti_block = text.split("\n\n")[0].splitlines()
    assert len(betti_block) == 4
    assert betti_block[0] == "p\tq\trank\ttorsion"
    assert betti_block[1:] == ["0\t0\t1\t", "1\t2\t2\t", "2\t4\t1\t"]


def test_tsv_trivial_table_keeps_origin_row():
    K = SimplicialComplex.from_facets(2, [[1, 2]])
    text = render_report(betti_table(K), format="tsv")
    betti_block = text.split("\n\n")[0].splitlines()
    assert betti_block == ["p\tq\trank\ttorsion", "0\t0\t1\t"]


def test_pretty_mentions_description_and_torsion():
    text = render_report(betti_table(projective_plane_six()), format="pretty")
    assert "n=6" in text.splitlines()[0]
    assert any("2" in line and "3" in line for line in text.splitlines())
    assert "H^5: dim 10" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(betti_table(two_points()), format="yaml")


def test_rendering_is_deterministic():
    for fmt in ("json", "tsv", "pretty"):
        a = render_report(betti_table(square()), format=fmt)
        b = render_report(betti_table(square()), format=fmt)
        assert a == b
