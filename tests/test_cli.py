"""Tests for the command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from momentangle import cli
from momentangle.errors import InvariantViolation
from momentangle.linalg import HomologyResult
from test_simplicial import DEEP_NESTING, LONG_INTEGER, REPEATED_KEY

SQUARE = '{"n": 4, "facets": [[1,2],[2,3],[3,4],[1,4]]}'
TWO_POINTS = '{"n": 2, "facets": [[1],[2]]}'
BAD_VERTEX = '{"n": 2, "facets": [[1],[5]]}'


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture
def two_points_file(tmp_path):
    path = tmp_path / "cp2minus.json"
    path.write_text(TWO_POINTS)
    return str(path)


def test_betti_square_rows(square_file, capsys):
    assert cli.main(["betti", square_file, "--format", "tsv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p\tq\trank\ttorsion", "0\t0\t1\t", "1\t2\t2\t", "2\t4\t1\t"]


def test_betti_reads_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_POINTS))
    assert cli.main(["betti", "-", "--format", "tsv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1\t2\t1\t"


def test_bad_vertex_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_VERTEX)
    assert cli.main(["betti", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert cli.main(["betti", "/nonexistent/nowhere.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["betti", str(path)]) == 2


@pytest.mark.parametrize("text", [DEEP_NESTING, LONG_INTEGER, REPEATED_KEY],
                         ids=["deep-nesting", "long-integer", "repeated-key"])
def test_refused_json_exits_2(tmp_path, text, capsys):
    path = tmp_path / "refused.json"
    path.write_text(text)
    assert cli.main(["betti", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_hodge_json_schema(square_file, capsys):
    assert cli.main(["hodge", square_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"betti", "hodge"}
    assert payload["betti"][1] == {"p": 1, "q": 2, "rank": 2, "torsion": []}
    h3 = next(row for row in payload["hodge"] if row["s"] == 3)
    assert h3["F"]["2"] == 2 and h3["F"]["3"] == 0
    assert h3["W"]["3"] == 0 and h3["W"]["4"] == 2


def test_verify_three_engines_two_points(two_points_file, capsys):
    code = cli.main(["verify", two_points_file,
                     "--engines", "koszul,hochster,cech"])
    assert code == 0
    assert "ok: engines koszul, hochster, cech" in capsys.readouterr().out


def test_verify_three_engines_square(square_file):
    assert cli.main(["verify", square_file,
                     "--engines", "koszul,hochster,cech"]) == 0


def test_verify_unknown_engine_exits_2(two_points_file, capsys):
    assert cli.main(["verify", two_points_file, "--engines", "magic"]) == 2
    assert "unknown engine" in capsys.readouterr().err


def test_verify_empty_engines_exits_2(two_points_file):
    assert cli.main(["verify", two_points_file, "--engines", " , "]) == 2


@pytest.mark.parametrize("engines", ["cech", "koszul", "koszul,koszul"])
def test_verify_needs_two_engines(square_file, engines, capsys):
    assert cli.main(["verify", square_file, "--engines", engines]) == 2
    assert "at least two" in capsys.readouterr().err


def test_verify_hochster_cech_runs_no_koszul(square_file, monkeypatch, capsys):
    from momentangle import koszul

    calls = []
    real = koszul.koszul_cohomology

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(koszul, "koszul_cohomology", counted)
    monkeypatch.setattr(cli, "koszul_cohomology", counted)
    assert cli.main(["verify", square_file, "--engines", "hochster,cech"]) == 0
    assert "ok: engines hochster, cech agree" in capsys.readouterr().out
    assert calls == []
    # the wrappers do count: the default engines reach koszul
    assert cli.main(["verify", square_file]) == 0
    assert calls


def test_verify_negative_t_max_exits_2(square_file, capsys):
    assert cli.main(["verify", square_file, "--engines", "koszul,cech",
                     "--t-max", "-3"]) == 2
    assert "--t-max" in capsys.readouterr().err


def test_verify_t_max_needs_cech(square_file, capsys):
    assert cli.main(["verify", square_file, "--engines", "koszul,hochster",
                     "--t-max", "1"]) == 2
    assert "--t-max" in capsys.readouterr().err


@pytest.mark.parametrize("engines", ["koszul,hochster,cech", "hochster,cech"])
def test_verify_cech_reuses_worker_ranks(square_file, engines, monkeypatch,
                                         capsys):
    def explode(*args, **kwargs):
        raise AssertionError("verify recomputed a whole Betti table")

    monkeypatch.setattr(cli, "betti_table", explode)
    assert cli.main(["verify", square_file, "--engines", engines]) == 0
    assert capsys.readouterr().out.startswith("ok: engines")


@pytest.mark.parametrize("argv", [
    ["betti", "{input}", "--jobs", "2"],
    ["hodge", "{input}", "--jobs", "2"],
    ["verify", "{input}", "--format", "json"],
    ["resolvent", "{input}", "-p", "1", "-q", "2", "--ring", "Q"],
    ["resolvent", "{input}", "-p", "1", "-q", "2", "--jobs", "2"],
    ["resolvent", "{input}", "-p", "1", "-q", "2", "--format", "tsv"],
    ["periods", "{input}", "-p", "1", "-q", "2", "--ring", "Q"],
    ["periods", "{input}", "-p", "1", "-q", "2", "--jobs", "2"],
    ["scan", "-n", "2", "--exhaustive"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv if a != "{input}"))
def test_flags_a_subcommand_ignores_are_refused(square_file, argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([arg.format(input=square_file) for arg in argv])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_disagreement_exits_3(two_points_file, monkeypatch, capsys):
    real = cli.hochster_cohomology

    def skewed(K, p, q, ring="Z"):
        H = real(K, p, q, ring=ring)
        if (p, q) == (1, 2):
            return HomologyResult(H.rank + 1, H.torsion, H.representatives)
        return H

    monkeypatch.setattr(cli, "hochster_cohomology", skewed)
    assert cli.main(["verify", two_points_file]) == 3
    err = capsys.readouterr().err
    assert "bidegree (1, 2)" in err and "n=2; facets {1} {2}" in err


def test_internal_violation_exits_4(square_file, monkeypatch, capsys):
    def explode(K, ring="Z"):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "betti_table", explode)
    assert cli.main(["betti", square_file]) == 4
    assert "internal invariant violation" in capsys.readouterr().err


def test_other_value_error_is_internal_exits_4(square_file, monkeypatch, capsys):
    def explode(K, ring="Z"):
        raise ValueError("cannot compose 2x3 with 4x5")

    monkeypatch.setattr(cli, "betti_table", explode)
    assert cli.main(["betti", square_file]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "input error" not in err


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "facets": [], "note": "\xe9"}')
    assert cli.main(["betti", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_worker_pool_capped_at_cpu_count(monkeypatch, capsys):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, starts nothing."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, payloads):
            return [worker(payload) for payload in payloads]

    assert cli.main(["scan", "-n", "3"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    # 19 complexes on 3 vertices and far more jobs than CPUs
    assert cli.main(["scan", "-n", "3", "--jobs", "1000"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == [2]

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._run_parallel(abs, [-1, -2, -3], 1000) == [1, 2, 3]
    assert sizes == [2, 3]

    # an unknown CPU count means one process: no pool at all
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._run_parallel(abs, [-1, -2, -3], 1000) == [1, 2, 3]
    assert sizes == [2, 3]


def test_resolvent_output(two_points_file, capsys):
    assert cli.main(["resolvent", two_points_file, "-p", "1", "-q", "2",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 1
    cls = payload["classes"][0]
    assert cls["valid"] is True and cls["message"] == ""
    assert len(cls["levels"]) == 2
    assert cls["cycle"] == "+1*D[1]S[2] +1*D[2]S[1]"


def test_resolvent_validates_each_class_once(square_file, monkeypatch,
                                             capsys):
    from momentangle import cech

    calls = []
    real = cech.validate_resolvent

    def counted(K, res):
        calls.append(res.cycle)
        return real(K, res)

    monkeypatch.setattr(cech, "validate_resolvent", counted)
    # count a second binding in the CLI too, should one come back
    monkeypatch.setattr(cli, "validate_resolvent", counted, raising=False)
    assert cli.main(["resolvent", square_file, "-p", "1", "-q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("valid: yes") == 2
    assert len(calls) == 2 and calls[0] != calls[1]


def test_resolvent_empty_bidegree(two_points_file, capsys):
    assert cli.main(["resolvent", two_points_file, "-p", "0", "-q", "1"]) == 0
    assert "no homology classes" in capsys.readouterr().out


def test_resolvent_bad_bidegree_exits_2(two_points_file):
    assert cli.main(["resolvent", two_points_file, "-p", "2", "-q", "1"]) == 2


def test_periods_notes_unit(two_points_file, capsys):
    assert cli.main(["periods", two_points_file, "-p", "1", "-q", "2"]) == 0
    out = capsys.readouterr().out
    assert "(2 pi i)^2" in out


def test_periods_json_matrix(square_file, capsys):
    assert cli.main(["periods", square_file, "-p", "1", "-q", "2",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["power"] == 2
    values = sorted(v for row in payload["matrix"] for v in row)
    assert len(payload["matrix"]) == 2 and len(values) == 4
    assert values.count("0") == 2  # a unimodular pairing of two classes


def test_scan_exhaustive_n2(capsys):
    assert cli.main(["scan", "-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("n=2; facets {}")
    assert all("H^0:1" in line for line in lines)


def test_scan_json_lines(capsys):
    assert cli.main(["scan", "-n", "2", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [json.loads(line) for line in lines]
    assert len(payloads) == 5
    two = next(v for v in payloads if v["complex"] == "n=2; facets {1} {2}")
    assert {"s": 3, "dim": 1, "weights": {"4": 1}} in two["degrees"]


def test_scan_samples_reproducible(capsys):
    assert cli.main(["scan", "-n", "5", "--samples", "8", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["scan", "-n", "5", "--samples", "8", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 8


def test_scan_seed_needs_samples(capsys):
    assert cli.main(["scan", "-n", "2", "--seed", "5"]) == 2
    assert "--seed needs --samples" in capsys.readouterr().err


def test_scan_rejects_negative_samples(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "-n", "3", "--samples", "-5"])
    assert info.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_scan_large_n_needs_samples(capsys):
    assert cli.main(["scan", "-n", "9"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_output_identical_across_worker_counts(square_file):
    base = subprocess.run(
        [sys.executable, "-m", "momentangle", "scan", "-n", "3"],
        capture_output=True, text=True)
    multi = subprocess.run(
        [sys.executable, "-m", "momentangle", "scan", "-n", "3",
         "--jobs", "4"],
        capture_output=True, text=True)
    assert base.returncode == multi.returncode == 0
    assert base.stdout == multi.stdout and base.stdout

    one = subprocess.run(
        [sys.executable, "-m", "momentangle", "verify", square_file],
        capture_output=True, text=True)
    four = subprocess.run(
        [sys.executable, "-m", "momentangle", "verify", square_file,
         "--jobs", "4"],
        capture_output=True, text=True)
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout


def test_closed_output_pipe_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left before the child writes
    try:
        result = subprocess.run(
            [sys.executable, "-m", "momentangle", "scan", "-n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert "Traceback" not in result.stderr
