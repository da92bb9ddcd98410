"""Recorded stdout and exit codes of a fixed list of CLI invocations.

Each invocation's expected output lives in tests/expected/cli/<name>.txt:
a first line ``exit <code>`` followed by the exact stdout.  To record
them again after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from momentangle import cli

EXPECTED = Path(__file__).resolve().parent / "expected" / "cli"

COMPLEXES = {
    "square": '{"n": 4, "facets": [[1,2],[2,3],[3,4],[1,4]]}',
    "two": '{"n": 2, "facets": [[1],[2]]}',
    "pentagon": '{"n": 5, "facets": [[1,2],[2,3],[3,4],[4,5],[1,5]]}',
}

# name -> argv; "{square}" and the like stand for the complex files
INVOCATIONS = {
    "betti_square": ["betti", "{square}"],
    "betti_square_json": ["betti", "{square}", "--format", "json"],
    "betti_square_tsv": ["betti", "{square}", "--format", "tsv"],
    "betti_two_ring_q": ["betti", "{two}", "--ring", "Q"],
    "hodge_square": ["hodge", "{square}"],
    "hodge_square_json": ["hodge", "{square}", "--format", "json"],
    "hodge_pentagon_tsv_ring_q": ["hodge", "{pentagon}", "--format", "tsv",
                                  "--ring", "Q"],
    "verify_square": ["verify", "{square}"],
    "verify_square_jobs2_ring_q": ["verify", "{square}", "--jobs", "2",
                                   "--ring", "Q"],
    "verify_two_cech": ["verify", "{two}", "--engines",
                        "koszul,hochster,cech"],
    "verify_pentagon_cech": ["verify", "{pentagon}", "--engines",
                             "koszul,hochster,cech"],
    "verify_square_hochster_cech": ["verify", "{square}", "--engines",
                                    "hochster,cech"],
    "verify_square_cech_t_max": ["verify", "{square}", "--engines",
                                 "koszul,cech", "--t-max", "1"],
    "resolvent_two": ["resolvent", "{two}", "-p", "1", "-q", "2"],
    "resolvent_square_json": ["resolvent", "{square}", "-p", "1", "-q", "2",
                              "--format", "json"],
    "resolvent_pentagon_empty": ["resolvent", "{pentagon}", "-p", "0",
                                 "-q", "1"],
    "periods_square": ["periods", "{square}", "-p", "1", "-q", "2"],
    "periods_square_json": ["periods", "{square}", "-p", "1", "-q", "2",
                            "--format", "json"],
    "periods_two_tsv": ["periods", "{two}", "-p", "1", "-q", "2",
                        "--format", "tsv"],
    "periods_bad_bidegree": ["periods", "{two}", "-p", "2", "-q", "1"],
    "scan_n2": ["scan", "-n", "2"],
    "scan_n2_json": ["scan", "-n", "2", "--format", "json"],
    "scan_n3_tsv_jobs2": ["scan", "-n", "3", "--format", "tsv", "--jobs", "2"],
    "scan_samples_ring_q": ["scan", "-n", "4", "--samples", "5", "--seed", "3",
                            "--ring", "Q"],
}


def run_invocation(argv: list, directory: Path) -> str:
    """Exit line plus stdout of ``cli.main`` on argv, inputs in directory."""
    paths = {}
    for name, text in COMPLEXES.items():
        path = directory / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    args = [arg.format(**paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return f"exit {code}\n" + out.getvalue()


def test_every_invocation_has_expected_output():
    recorded = sorted(p.stem for p in EXPECTED.glob("*.txt"))
    assert recorded == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_unchanged(name, tmp_path):
    want = (EXPECTED / f"{name}.txt").read_text()
    assert run_invocation(INVOCATIONS[name], tmp_path) == want


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(name for name in INVOCATIONS if name.startswith("scan")))
def test_scan_output_unchanged_at_either_worker_count(name, jobs, tmp_path):
    argv = INVOCATIONS[name]
    if "--jobs" in argv:
        at = argv.index("--jobs")
        argv = argv[:at] + argv[at + 2:]
    want = (EXPECTED / f"{name}.txt").read_text()
    assert run_invocation(argv + ["--jobs", jobs], tmp_path) == want


if __name__ == "__main__":
    EXPECTED.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in INVOCATIONS.items():
            text = run_invocation(argv, Path(scratch))
            (EXPECTED / f"{name}.txt").write_text(text)
            print(f"{name}: {text.splitlines()[0]}", file=sys.stderr)
