"""Tests of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int) -> dict:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_traced_layers_stay_on_their_workloads():
    calls = {}
    for name in NAMES:
        result = smoke(name, 1)
        m = calls[name] = {k: v["value"] for k, v in result["metrics"].items()}
        # the gate runs untraced, so only the ops' own calls are counted
        assert m["simplicial.parse_complex.calls"] == result["attempted"]
        assert (m["hochster.reduced_cohomology.calls"] > 0) == (name == "oracle-Q")
        assert (m["linalg.nullspace_rational.calls"] > 0) == (name == "periods")
        assert (m["logforms.block_tuples.calls"] > 0) == (name == "periods")
    assert calls["table-Z"]["linalg.rank.calls"] == 0
    assert calls["oracle-Q"]["linalg.smith_with_transforms.calls"] == 0


def test_selfcheck_two_traced_runs_agree():
    proc = run("--selfcheck", "--smoke", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_periods_inputs_respect_the_face_cap():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from momentangle import parse_complex
    from workloads import PERIODS_FACE_CAP, WORKLOADS, Deck

    deck = Deck(WORKLOADS["periods"].strata, seed=5)
    for _ in range(60):
        assert len(parse_complex(deck.next()).faces) <= PERIODS_FACE_CAP


def test_scan_small_inputs_have_their_slot_face_counts():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS, Deck, ScanSlot, face_count

    strata = WORKLOADS["scan-small"].strata
    counts = [s.faces for s in strata if isinstance(s, ScanSlot)]
    # the trivial complex and the full simplex come up, as in `momentangle scan`
    assert 1 in counts and 32 in counts
    deck = Deck(strata, seed=5)
    for stratum in strata:
        complex_ = json.loads(deck.next())
        if isinstance(stratum, ScanSlot):
            assert face_count(complex_) == stratum.faces
