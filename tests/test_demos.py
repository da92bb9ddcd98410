"""Each demo prints exactly its recorded output in demos/expected/, warning-free."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -W error: the subprocess is out of reach of pytest's warning filter
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                         text=True, env=env, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
    assert run.stdout == want
