"""Each demo prints exactly its recorded output in demos/expected/."""

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
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
    assert run.stdout == want
