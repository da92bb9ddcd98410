"""The benchmark's trace targets name functions that exist in the package.

bench/tracer.py wraps each (home module, attribute path) of its TARGETS
table; a rename or deletion in the package would otherwise surface only
when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    module_name, path = TARGETS[name][:2]
    obj = importlib.import_module(module_name)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{name}: {module_name}.{path} is missing"
        obj = getattr(obj, attr)
    assert callable(obj)
