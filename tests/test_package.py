"""The package's export list matches what it binds, and its engines stay apart."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import momentangle

PACKAGE = Path(momentangle.__file__).resolve().parent


def test_all_lists_exactly_the_public_names():
    names = momentangle.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(momentangle, name, None) is not None, name
    public = {name for name, value in vars(momentangle).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def package_imports(module: str) -> set:
    """Names of the package modules that one module's source imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "momentangle" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.startswith("momentangle"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:  # from . import x, from momentangle import x
                found.update(alias.name for alias in node.names)
    return found


# disagreement between engines is a bug only if no engine borrows another's
# construction
@pytest.mark.parametrize("module, others", [
    ("koszul", {"hochster", "logforms", "cells"}),
    ("hochster", {"koszul", "cech", "logforms"}),
    ("logforms", {"koszul", "hochster"}),
    ("cells", {"koszul", "hochster", "logforms"}),
    ("cech", {"koszul", "hochster", "logforms"}),
])
def test_engines_import_no_other_engine(module, others):
    assert not package_imports(module) & others


FOOTPRINT = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import momentangle
print(" ".join(sorted(set(sys.modules) - before)))
import momentangle.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_inspect_or_multiprocessing():
    """A one-table run pays only for what it uses at start-up."""
    run = subprocess.run([sys.executable, "-I", "-c", FOOTPRINT, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    package, cli = (set(line.split()) for line in run.stdout.splitlines())
    assert "momentangle.report" in package and "momentangle.cli" in cli
    for added in (package, cli):
        heavy = {name for name in added
                 if name.partition(".")[0] in {"dataclasses", "inspect", "multiprocessing"}}
        assert not heavy, heavy


def test_import_loads_no_typing():
    """Annotations are never evaluated, so nothing needs `typing`; without
    `site` (-S), which may load it itself, the package and the CLI do not."""
    run = subprocess.run([sys.executable, "-I", "-S", "-c", FOOTPRINT, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    package, cli = (set(line.split()) for line in run.stdout.splitlines())
    assert "momentangle.report" in package and "momentangle.cli" in cli
    assert "typing" not in package | cli
