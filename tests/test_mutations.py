"""Mutation catalogue: each entry breaks the package in one known way, and
the tests it names must catch it.

An entry is (name, file under src/momentangle, exact old text, new text,
pytest targets).  The runner copies src/ to a temporary directory, replaces
the old text there, which must occur exactly once, and runs the targets in a
subprocess with PYTHONPATH set to the copy.  pytest must exit 1 (tests
failed), not 2, 4 or 5 (interrupted, usage error, nothing collected).

A mutant that survives calls for a stronger test, never for dropping the
mutant.  When a change moves an entry's old text, re-anchor the entry on
the new code.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a window keyed on its (d + 1)-faces alone: the filled triangle shares
    # the hollow one's solve
    ("hochster-key-without-up", "hochster.py",
     "key = (tuple(mid), tuple(up))",
     "key = tuple(mid)",
     ["tests/test_hochster.py::test_shared_solves_key_on_the_faces_one_size_up"]),
    # a cone mask without the face's own vertices: a maximal (d + 1)-face
    # then rules out every apex, and cones are solved
    ("hochster-cone-mask-without-own-vertices", "hochster.py",
     "cone = {mask: mask for mask, _ in mids}",
     "cone = {mask: 0 for mask, _ in mids}",
     ["tests/test_hochster.py::test_skipped_windows_are_acyclic"]),
    # B's level t - 2 without the deletions of the last face
    ("cech-deletions-skip-last", "logforms.py",
     "for T in mid for j in range(len(T))",
     "for T in mid for j in range(len(T) - 1)",
     ["tests/test_logforms.py::test_low_slot_is_the_deletions_of_the_middle"]),
    # the deletion of the first face with the wrong sign, so d o d != 0
    ("cech-coboundary-first-slot-sign", "logforms.py",
     "row[col] = -1 if j % 2 else 1",
     "row[col] = -1 if j % 2 or not j else 1",
     ["tests/test_logforms.py::test_log_cohomology_basis_two_points"]),
    # a tuple with a repeated face taken for an ascending one
    ("canonical-tuple-ascending-le", "cech.py",
     "if all(a < b for a, b in zip(keys, keys[1:])):",
     "if all(a <= b for a, b in zip(keys, keys[1:])):",
     ["tests/test_cech.py::test_canonical_tuple_sorts_and_signs"]),
    # the Koszul table solving each middle block with its incoming maps
    # read from the outgoing ones, and the other way round
    ("koszul-table-neighbours-swapped", "koszul.py",
     "_solve(groups[p], d_out, d_in, ring,",
     "_solve(groups[p], d_in, d_out, ring,",
     ["tests/test_koszul.py::test_table_equals_its_bidegrees"]),
    # the Koszul table's carried maps never handed up: every p of a q is
    # solved with the outgoing maps of its lowest p
    ("koszul-table-carried-maps-not-handed-up", "koszul.py",
     "            d_out = d_in\n",
     "",
     ["tests/test_koszul.py::test_table_equals_its_bidegrees"]),
    # the Koszul block builder without the sign alternation: every term of
    # a differential gets the sign of the lowest exterior index
    ("koszul-mask-sign-not-alternating", "koszul.py",
     "            sign = -sign\n",
     "            sign = 1\n",
     ["tests/test_koszul.py::test_mask_blocks_equal_the_tuple_definition"]),
    # a term outside its target block dropped instead of raised
    ("koszul-block-exit-skipped", "koszul.py",
     "                if i is None:\n                    raise InvariantViolation(",
     "                if i is None:\n                    continue\n                    raise InvariantViolation(",
     ["tests/test_koszul.py::test_differential_leaving_its_block_is_caught"]),
    # the Koszul mask basis without its disjointness filter: exterior sets
    # that meet their face make monomials that do not exist
    ("koszul-basis-not-disjoint", "koszul.py",
     "for f in faces if not e & f]",
     "for f in faces]",
     ["tests/test_koszul.py::test_mask_blocks_equal_the_tuple_definition"]),
    # the Koszul mask basis with its exterior sets in reverse order: the
    # same monomials, out of koszul_basis order, so the Smith transforms
    # and every representative change
    ("koszul-basis-exteriors-reversed", "koszul.py",
     "combinations(bits, p)",
     "combinations(bits[::-1], p)",
     ["tests/test_koszul.py::test_cohomology_of_larger_blocks_is_pinned"]),
    # each resolvent level's boundary added with the opposite sign, so a
    # valid ladder no longer cancels
    ("resolvent-residue-sign", "cech.py",
     "apply_boundary(chain), 1 if (s - i) % 2 else -1)",
     "apply_boundary(chain), -1 if (s - i) % 2 else 1)",
     ["tests/test_cech.py::test_square_ladder_is_valid"]),
    # a cycle whose disc sets are not faces of K taken for a cycle of K
    ("cycle-problem-without-disc-face-check", "cech.py",
     "if not K.has_face(cell.disks):",
     "if False:",
     ["tests/test_cech.py::test_validate_reports_each_failure[non-face-disc-set]"]),
    # every invariant factor other than 1 doubled by the Smith elimination
    ("smith-non-unit-factors-doubled", "linalg.py",
     "factors = [A[i][i] for i in range(min(m, n)) if A[i][i]]",
     "factors = [A[i][i] if A[i][i] == 1 else 2 * A[i][i] for i in range(min(m, n)) if A[i][i]]",
     ["tests/test_witnesses.py::test_rank_mod_counts_the_invariant_factors_prime_to_ell"]),
]


@pytest.mark.parametrize("name, path, old, new, targets", MUTANTS,
                         ids=[mutant[0] for mutant in MUTANTS])
def test_mutant_is_killed(name, path, old, new, targets, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "momentangle" / path
    text = module.read_text()
    if text.count(old) != 1:
        pytest.fail(f"mutant {name}: its old text occurs {text.count(old)} times "
                    f"in {path}, not once; re-anchor it")
    module.write_text(text.replace(old, new))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True, text=True)
    assert result.returncode == 1, (
        f"mutant {name} survived: pytest exited {result.returncode}\n{result.stdout[-2000:]}")
