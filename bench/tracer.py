"""Span recorder that wraps the package's public functions, layer by layer.

Tracing lives entirely in the benchmark: ``install`` replaces each listed
function with a wrapper in its home module *and* in every other
``momentangle`` module that re-bound it with ``from .x import y`` (those
bindings are separate names, so patching only the home module would miss
the internal calls).  Methods are patched on their class.  While the
recorder is inactive the wrappers call straight through, which is how the
correctness gate runs untraced in a traced process.

A span is ``[name, start, end, parent index, op id]``; spans stay in memory
and are written out once, at the end.  Self time is a span's duration minus
the time its direct children cover (one thread, so children never overlap).
Counters are updated at the same wrappers, after the span has closed.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter


def _ring(args, kwargs):
    return kwargs.get("ring", args[2] if len(args) > 2 else "Z")


def _count_homology_of_pair(stats, args, kwargs, result):
    # the dense V1inv * d_in coordinate change exists on the Z path only
    if _ring(args, kwargs) == "Z":
        d_in = args[0]
        stats["dense_entries"] += d_in.nrows * d_in.ncols


def _count_dense(stats, args, kwargs, result):
    M = args[0]
    stats["entries"] += M.nrows * M.ncols


def _count_rank(stats, args, kwargs, result):
    stats["nnz"] += args[0].nnz()


def _count_differential(stats, args, kwargs, result):
    stats["basis_total"] += result.nrows + result.ncols


def _count_nonzero(stats, args, kwargs, result):
    if result.rank or result.torsion:
        stats["nonzero"] += 1


def _count_block_tuples(stats, args, kwargs, result):
    K, t = args[0], args[2]
    stats["tuples"] += len(result)
    if t >= 0:
        stats["candidates"] += comb(len(K.faces_sorted()), t + 1)


# metric prefix -> (home module, attribute path, counter, counter keys);
# a key in REPORTED becomes a metric of its own, the rest feed ratios
TARGETS = {
    "simplicial.parse_complex": ("momentangle.simplicial", "parse_complex", None, ()),
    "simplicial.complex_init": ("momentangle.simplicial", "SimplicialComplex.__init__", None, ()),
    "hochster.full_subcomplex": ("momentangle.simplicial", "full_subcomplex", None, ()),
    "linalg.matmul": ("momentangle.linalg", "IntMatrix.matmul", None, ()),
    "linalg.rank": ("momentangle.linalg", "rank", _count_rank, ("nnz",)),
    "linalg.smith_with_transforms": ("momentangle.linalg", "smith_with_transforms",
                                     _count_dense, ("entries",)),
    "linalg.homology_of_pair": ("momentangle.linalg", "homology_of_pair",
                                _count_homology_of_pair, ("dense_entries",)),
    "linalg.nullspace_rational": ("momentangle.linalg", "nullspace_rational",
                                  _count_dense, ("entries",)),
    "linalg.quotient_representatives": ("momentangle.linalg", "quotient_representatives", None, ()),
    "linalg.determinant_rational": ("momentangle.linalg", "determinant_rational", None, ()),
    "koszul.differential_matrix": ("momentangle.koszul", "differential_matrix",
                                   _count_differential, ("basis_total",)),
    "koszul.koszul_cohomology": ("momentangle.koszul", "koszul_cohomology",
                                 _count_nonzero, ("nonzero",)),
    "koszul.koszul_bigraded": ("momentangle.koszul", "koszul_bigraded", None, ()),
    "hochster.reduced_cohomology": ("momentangle.hochster", "reduced_cohomology",
                                    _count_nonzero, ("nonzero",)),
    "hochster.hochster_cohomology": ("momentangle.hochster", "hochster_cohomology", None, ()),
    "cells.homology_cycle_basis": ("momentangle.cells", "homology_cycle_basis", None, ()),
    "cech.build_resolvent": ("momentangle.cech", "build_resolvent", None, ()),
    "cech.validate_resolvent": ("momentangle.cech", "validate_resolvent", None, ()),
    "logforms.block_tuples": ("momentangle.logforms", "block_tuples",
                              _count_block_tuples, ("tuples", "candidates")),
    "logforms.block_matrix": ("momentangle.logforms", "block_matrix", None, ()),
    "logforms.log_cohomology_dim": ("momentangle.logforms", "log_cohomology_dim", None, ()),
    "logforms.log_cohomology_basis": ("momentangle.logforms", "log_cohomology_basis", None, ()),
    "logforms.period_of_cycle": ("momentangle.logforms", "period_of_cycle", None, ()),
    "logforms.period_matrix": ("momentangle.logforms", "period_matrix", None, ()),
    "report.betti_table": ("momentangle.report", "betti_table", None, ()),
    "report.hodge_report": ("momentangle.report", "hodge_report", None, ()),
    "report.render_report": ("momentangle.report", "render_report", None, ()),
}
REPORTED = ("dense_entries", "entries", "nnz", "basis_total", "tuples")

ROOT_SPAN = "op"


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []
        self.stack: list = []
        self.stats = {name: dict.fromkeys(("calls",) + keys, 0)
                      for name, (_, _, _, keys) in TARGETS.items()}
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, counter):
        rec = self
        stats = self.stats[name]

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            spans, stack = rec.spans, rec.stack
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            stats["calls"] += 1
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in its home module and at every re-binding."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "momentangle" or key.startswith("momentangle."))]
        for name, (home, path, counter, _) in TARGETS.items():
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[home]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace target {home}.{path} has no binding")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- one op -------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as one traced op under a root span."""
        self.op = op_id
        self.active = True
        index = len(self.spans)
        span = [ROOT_SPAN, 0.0, 0.0, -1, op_id]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.active = False

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Sum of self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
        return totals

    def op_wall(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name == ROOT_SPAN)

    def layer_metrics(self) -> dict:
        """Per-layer metric values keyed by their BENCHMARK.json names."""
        selfs = self.self_times()
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
            for key in REPORTED:
                if key in st:
                    out[f"{name}.{key}"] = st[key]
        kc = self.stats["koszul.koszul_cohomology"]
        out["koszul.nonzero_bidegree_ratio"] = _ratio(kc["nonzero"], kc["calls"])
        rc = self.stats["hochster.reduced_cohomology"]
        out["hochster.nonzero_summand_ratio"] = _ratio(rc["nonzero"], rc["calls"])
        bt = self.stats["logforms.block_tuples"]
        out["logforms.block_tuples.kept_ratio"] = _ratio(bt["tuples"], bt["candidates"])
        out["trace.op_self_s"] = selfs.get(ROOT_SPAN, 0.0)
        out["trace.op_wall_s"] = self.op_wall()
        return out

    def dump(self, path) -> None:
        """Write every span as JSON: one list [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
