"""Betti tables and mixed-Hodge summaries, with deterministic rendering.

The bigraded ranks coming out of either cohomology engine determine the
whole mixed Hodge structure of the arrangement complement: each bidegree
(p, q) contributes a Tate piece of type (q, q) to the cohomology in
total degree s = 2q - p.  This module collects the ranks into a
:class:`BettiTable`, derives the Hodge and weight filtration dimensions
and the diagonal Hodge numbers from it, and renders both as JSON, TSV,
or an aligned text table.
"""

from __future__ import annotations

import json

from ._record import Record
from .errors import InvariantViolation
from .hochster import hochster_bigraded
from .koszul import koszul_bigraded
from .simplicial import SimplicialComplex

ENGINES = ("koszul", "hochster")


def describe_complex(K: SimplicialComplex) -> str:
    """One-line deterministic description of a complex by its facets."""
    parts = ["{" + ",".join(str(v) for v in f) + "}" for f in K.facets()]
    return f"n={K.n}; facets " + " ".join(parts)


class BettiTable(Record):
    """Bigraded ranks and torsion of one arrangement complement.

    ``entries`` maps (p, q) to ``(rank, torsion_chain)`` and holds only
    the nonzero groups; ``ring`` records the coefficients the table was
    computed over ("Z" or "Q"); ``description`` identifies the complex.
    """

    __slots__ = ("n", "description", "ring", "entries")
    n: int
    description: str
    ring: str
    entries: dict

    def __init__(self, n: int, description: str, ring: str, entries: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)

    def rank(self, p: int, q: int) -> int:
        return self.entries.get((p, q), (0, ()))[0]

    def torsion(self, p: int, q: int) -> tuple:
        return self.entries.get((p, q), (0, ()))[1]

    def bidegrees(self) -> list:
        """Bidegrees with a nonzero group, in graded order (by q, then p)."""
        return sorted(self.entries, key=lambda pq: (pq[1], pq[0]))

    def total_dim(self, s: int) -> int:
        """Rank of the degree-s cohomology: sum over 2q - p = s."""
        return sum(rank for (p, q), (rank, _) in self.entries.items()
                   if 2 * q - p == s)

    def total_degrees(self) -> list:
        """Total degrees s with nonzero cohomology, ascending."""
        return sorted({2 * q - p for (p, q) in self.entries})


def betti_table(K: SimplicialComplex, ring: str = "Z",
                engine: str = "koszul") -> BettiTable:
    """Compute the full bigraded table with the chosen engine."""
    if engine == "koszul":
        groups = koszul_bigraded(K, ring=ring)
    elif engine == "hochster":
        groups = hochster_bigraded(K, ring=ring)
    else:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    entries = {pq: (H.rank, tuple(H.torsion)) for pq, H in groups.items()}
    table = BettiTable(K.n, describe_complex(K), ring, entries)
    _check_table(table)
    return table


def _check_table(bt: BettiTable) -> None:
    if bt.rank(0, 0) != 1:
        raise InvariantViolation("the (0, 0) entry must have rank 1")
    for (p, q) in bt.entries:
        if not (0 <= p <= q <= bt.n):
            raise InvariantViolation(
                f"entry at ({p}, {q}) outside 0 <= p <= q <= {bt.n}")


def filtration_dims(bt: BettiTable, s: int) -> tuple:
    """Hodge and weight filtration dimensions of the degree-s cohomology.

    Returns ``(F, W)``: ``F[k]`` for k = 0 .. s+1 is the dimension of the
    k-th Hodge filtration step (entries with q >= k), and ``W[r]`` for
    r = s-1 .. 2s is the dimension of the weight-r subspace (entries
    with 2q <= r).  Both are computed over the rationals, so torsion
    never enters.
    """
    diagonal = [(q, rank) for (p, q), (rank, _) in bt.entries.items()
                if 2 * q - p == s]
    F = {k: sum(rank for q, rank in diagonal if q >= k)
         for k in range(0, s + 2)}
    W = {r: sum(rank for q, rank in diagonal if 2 * q <= r)
         for r in range(s - 1, 2 * s + 1)}
    return F, W


def mixed_hodge_numbers(bt: BettiTable) -> dict:
    """Diagonal Hodge numbers: (s, q) -> multiplicity of type (q, q).

    Every graded piece sits on the Hodge diagonal, so the rank at
    bidegree (p, q) is exactly the (q, q) Hodge number of the cohomology
    in degree s = 2q - p.  Only nonzero values are returned.
    """
    return {(2 * q - p, q): rank
            for (p, q), (rank, _) in sorted(bt.entries.items(),
                                            key=lambda kv: (kv[0][1], kv[0][0]))
            if rank}


class DegreeHodge(Record):
    """Filtration data of a single total degree."""

    __slots__ = ("s", "dim", "F", "W", "h")
    s: int
    dim: int
    F: dict
    W: dict
    h: dict  # q -> diagonal Hodge number

    def __init__(self, s: int, dim: int, F: dict, W: dict, h: dict):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "h", h)


class HodgeReport(Record):
    """Per-degree mixed Hodge data for every nonzero total degree."""

    __slots__ = ("degrees",)
    degrees: tuple

    def __init__(self, degrees: tuple):
        object.__setattr__(self, "degrees", degrees)


def hodge_report(bt: BettiTable) -> HodgeReport:
    """Assemble filtrations and Hodge numbers for all nonzero degrees."""
    diagonal_numbers = mixed_hodge_numbers(bt)
    rows = []
    for s in bt.total_degrees():
        F, W = filtration_dims(bt, s)
        h = {q: value for (deg, q), value in diagonal_numbers.items()
             if deg == s}
        rows.append(DegreeHodge(s, bt.total_dim(s), F, W, h))
    return HodgeReport(tuple(rows))


def _betti_payload(bt: BettiTable) -> list:
    return [{"p": p, "q": q, "rank": bt.entries[(p, q)][0],
             "torsion": list(bt.entries[(p, q)][1])}
            for (p, q) in bt.bidegrees()]


def report_payload(bt: BettiTable, hr: HodgeReport = None) -> dict:
    """The documented JSON payload as plain Python objects."""
    if hr is None:
        hr = hodge_report(bt)
    hodge = [{"s": row.s,
              "F": {str(k): row.F[k] for k in sorted(row.F)},
              "W": {str(r): row.W[r] for r in sorted(row.W)},
              "h": {str(q): row.h[q] for q in sorted(row.h)}}
             for row in hr.degrees]
    return {"betti": _betti_payload(bt), "hodge": hodge}


def _torsion_text(chain: tuple) -> str:
    return ",".join(str(d) for d in chain)


def _betti_lines_tsv(bt: BettiTable) -> list:
    lines = ["p\tq\trank\ttorsion"]
    for (p, q) in bt.bidegrees():
        rank, torsion = bt.entries[(p, q)]
        lines.append(f"{p}\t{q}\t{rank}\t{_torsion_text(torsion)}")
    return lines


def _betti_lines_pretty(bt: BettiTable) -> list:
    lines = [bt.description + f"  (ring {bt.ring})", ""]
    lines.append("  p  q  rank  torsion")
    for (p, q) in bt.bidegrees():
        rank, torsion = bt.entries[(p, q)]
        torsion_text = _torsion_text(torsion) or "-"
        lines.append(f"  {p}  {q}  {rank:4d}  {torsion_text}")
    return lines


def render_betti(bt: BettiTable, format: str = "pretty") -> str:
    """Serialize the Betti table alone, without the Hodge summary."""
    if format == "json":
        return json.dumps({"betti": _betti_payload(bt)}, indent=2) + "\n"
    if format == "tsv":
        return "\n".join(_betti_lines_tsv(bt)) + "\n"
    if format == "pretty":
        return "\n".join(_betti_lines_pretty(bt)) + "\n"
    raise ValueError(f"unknown format {format!r}; choose json, tsv or pretty")


def _render_tsv(bt: BettiTable, hr: HodgeReport) -> str:
    lines = _betti_lines_tsv(bt)
    lines.append("")
    lines.append("s\tdim\tfiltration\tindex\tvalue")
    for row in hr.degrees:
        for k in sorted(row.F):
            lines.append(f"{row.s}\t{row.dim}\tF\t{k}\t{row.F[k]}")
        for r in sorted(row.W):
            lines.append(f"{row.s}\t{row.dim}\tW\t{r}\t{row.W[r]}")
        for q in sorted(row.h):
            lines.append(f"{row.s}\t{row.dim}\th\t{q}\t{row.h[q]}")
    return "\n".join(lines) + "\n"


def _render_pretty(bt: BettiTable, hr: HodgeReport) -> str:
    lines = _betti_lines_pretty(bt)
    for row in hr.degrees:
        lines.append("")
        lines.append(f"H^{row.s}: dim {row.dim}")
        f_text = " ".join(f"F{k}={row.F[k]}" for k in sorted(row.F))
        w_text = " ".join(f"W{r}={row.W[r]}" for r in sorted(row.W))
        h_text = " ".join(f"h[{q},{q}]={row.h[q]}" for q in sorted(row.h))
        lines.append(f"  {f_text}")
        lines.append(f"  {w_text}")
        lines.append(f"  {h_text}")
    return "\n".join(lines) + "\n"


def render_report(bt: BettiTable, hr: HodgeReport = None,
                  format: str = "pretty") -> str:
    """Serialize a table and its Hodge summary deterministically.

    Formats: ``json`` (the documented schema), ``tsv`` (a betti block,
    one row per bidegree, then a filtration block), ``pretty`` (aligned
    text).  Any other format name raises ValueError.
    """
    if hr is None:
        hr = hodge_report(bt)
    if format == "json":
        return json.dumps(report_payload(bt, hr), indent=2) + "\n"
    if format == "tsv":
        return _render_tsv(bt, hr)
    if format == "pretty":
        return _render_pretty(bt, hr)
    raise ValueError(f"unknown format {format!r}; choose json, tsv or pretty")
