"""The four benchmark workloads: seeded inputs, one op each, and its gate.

Every input is a facet list serialised to JSON, drawn by the benchmark's
own RNG from ``--seed``; the package only ever sees that text.  Inputs
follow a fixed cycle of strata: a fixed anchor complex, a ScanSlot (a
complex drawn the way ``momentangle scan`` draws them, with a given face
count), or a vertex count with a face-count window and a facet-size range.
The mix of cheap and expensive complexes, and with it every latency
percentile, is then the same for every seed; the seed only picks the
complexes inside each stratum.  Face counts include the empty face.

An op takes one JSON text through its workload's full pipeline and returns
its output.  The gate checks that output right after the op, outside its
timed region and with tracing off, and returns an error message or None.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

# Calls go through the package attribute (``ma.name``) so that the tracer's
# wrappers, installed on the package and its modules, see every call.
import momentangle as ma

SQUARE = {"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}
PLANE_MINUS_ORIGIN = {"n": 2, "facets": [[1], [2]]}
RP2_SIX = {"n": 6, "facets": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
                              [2, 3, 5], [3, 5, 6], [3, 4, 6], [2, 4, 6], [2, 4, 5]]}


# ---------------------------------------------------------------------------
# inputs


def add_faces(faces: set, facet) -> None:
    for k in range(len(facet) + 1):
        faces.update(combinations(facet, k))


def windowed_draw(rng: random.Random, n: int, lo: int, hi: int,
                  kmin: int, kmax: int) -> dict:
    """Random facets of kmin..kmax vertices until lo <= #faces <= hi."""
    while True:
        facets, faces = [], {()}
        while len(faces) < lo:
            f = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(kmin, kmax))))
            facets.append(list(f))
            add_faces(faces, f)
        if len(faces) <= hi:
            return {"n": n, "facets": facets}


def scan_draw(rng: random.Random, n: int) -> dict:
    """One complex drawn as ``momentangle scan`` draws them: 0..n+2 facets,
    each vertex kept with probability 0.55, empty facets dropped."""
    facets = []
    for _ in range(rng.randint(0, n + 2)):
        facet = [v for v in range(1, n + 1) if rng.random() < 0.55]
        if facet:
            facets.append(facet)
    return {"n": n, "facets": facets}


def face_count(complex_: dict) -> int:
    faces = {()}
    for facet in complex_["facets"]:
        add_faces(faces, tuple(facet))
    return len(faces)


@dataclass(frozen=True)
class ScanSlot:
    """A scan draw on n vertices, drawn again until it has exactly `faces` faces."""
    n: int
    faces: int


def scan_slots(n: int, slots: int) -> tuple:
    """ScanSlots whose face counts follow the scan draw's own distribution:
    the counts at the midpoints of `slots` equal quantile bins of 5000 draws
    from a fixed RNG, in a fixed shuffled order.  Each input is still a scan
    draw; only how often each face count comes up no longer depends on the
    seed."""
    rng = random.Random(0)
    counts = sorted(face_count(scan_draw(rng, n)) for _ in range(5000))
    cycle = [ScanSlot(n, counts[(2 * j + 1) * len(counts) // (2 * slots)])
             for j in range(slots)]
    rng.shuffle(cycle)
    return tuple(cycle)


def draw(rng: random.Random, stratum) -> dict:
    """A stratum is an anchor dict, a ScanSlot, or a tuple
    (n, lo, hi, kmin, kmax) for a windowed draw."""
    if isinstance(stratum, dict):
        return stratum
    if isinstance(stratum, ScanSlot):
        while True:
            complex_ = scan_draw(rng, stratum.n)
            if face_count(complex_) == stratum.faces:
                return complex_
    return windowed_draw(rng, *stratum)


class Deck:
    """Endless seeded stream of JSON inputs cycling through the strata."""

    def __init__(self, strata: tuple, seed: int):
        self.strata = strata
        self.rng = random.Random(seed)
        self.count = 0

    def next(self) -> str:
        stratum = self.strata[self.count % len(self.strata)]
        self.count += 1
        return json.dumps(draw(self.rng, stratum))


# ---------------------------------------------------------------------------
# ops


def scan_small_op(text: str):
    K = ma.parse_complex(text)
    bt = ma.betti_table(K, ring="Z")
    return K, bt, ma.render_report(bt, ma.hodge_report(bt))


def table_z_op(text: str):
    K = ma.parse_complex(text)
    return K, ma.betti_table(K, ring="Z")


def oracle_q_op(text: str):
    """The ``verify --engines koszul,hochster --ring Q`` comparison."""
    K = ma.parse_complex(text)
    table, mismatches = {}, []
    for q in range(K.n + 1):
        for p in range(q + 1):
            a = ma.koszul_cohomology(K, p, q, ring="Q", want_representatives=False)
            b = ma.hochster_cohomology(K, p, q, ring="Q")
            if (a.rank, a.torsion) != (b.rank, tuple(b.torsion)):
                mismatches.append((p, q, a.rank, b.rank))
            if a.rank:
                table[(p, q)] = a.rank
    return K, table, mismatches


def periods_op(text: str):
    """The period half of ``verify --engines koszul,hochster,cech``.

    Cover-complex dimensions at every bidegree (cover degree up to n),
    then the exact period matrix and its determinant at each nonzero one.
    """
    K = ma.parse_complex(text)
    dims, periods = {}, {}
    for q in range(K.n + 1):
        for p in range(q + 1):
            dims[(p, q)] = ma.log_cohomology_dim(K, q, q - p)
    for (p, q), dim in dims.items():
        if dim:
            _, _, matrix = ma.period_matrix(K, p, q)
            square = bool(matrix) and all(len(row) == len(matrix) for row in matrix)
            det = ma.determinant_rational(matrix) if square else None
            periods[(p, q)] = (matrix, det)
    return K, dims, periods


# ---------------------------------------------------------------------------
# gates


def _faces(anchor: dict) -> frozenset:
    return ma.parse_complex(json.dumps(anchor)).faces


def _anchor_check(K, entries: dict) -> str | None:
    """Known groups of the fixed anchors; entries maps (p, q) to (rank, torsion)."""
    if K.faces == _faces(SQUARE):
        want = {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        got = {pq: entries.get(pq, (0, ()))[0] for pq in want}
        if got != want:
            return f"square boundary ranks {got}, expected {want}"
    if K.faces == _faces(RP2_SIX) and entries.get((3, 6)) != (0, (2,)):
        return f"RP2 at (3, 6) is {entries.get((3, 6))}, expected rank 0 torsion (2,)"
    return None


def gate_z_table(out) -> str | None:
    """Koszul table (and rendered report, if any) equal the Hochster ones."""
    K, bt, *text = out
    reference = ma.betti_table(K, ring="Z", engine="hochster")
    if bt.entries != reference.entries:
        return f"koszul table {bt.entries} != hochster {reference.entries}"
    if text and text[0] != ma.render_report(reference, ma.hodge_report(reference)):
        return "rendered report differs from the report of the hochster table"
    return _anchor_check(K, bt.entries)


def gate_oracle_q(out) -> str | None:
    K, table, mismatches = out
    if mismatches:
        return f"koszul and hochster disagree over Q at (p, q, rank, rank) {mismatches}"
    if table.get((0, 0)) != 1:
        return "rank at (0, 0) is not 1"
    return None


def gate_periods(out) -> str | None:
    K, dims, periods = out
    ranks = {pq: r for pq, (r, _) in ma.betti_table(K, ring="Z").entries.items()}
    for pq, dim in dims.items():
        if dim != ranks.get(pq, 0):
            return f"cover-complex dimension {dim} at {pq} != rank {ranks.get(pq, 0)}"
    for pq, (matrix, det) in periods.items():
        if len(matrix) != dims[pq] or det is None:
            return f"period matrix at {pq} is not square of size {dims[pq]}"
        if det == 0:
            return f"period matrix at {pq} is singular"
    if K.faces == _faces(PLANE_MINUS_ORIGIN):
        matrix = periods.get((1, 2), ([], None))[0]
        if matrix not in ([[1]], [[-1]]):
            return f"plane minus the origin: period at (1, 2) is {matrix}, expected +-1"
    return None


# ---------------------------------------------------------------------------
# digests of what each op produced


def digest_scan_small(out) -> str:
    return out[2]


def digest_table_z(out) -> str:
    return repr(sorted(out[1].entries.items()))


def digest_oracle_q(out) -> str:
    return repr(sorted(out[1].items()))


def digest_periods(out) -> str:
    _, dims, periods = out
    return repr((sorted(dims.items()),
                 [(pq, [[str(v) for v in row] for row in m], str(d))
                  for pq, (m, d) in sorted(periods.items())]))


def run_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    name: str
    op: object
    gate: object
    digest: object
    strata: tuple        # full-size cycle of input strata
    smoke_strata: tuple  # tiny cycle for the benchmark's own tests
    tail_pct: float      # latency_tail_ms percentile when the run has enough ops
    trace_ops_per_s: float  # traced-run op count per second of --seconds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "scan-small", scan_small_op, gate_z_table, digest_scan_small,
            strata=(SQUARE,) + scan_slots(5, 99),
            smoke_strata=(SQUARE,) + scan_slots(3, 4),
            tail_pct=95.0, trace_ops_per_s=12.0),
        Workload(
            "table-Z", table_z_op, gate_z_table, digest_table_z,
            # by op time the cycle sorts as 24, 24, 30 faces, RP2, n = 7: the
            # median falls inside the 30-face fifth and the tail (p75, or as
            # low as p70 on a short run) inside the RP2 fifth, never on a step
            strata=(RP2_SIX, (6, 24, 24, 2, 3), (6, 30, 30, 3, 3),
                    (6, 24, 24, 2, 3), (7, 15, 15, 1, 2)),
            smoke_strata=(SQUARE, (5, 10, 14, 2, 3)),
            tail_pct=75.0, trace_ops_per_s=1.0),
        Workload(
            "oracle-Q", oracle_q_op, gate_oracle_q, digest_oracle_q,
            strata=((8, 12, 12, 2, 2), (8, 18, 18, 2, 3), (9, 12, 12, 2, 2),
                    (8, 26, 26, 2, 3), (9, 16, 20, 1, 3)),
            smoke_strata=((5, 8, 12, 1, 3),),
            tail_pct=85.0, trace_ops_per_s=1.6),
        Workload(
            "periods", periods_op, gate_periods, digest_periods,
            strata=(PLANE_MINUS_ORIGIN, (3, 5, 7, 1, 3), (4, 6, 6, 1, 2),
                    (4, 7, 7, 2, 2), (5, 6, 6, 1, 2), (4, 6, 6, 1, 2)),
            smoke_strata=(PLANE_MINUS_ORIGIN, (3, 4, 6, 1, 2)),
            tail_pct=90.0, trace_ops_per_s=4.0),
    )
}

# The Čech engine's cover tuples grow like C(#faces, t + 1); every periods
# stratum stays at or under this many faces, as the README and the
# acceptance suite cap that engine for the same reason.
PERIODS_FACE_CAP = 7
