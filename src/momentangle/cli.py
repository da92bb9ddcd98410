"""Command-line front end: compute, cross-verify, scan, and report.

Subcommands
-----------
betti      bigraded ranks and torsion of one complex (algebra engine)
hodge      the same table plus filtration dimensions and Hodge numbers
verify     run several engines over every bidegree and compare them
resolvent  print the resolvent ladder of each homology basis cycle
periods    print the exact period matrix at one bidegree
scan       stream summaries for many complexes at a fixed vertex count

Each subcommand accepts only the flags it reads (see ``build_parser``);
``verify --t-max`` needs the cech engine and ``scan --seed`` needs
``--samples``.

Exit codes: 0 success, 2 bad input, 3 engine disagreement, 4 violated
internal invariant or other internal error, 141 standard output closed
by its reader (as a shell reports a writer killed by SIGPIPE), with no
traceback.  All output is deterministic:
repeated runs, with any worker count, produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import deque
from contextlib import closing
from itertools import chain, combinations, islice

from .cech import build_resolvent
from .cells import homology_cycle_basis
from .errors import CompositionError, InvariantViolation, ParseError
from .hochster import hochster_cohomology
from .koszul import koszul_cohomology
from .linalg import determinant_rational
from .logforms import (
    LogCochain,
    block_tuples,
    log_cohomology_dim,
    period_matrix,
    period_of_cycle,
)
from .report import (
    betti_table,
    describe_complex,
    hodge_report,
    render_betti,
    render_report,
)
from .simplicial import (
    MAX_ENUMERATION_VERTICES,
    SimplicialComplex,
    enumerate_complexes,
    face_key,
    parse_complex,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

ALL_ENGINES = ("koszul", "hochster", "cech")

# cap on coboundary spot-checks per bidegree during `verify --engines ...,cech`
MAX_COBOUNDARY_CHECKS = 200

# payloads per pool task for scan: on a 2-CPU host, 2000 samples at n = 5
# took 3.2 s in tasks of 32 against 5.1 s in tasks of 1; verify, with at
# most a few dozen heavy bidegrees, sends one per task
SCAN_CHUNK = 32


# ---------------------------------------------------------------------------
# plumbing


def _load_complex(path: str) -> SimplicialComplex:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_complex(text)


def _parse_engines(text: str) -> tuple:
    """Distinct engine names, in order; verify compares at least two."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names:
        if name not in ALL_ENGINES:
            raise ParseError(
                f"unknown engine {name!r}; choose from {', '.join(ALL_ENGINES)}")
    seen = []
    for name in names:
        if name not in seen:
            seen.append(name)
    if len(seen) < 2:
        raise ParseError(
            f"verify compares engines: name at least two of {', '.join(ALL_ENGINES)}")
    return tuple(seen)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _map_chunk(worker, chunk: list) -> list:
    return [worker(payload) for payload in chunk]


def _run_parallel(worker, payloads, jobs: int, chunksize: int = 1):
    """Map a worker over payloads lazily and in order, optionally with a pool.

    The pool never has more processes than payloads or than CPUs: it is
    sized by reading at most that many payloads ahead, and it is shut down
    when the returned generator finishes or is closed.  Tasks grow from one
    payload to `chunksize`, so the first results come at once, and at most
    two tasks per process are in flight, so a reader that stops stops the
    workers too and no more results than those are held.
    """
    payloads = iter(payloads)
    head = list(islice(payloads, min(jobs, os.cpu_count() or 1)))
    payloads = chain(head, payloads)
    if len(head) > 1:
        # imported only here: a serial run, the default, would otherwise pay
        # for loading pickle, socket and signal at start-up
        from multiprocessing import Pool

        with Pool(processes=len(head)) as pool:
            pending = deque()
            size = 1
            while chunk := list(islice(payloads, size)):
                size = min(2 * size, chunksize)
                pending.append(pool.apply_async(_map_chunk, (worker, chunk)))
                if len(pending) > 2 * len(head):
                    yield from pending.popleft().get()
            while pending:
                yield from pending.popleft().get()
    else:
        yield from map(worker, payloads)


def format_cell(cell) -> str:
    disks = ",".join(str(v) for v in cell.disks)
    circles = ",".join(str(v) for v in cell.circles)
    return f"D[{disks}]S[{circles}]"


def format_chain(chain: dict) -> str:
    if not chain:
        return "0"
    cells = sorted(chain, key=lambda c: (face_key(c.disks), face_key(c.circles)))
    parts = []
    for cell in cells:
        coeff = chain[cell]
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign}{abs(coeff)}*{format_cell(cell)}")
    return " ".join(parts)


def format_face_tuple(faces: tuple) -> str:
    return "(" + ";".join("{" + ",".join(str(v) for v in f) + "}" for f in faces) + ")"


def _sorted_tuples(entries: dict) -> list:
    return sorted(entries, key=lambda faces: tuple(face_key(f) for f in faces))


# ---------------------------------------------------------------------------
# betti / hodge


def cmd_betti(args) -> int:
    K = _load_complex(args.input)
    bt = betti_table(K, ring=args.ring)
    sys.stdout.write(render_betti(bt, format=args.format))
    return EXIT_OK


def cmd_hodge(args) -> int:
    K = _load_complex(args.input)
    bt = betti_table(K, ring=args.ring)
    sys.stdout.write(render_report(bt, hodge_report(bt), format=args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_worker(payload) -> dict:
    K, p, q, engines, ring, t_max = payload
    outcome = {}
    if "koszul" in engines:
        H = koszul_cohomology(K, p, q, ring=ring, want_representatives=False)
        outcome["koszul"] = (H.rank, tuple(H.torsion))
    if "hochster" in engines:
        H = hochster_cohomology(K, p, q, ring=ring)
        outcome["hochster"] = (H.rank, tuple(H.torsion))
    if "cech" in engines and q - p <= t_max:
        outcome["cech"] = (log_cohomology_dim(K, q, q - p), None)
    return outcome


def _compare_engines(bidegrees, outcomes, where: str) -> list:
    mismatches = []
    for (p, q), outcome in zip(bidegrees, outcomes):
        if "koszul" in outcome and "hochster" in outcome:
            a, b = outcome["koszul"], outcome["hochster"]
            if a != b:
                mismatches.append(
                    f"bidegree ({p}, {q}) of {where}: koszul rank {a[0]} "
                    f"torsion {list(a[1])} vs hochster rank {b[0]} "
                    f"torsion {list(b[1])}")
        if "cech" in outcome:
            reference = outcome.get("koszul") or outcome.get("hochster")
            if reference is not None and outcome["cech"][0] != reference[0]:
                mismatches.append(
                    f"bidegree ({p}, {q}) of {where}: cover-complex dimension "
                    f"{outcome['cech'][0]} vs rank {reference[0]}")
    return mismatches


def _verify_periods(K: SimplicialComplex, ranks: dict, where: str) -> list:
    """Nondegeneracy and vanishing checks for the period pairing.

    ``ranks`` maps each bidegree the cech engine covered, in graded
    order, to the rank found there by the reference engine.
    """
    mismatches = []
    nonzero = [pq for pq, rank in ranks.items() if rank > 0]
    resolvents, bases, matrices = {}, {}, {}
    for pq in nonzero:
        resolvents[pq], bases[pq], matrices[pq] = period_matrix(K, *pq)

    for (p, q) in nonzero:
        rank = ranks[(p, q)]
        if len(resolvents[(p, q)]) != rank or len(bases[(p, q)]) != rank:
            mismatches.append(
                f"bidegree ({p}, {q}) of {where}: period matrix is "
                f"{len(resolvents[(p, q)])}x{len(bases[(p, q)])}, expected "
                f"square of size {rank}")
            continue
        if rank and determinant_rational(matrices[(p, q)]) == 0:
            mismatches.append(
                f"bidegree ({p}, {q}) of {where}: period matrix is singular")

    for src in nonzero:
        for other in nonzero:
            if other == src:
                continue
            p, q = src
            for res in resolvents[src]:
                for w in bases[other]:
                    value = period_of_cycle(w, res)
                    if not value.is_zero():
                        mismatches.append(
                            f"bidegree ({p}, {q}) of {where}: class from "
                            f"bidegree {other} pairs to {value.coefficient}, "
                            f"expected 0")

    for (p, q) in nonzero:
        t = q - p
        if t < 1 or not resolvents[(p, q)]:
            continue
        checked = 0
        for I in combinations(range(1, K.n + 1), q):
            for T in block_tuples(K, I, t - 1):
                cochain = LogCochain(K, q, t - 1)
                cochain.add(T, I, 1)
                w = cochain.differential()
                for res in resolvents[(p, q)]:
                    value = period_of_cycle(w, res)
                    if not value.is_zero():
                        mismatches.append(
                            f"bidegree ({p}, {q}) of {where}: a coboundary "
                            f"pairs to {value.coefficient}, expected 0")
                checked += 1
                if checked >= MAX_COBOUNDARY_CHECKS:
                    break
            if checked >= MAX_COBOUNDARY_CHECKS:
                break
    return mismatches


def cmd_verify(args) -> int:
    K = _load_complex(args.input)
    engines = _parse_engines(args.engines)
    if args.t_max is not None and "cech" not in engines:
        raise ParseError("--t-max bounds the cech engine; add cech to --engines")
    if args.t_max is not None and args.t_max < 0:
        raise ParseError(f"--t-max must be at least 0, got {args.t_max}")
    t_max = args.t_max if args.t_max is not None else K.n
    where = describe_complex(K)
    bidegrees = [(p, q) for q in range(K.n + 1) for p in range(q + 1)]
    payloads = [(K, p, q, engines, args.ring, t_max) for (p, q) in bidegrees]
    outcomes = list(_run_parallel(_verify_worker, payloads, args.jobs))
    mismatches = _compare_engines(bidegrees, outcomes, where)
    coverage = ""
    if "cech" in engines:
        reference = "koszul" if "koszul" in engines else "hochster"
        ranks = {pq: outcome[reference][0]
                 for pq, outcome in zip(bidegrees, outcomes)
                 if "cech" in outcome}
        mismatches.extend(_verify_periods(K, ranks, where))
        if len(ranks) < len(bidegrees):
            coverage = f" (cech on the {len(ranks)} with q - p <= {t_max})"
    if mismatches:
        for line in mismatches:
            print(f"disagreement: {line}", file=sys.stderr)
        return EXIT_DISAGREE
    print(f"ok: engines {', '.join(engines)} agree on "
          f"{len(bidegrees)} bidegrees{coverage} of {where}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# resolvent / periods


def _bidegree(args, K: SimplicialComplex) -> tuple:
    p, q = args.p, args.q
    if not (0 <= p <= q <= K.n):
        raise ParseError(f"bidegree ({p}, {q}) outside 0 <= p <= q <= {K.n}")
    return p, q


def cmd_resolvent(args) -> int:
    K = _load_complex(args.input)
    p, q = _bidegree(args, K)
    classes = []
    for cycle in homology_cycle_basis(K, p, q):
        # build_resolvent validates the ladder and raises when it fails
        res = build_resolvent(K, cycle)
        levels = [{"t": level.t,
                   "entries": [{"tuple": format_face_tuple(faces),
                                "chain": format_chain(level.entries[faces])}
                               for faces in _sorted_tuples(level.entries)]}
                  for level in res.levels]
        classes.append({"cycle": format_chain(cycle), "levels": levels,
                        "valid": True, "message": ""})

    if args.format == "json":
        payload = {"p": p, "q": q, "complex": describe_complex(K),
                   "classes": classes}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    lines = [f"resolvents at ({p}, {q}) of {describe_complex(K)}"]
    if not classes:
        lines.append("no homology classes at this bidegree")
    for index, cls in enumerate(classes, start=1):
        lines.append(f"class {index}: {cls['cycle']}")
        for level in cls["levels"]:
            lines.append(f"  level {level['t']}:")
            for entry in level["entries"]:
                lines.append(f"    {entry['tuple']} -> {entry['chain']}")
        lines.append("  valid: yes")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_periods(args) -> int:
    K = _load_complex(args.input)
    p, q = _bidegree(args, K)
    _, _, matrix = period_matrix(K, p, q)

    if args.format == "json":
        payload = {"p": p, "q": q, "power": q,
                   "complex": describe_complex(K),
                   "matrix": [[str(value) for value in row] for row in matrix]}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    if args.format == "tsv":
        lines = [f"# period matrix at ({p}, {q}); unit (2 pi i)^{q}"]
        lines.extend("\t".join(str(value) for value in row) for row in matrix)
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK

    lines = [f"period matrix at ({p}, {q}) of {describe_complex(K)}; "
             f"unit (2 pi i)^{q}"]
    if not matrix:
        lines.append("no homology classes at this bidegree")
    for row in matrix:
        lines.append("  " + "  ".join(str(value) for value in row))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def sample_complexes(n: int, count: int, seed: int):
    """Reproducible random complexes: seeded draws of facet families, lazily."""
    rng = random.Random(seed)
    for _ in range(count):
        facets = []
        for _ in range(rng.randint(0, n + 2)):
            f = tuple(v for v in range(1, n + 1) if rng.random() < 0.55)
            if f:
                facets.append(f)
        yield SimplicialComplex.from_facets(n, facets)


def _scan_worker(payload) -> str:
    K, ring, fmt = payload
    bt = betti_table(K, ring=ring)
    hr = hodge_report(bt)
    torsion = [((p, q), chain) for (p, q), (_, chain) in
               sorted(bt.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
               if chain]
    if fmt == "json":
        payload = {
            "complex": bt.description,
            "degrees": [{"s": row.s, "dim": row.dim,
                         "weights": {str(2 * q): row.h[q] for q in sorted(row.h)}}
                        for row in hr.degrees],
            "torsion": [{"p": p, "q": q, "chain": list(chain)}
                        for (p, q), chain in torsion],
        }
        return json.dumps(payload, separators=(", ", ": "))
    degree_text = " ".join(
        f"H^{row.s}:{row.dim}"
        + ("[" + ",".join(f"w{2 * q}:{row.h[q]}" for q in sorted(row.h)) + "]"
           if row.h else "")
        for row in hr.degrees)
    torsion_text = "; ".join(
        f"({p},{q}):{','.join(str(d) for d in chain)}"
        for (p, q), chain in torsion) or "none"
    sep = "\t" if fmt == "tsv" else " | "
    return sep.join([bt.description, degree_text, f"torsion {torsion_text}"])


def cmd_scan(args) -> int:
    n = args.n
    if n < 1:
        raise ParseError("scan needs n >= 1")
    if args.samples is None and args.seed is not None:
        raise ParseError("--seed needs --samples")
    if args.samples is not None:
        complexes = sample_complexes(n, args.samples, args.seed or 0)
    else:
        if n > MAX_ENUMERATION_VERTICES:
            raise ParseError(
                f"exhaustive scan supports n <= {MAX_ENUMERATION_VERTICES}; "
                f"use --samples for larger n")
        complexes = enumerate_complexes(n)
    payloads = ((K, args.ring, args.format) for K in complexes)
    with closing(_run_parallel(_scan_worker, payloads, args.jobs, SCAN_CHUNK)) as lines:
        for line in lines:
            print(line, flush=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Exact bigraded cohomology and mixed Hodge tables for "
                    "coordinate subspace arrangement complements.")
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--ring", choices=("Z", "Q"), default="Z",
                      help="coefficient ring (default Z)")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes (default 1)")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("json", "tsv", "pretty"),
                         default="pretty", help="output format (default pretty)")

    sub = parser.add_subparsers(dest="command", required=True)

    betti = sub.add_parser("betti", parents=[ring, formats],
                           help="bigraded ranks and torsion")
    betti.add_argument("input", help="complex JSON file, or - for stdin")
    betti.set_defaults(handler=cmd_betti)

    hodge = sub.add_parser("hodge", parents=[ring, formats],
                           help="Betti table plus filtrations and Hodge numbers")
    hodge.add_argument("input", help="complex JSON file, or - for stdin")
    hodge.set_defaults(handler=cmd_hodge)

    verify = sub.add_parser("verify", parents=[ring, jobs],
                            help="cross-check engines over all bidegrees")
    verify.add_argument("input", help="complex JSON file, or - for stdin")
    verify.add_argument("--engines", default="koszul,hochster",
                        help="comma-separated subset of koszul,hochster,cech")
    verify.add_argument("--t-max", type=int, default=None, dest="t_max",
                        help="largest cover degree for the cech engine, "
                             "which must be named (default: n)")
    verify.set_defaults(handler=cmd_verify)

    resolvent = sub.add_parser("resolvent",
                               help="resolvent ladders of homology basis cycles")
    resolvent.add_argument("input", help="complex JSON file, or - for stdin")
    resolvent.add_argument("-p", type=int, required=True,
                           help="circle count of the bidegree")
    resolvent.add_argument("-q", type=int, required=True,
                           help="total index count of the bidegree")
    resolvent.add_argument("--format", choices=("json", "pretty"),
                           default="pretty", help="output format (default pretty)")
    resolvent.set_defaults(handler=cmd_resolvent)

    periods = sub.add_parser("periods", parents=[formats],
                             help="exact period matrix at one bidegree")
    periods.add_argument("input", help="complex JSON file, or - for stdin")
    periods.add_argument("-p", type=int, required=True,
                         help="circle count of the bidegree")
    periods.add_argument("-q", type=int, required=True,
                         help="total index count of the bidegree")
    periods.set_defaults(handler=cmd_periods)

    scan = sub.add_parser("scan", parents=[ring, jobs, formats],
                          help="summaries for many complexes at fixed n")
    scan.add_argument("-n", type=int, required=True, help="vertex count")
    scan.add_argument("--samples", type=_positive_int, default=None,
                      help="number of random complexes instead")
    scan.add_argument("--seed", type=int, default=None,
                      help="seed for --samples (default 0)")
    scan.set_defaults(handler=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return status
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; see "Note on SIGPIPE"
        # in the documentation of the signal module
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CompositionError, InvariantViolation) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        # inputs are validated with ParseError; any other ValueError is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
