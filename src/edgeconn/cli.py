"""Command-line front end.

Subcommands: invariants, free, atlas, enumerate, conditions, verify, mine,
selftest, campaign.  Reports are JSON (objects, one per line for streams) or
CSV.  Exit codes: 0 success / claim held, 2 claim violated or witness
missing, 1 usage or I/O error.  Worker count defaults to the EDGECONN_WORKERS
environment variable; a count that is not an integer or is below 1 is an
error (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

from .atlas import make_family_member, parse_pattern_set, parse_pattern_token
from .conditions import CONDITION_NAMES, condition_implication_rows
from .enumeration import MAX_ENUM_ORDER, _numbered_graph6, connected_level, walk
from .graphs import Graph6Error, GraphError, to_graph6
from .invariants import InvariantReport, compute_report
from .iso import is_free, pattern_equivalent
from .selftest import run_selftest
from .verify import (
    CHARACTERIZED_PAIRS,
    TARGETS,
    characterized_sets,
    condition_soundness,
    cut_interior_sweep,
    intersect_characterizations,
    mine_witness,
    scan_claims,
    verify_pattern_set,
    witness_sweep,
)

_TARGET_CHOICES = {name.replace("_", "-"): name for name in TARGETS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeconn",
        description="Invariant scans and forbidden-subgraph verification for small graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="input_path", required=True,
                           help="graph6 input file, one record per line")
        p.add_argument("--out", dest="output_path", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    def add_workers(p):
        # a string default is parsed by type=int too, so a bad variable is a usage error
        p.add_argument("--workers", type=int, default=os.environ.get("EDGECONN_WORKERS", "1"))

    p = sub.add_parser("invariants", help="invariant report per input graph")
    add_io(p)

    p = sub.add_parser("free", help="forbidden-pattern verdict per input graph")
    add_io(p)
    p.add_argument("--pair", "--patterns", dest="patterns", required=True,
                   help="comma-separated pattern tokens, e.g. Z2,P6 or g6:Bw")

    p = sub.add_parser("atlas", help="emit a named graph or a family member")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", help="pattern token, e.g. Z2, T1_1_3, H0")
    group.add_argument("--family", type=int, help="witness family id 1..7")
    p.add_argument("--params", help="family parameters, e.g. 2,2")
    add_io(p, needs_in=False)

    p = sub.add_parser("enumerate", help="stream all connected graphs of one order")
    p.add_argument("--n", type=int, required=True, help=f"order, 1..{MAX_ENUM_ORDER}")
    p.add_argument("--out", dest="output_path")
    add_workers(p)

    p = sub.add_parser("conditions", help="sufficient-condition matrix per input graph")
    add_io(p)

    p = sub.add_parser("verify", help="scan an equality claim over pattern-free graphs")
    p.add_argument("--pair", "--patterns", dest="patterns", required=True,
                   help="one or two comma-separated pattern tokens")
    p.add_argument("--target", choices=sorted(_TARGET_CHOICES), default="kappa-prime-delta")
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    add_io(p, needs_in=False)
    add_workers(p)

    p = sub.add_parser("mine", help="find a pattern-free graph with kappa' below delta")
    p.add_argument("--pair", "--patterns", dest="patterns", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    add_io(p, needs_in=False)
    add_workers(p)

    sub.add_parser("selftest", help="run the embedded oracle cross-checks")

    p = sub.add_parser("campaign", help="run the verification campaign and write JSON reports")
    p.add_argument("--n-max", type=int, default=9,
                   help="scan depth for the equality claims (default 9)")
    p.add_argument("--sweep-n-max", type=int, default=8,
                   help="depth for the condition and cut-interior sweeps (default 8)")
    p.add_argument("--out-dir", default="reports", help="report directory")
    add_workers(p)
    return parser


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_report(rows: list[dict], fields: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(r) + "\n" for r in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([r[f] for f in fields])
    return buf.getvalue()


def _csvable(value):
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def _per_record(path, row) -> list[dict]:
    """``row(g)`` for each graph of a graph6 file, in order.

    A graph that ``row`` rejects (a GraphError, such as a 1-vertex or
    disconnected record) is named as ``path:lineno:``, like a parse error.
    """
    rows = []
    for lineno, g in _numbered_graph6(path):
        try:
            rows.append(row(g))
        except GraphError as exc:
            raise GraphError(f"{os.fspath(path)}:{lineno}: {exc}") from None
    return rows


def _run_invariants(ns: argparse.Namespace) -> int:
    rows = _per_record(ns.input_path, lambda g: compute_report(g).as_dict())
    _emit(_rows_report(rows, InvariantReport.FIELDS, ns.fmt), ns.output_path)
    return 0


def _run_free(ns: argparse.Namespace) -> int:
    patterns = parse_pattern_set(ns.patterns)
    rows = _per_record(ns.input_path, lambda g: {"graph6": to_graph6(g), "free": is_free(g, patterns)})
    _emit(_rows_report(rows, ("graph6", "free"), ns.fmt), ns.output_path)
    return 0


def _run_atlas(ns: argparse.Namespace) -> int:
    if ns.name:
        if ns.params is not None:
            raise ValueError("--params applies to --family only")
        g = parse_pattern_token(ns.name).graph
        record = {
            "name": ns.name,
            "graph6": to_graph6(g),
            "n": g.n,
            "m": g.m,
            "degree_sequence": list(g.degree_sequence()),
        }
    else:
        fields = ns.params.split(",") if ns.params else []
        if not all(f.isascii() and f.isdigit() for f in fields):
            raise ValueError(f"--params takes nonnegative integers and commas, got {ns.params!r}")
        member = make_family_member(ns.family, tuple(map(int, fields)))
        record = {
            "family_id": member.family_id,
            "params": list(member.params),
            "graph6": to_graph6(member.graph),
            "certificate": dict(member.certificate),
        }
    if ns.fmt == "json":
        _emit(json.dumps(record, indent=2) + "\n", ns.output_path)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in record.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    writer.writerow([k2, v2])
            else:
                writer.writerow([key, _csvable(value)])
        _emit(buf.getvalue(), ns.output_path)
    return 0


def _run_enumerate(ns: argparse.Namespace) -> int:
    lines = [to_graph6(g) + "\n" for g in connected_level(ns.n, ns.workers)]
    _emit("".join(lines), ns.output_path)
    return 0


def _run_conditions(ns: argparse.Namespace) -> int:
    fields = ("graph6",) + CONDITION_NAMES + ("kappa_prime_equals_delta",)

    def conditions_row(g):
        table = condition_implication_rows(g)
        row = {"graph6": to_graph6(g)}
        for entry in table:
            row[entry.condition.name] = entry.holds
        row["kappa_prime_equals_delta"] = table[0].kappa_prime_equals_delta
        return row

    _emit(_rows_report(_per_record(ns.input_path, conditions_row), fields, ns.fmt), ns.output_path)
    return 0


def _emit_record(data: dict, ns: argparse.Namespace):
    """Write one record: indented JSON, or a CSV header and one row."""
    if ns.fmt == "json":
        _emit(json.dumps(data, indent=2) + "\n", ns.output_path)
    else:
        body = {k: _csvable(v) for k, v in data.items()}
        _emit(_rows_report([body], tuple(data), ns.fmt), ns.output_path)


def _run_verify(ns: argparse.Namespace) -> int:
    patterns = parse_pattern_set(ns.patterns)
    record = verify_pattern_set(patterns, ns.n_max, _TARGET_CHOICES[ns.target], ns.workers)
    _emit_record(record.as_dict(), ns)
    return 0 if record.held else 2


def _run_mine(ns: argparse.Namespace) -> int:
    patterns = parse_pattern_set(ns.patterns)
    record = mine_witness(patterns, ns.n_max, ns.workers)
    data = {"pair": patterns.label, "witness": None} if record is None else record.as_dict()
    _emit_record(data, ns)
    return 0 if record is not None else 2


def _run_selftest(ns: argparse.Namespace) -> int:
    cases = run_selftest()
    out = []
    for case_id, passed, detail in cases:
        out.append(f"{'PASS' if passed else 'FAIL'} {case_id}: {detail}\n")
    sys.stdout.write("".join(out))
    return 0 if all(passed for _, passed, _ in cases) else 2


def _scan_line(rec) -> str:
    """One summary line for a scan record, naming each of its tallies."""
    mark = "held" if rec.held else f"{len(rec.counterexamples)} counterexamples"
    counts = "".join(f", {count} {name}" for name, count in rec.tallies)
    return (f"  {rec.claim_id}: {mark} "
            f"({rec.graphs_scanned} graphs scanned{counts}, {rec.elapsed_ms:.0f} ms)")


def _run_campaign(ns: argparse.Namespace) -> int:
    """Run the six campaign sections in order, one JSON report each under --out-dir.

    The sections: the embedded selftest, exhaustive equality scans for every
    characterized pattern set of all three targets (one walk over the union
    of their classes, ``scan_claims``), witness mining for the
    listed pairs just beyond the edge-connectivity boundary, the
    sufficient-condition soundness sweep, the minimum-cut interior sweep, and
    the intersection of the two single-equality characterizations.  One
    summary line per record goes to stdout.  Returns 2 when any section finds
    a violation; a failed selftest stops the campaign there.
    """
    # the library's own depth and worker checks, made before any report is written
    walk(ns.n_max)
    walk(ns.sweep_n_max, workers=ns.workers)
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    def report(name: str, payload):
        path = out_dir / f"{name}.json"
        _emit(json.dumps(payload, indent=2) + "\n", str(path))
        print(f"  wrote {path}")

    held = {}
    print("[1/6] selftest")
    cases = [{"case_id": cid, "passed": passed, "detail": detail}
             for cid, passed, detail in run_selftest()]
    report("selftest", cases)
    for row in cases:
        print(f"  {'PASS' if row['passed'] else 'FAIL'} {row['case_id']}")
    held["selftest"] = all(row["passed"] for row in cases)
    if not held["selftest"]:
        print("selftest failed; aborting the campaign", file=sys.stderr)
        return 2

    print(f"[2/6] equality scans, n <= {ns.n_max}")
    scans = scan_claims([(target, ps) for target in TARGETS for ps in characterized_sets(target)],
                        ns.n_max, ns.workers)
    for rec in scans:
        print(_scan_line(rec))
    report("equality_scans", [rec.as_dict() for rec in scans])
    held["equality_scans"] = all(rec.held for rec in scans)

    print(f"[3/6] extension witnesses, n <= {ns.n_max}")
    rows = witness_sweep(ns.n_max, ns.workers)
    for row in rows:
        if row["witness"] is None:
            print(f"  {row['pair']}: no witness up to n={ns.n_max}")
        else:
            print(f"  {row['pair']}: witness {row['witness']} "
                  f"(kappa'={row['kappa_prime']} < delta={row['delta']})")
    report("extension_witnesses", rows)
    held["extension_witnesses"] = all(row["witness"] is not None for row in rows)

    for step, name, title, sweep in (
        (4, "condition_soundness", "sufficient-condition soundness", condition_soundness),
        (5, "cut_interior", "minimum-cut interiors", cut_interior_sweep),
    ):
        print(f"[{step}/6] {title}, n <= {ns.sweep_n_max}")
        rec = sweep(ns.sweep_n_max, ns.workers)
        report(name, rec.as_dict())
        print(_scan_line(rec))
        held[name] = rec.held

    print("[6/6] characterization intersection")
    meet = intersect_characterizations(
        characterized_sets("kappa_kappa_prime"), characterized_sets("kappa_prime_delta"), 6
    )
    report("characterization_intersection",
           [{"label": ps.label, "members": [p.label for p in ps.patterns]} for ps in meet])
    for ps in meet:
        print(f"  meet element: {ps.label}")
    want = [parse_pattern_set(t) for t in CHARACTERIZED_PAIRS["kappa_delta"]]
    held["intersection"] = len(meet) == len(want) and all(
        any(pattern_equivalent(w, got) for got in meet) for w in want
    )

    elapsed = time.perf_counter() - t0
    summary = {name: ("ok" if ok else "VIOLATION") for name, ok in held.items()}
    report("summary", {"elapsed_s": round(elapsed, 1), **summary})
    print(f"campaign finished in {elapsed:.0f}s: "
          + ", ".join(f"{k}={v}" for k, v in summary.items()))
    return 0 if all(held.values()) else 2


_RUNNERS = {
    "invariants": _run_invariants,
    "free": _run_free,
    "atlas": _run_atlas,
    "enumerate": _run_enumerate,
    "conditions": _run_conditions,
    "verify": _run_verify,
    "mine": _run_mine,
    "selftest": _run_selftest,
    "campaign": _run_campaign,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _RUNNERS[ns.subcommand](ns)
    except (GraphError, Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
