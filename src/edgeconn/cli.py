"""Command-line front end.

Subcommands: invariants, free, atlas, enumerate, conditions, verify, mine,
selftest.  Reports are JSON (objects, one per line for streams) or CSV.
Exit codes: 0 success / claim held, 2 claim violated or witness missing,
1 usage or I/O error.  Worker count defaults to the EDGECONN_WORKERS
environment variable; a count below 1 is an error (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .atlas import make_family_member, parse_pattern_set, parse_pattern_token
from .conditions import CONDITION_NAMES, condition_implication_rows
from .enumeration import (
    MAX_ENUM_ORDER,
    ensure_level,
    read_graph6_stream,
)
from .graphs import Graph6Error, GraphError, to_graph6
from .invariants import InvariantReport, compute_report
from .iso import is_free
from .selftest import run_selftest
from .verify import TARGETS, mine_witness, verify_pattern_set

_TARGET_CHOICES = {name.replace("_", "-"): name for name in TARGETS}


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    subcommand: str
    n_max: int = 8
    n: int | None = None
    input_path: str | None = None
    output_path: str | None = None
    patterns: str | None = None
    name: str | None = None
    family: int | None = None
    params: str = ""
    target: str = "kappa_prime_delta"
    fmt: str = "json"
    workers: int = 1


def _default_workers() -> int:
    raw = os.environ.get("EDGECONN_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
    p.add_argument("--params", default="", help="family parameters, e.g. 2,2")
    p.add_argument("--out", dest="output_path")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("enumerate", help="stream all connected graphs of one order")
    p.add_argument("--n", type=int, required=True, help=f"order, 1..{MAX_ENUM_ORDER}")
    p.add_argument("--connected-only", action="store_true", default=True,
                   help="accepted for compatibility; enumeration is always connected")
    p.add_argument("--out", dest="output_path")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("conditions", help="sufficient-condition matrix per input graph")
    add_io(p)

    p = sub.add_parser("verify", help="scan an equality claim over pattern-free graphs")
    p.add_argument("--pair", "--patterns", dest="patterns", required=True,
                   help="one or two comma-separated pattern tokens")
    p.add_argument("--target", choices=sorted(_TARGET_CHOICES), default="kappa-prime-delta")
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--out", dest="output_path")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("mine", help="find a pattern-free graph with kappa' below delta")
    p.add_argument("--pair", "--patterns", dest="patterns", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--out", dest="output_path")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=_default_workers())

    sub.add_parser("selftest", help="run the embedded oracle cross-checks")
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    for name in vars(cfg):
        if hasattr(ns, name) and getattr(ns, name) is not None:
            setattr(cfg, name, getattr(ns, name))
    if getattr(ns, "target", None):
        cfg.target = _TARGET_CHOICES[ns.target]
    return cfg


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_report(rows: list[dict], fields: tuple[str, ...], cfg: RunConfig) -> str:
    if cfg.fmt == "json":
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


def _run_invariants(cfg: RunConfig) -> int:
    rows = [compute_report(g).as_dict() for g in read_graph6_stream(cfg.input_path)]
    _emit(_rows_report(rows, InvariantReport.FIELDS, cfg), cfg.output_path)
    return 0


def _run_free(cfg: RunConfig) -> int:
    patterns = parse_pattern_set(cfg.patterns)
    rows = [
        {"graph6": to_graph6(g), "free": is_free(g, patterns)}
        for g in read_graph6_stream(cfg.input_path)
    ]
    _emit(_rows_report(rows, ("graph6", "free"), cfg), cfg.output_path)
    return 0


def _run_atlas(cfg: RunConfig) -> int:
    if cfg.name:
        g = parse_pattern_token(cfg.name).graph
        record = {
            "name": cfg.name,
            "graph6": to_graph6(g),
            "n": g.n,
            "m": g.m,
            "degree_sequence": list(g.degree_sequence()),
        }
    else:
        params = tuple(int(x) for x in cfg.params.split(",") if x.strip())
        member = make_family_member(cfg.family, params)
        record = {
            "family_id": member.family_id,
            "params": list(member.params),
            "graph6": to_graph6(member.graph),
            "certificate": dict(member.certificate),
        }
    if cfg.fmt == "json":
        _emit(json.dumps(record, indent=2) + "\n", cfg.output_path)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in record.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    writer.writerow([k2, v2])
            else:
                writer.writerow([key, _csvable(value)])
        _emit(buf.getvalue(), cfg.output_path)
    return 0


def _run_enumerate(cfg: RunConfig) -> int:
    lines = [to_graph6(g) + "\n" for g in ensure_level(cfg.n, workers=cfg.workers)]
    _emit("".join(lines), cfg.output_path)
    return 0


def _run_conditions(cfg: RunConfig) -> int:
    fields = ("graph6",) + CONDITION_NAMES + ("kappa_prime_equals_delta",)
    rows = []
    for g in read_graph6_stream(cfg.input_path):
        table = condition_implication_rows(g)
        row = {"graph6": to_graph6(g)}
        for entry in table:
            row[entry.condition.name] = entry.holds
        row["kappa_prime_equals_delta"] = table[0].kappa_prime_equals_delta
        rows.append(row)
    _emit(_rows_report(rows, fields, cfg), cfg.output_path)
    return 0


def _run_verify(cfg: RunConfig) -> int:
    patterns = parse_pattern_set(cfg.patterns)
    record = verify_pattern_set(patterns, cfg.n_max, cfg.target, workers=cfg.workers)
    data = record.as_dict()
    if cfg.fmt == "json":
        _emit(json.dumps(data, indent=2) + "\n", cfg.output_path)
    else:
        fields = tuple(data)
        body = {k: _csvable(v) for k, v in data.items()}
        _emit(_rows_report([body], fields, cfg), cfg.output_path)
    return 0 if record.held else 2


def _run_mine(cfg: RunConfig) -> int:
    patterns = parse_pattern_set(cfg.patterns)
    record = mine_witness(patterns, cfg.n_max, workers=cfg.workers)
    if record is None:
        data = {"pair": patterns.label, "witness": None}
    else:
        data = record.as_dict()
    if cfg.fmt == "json":
        _emit(json.dumps(data, indent=2) + "\n", cfg.output_path)
    else:
        _emit(_rows_report([data], tuple(data), cfg), cfg.output_path)
    return 0 if record is not None else 2


def _run_selftest(cfg: RunConfig) -> int:
    cases = run_selftest()
    out = []
    for case_id, passed, detail in cases:
        out.append(f"{'PASS' if passed else 'FAIL'} {case_id}: {detail}\n")
    _emit("".join(out), cfg.output_path)
    return 0 if all(passed for _, passed, _ in cases) else 2


_RUNNERS = {
    "invariants": _run_invariants,
    "free": _run_free,
    "atlas": _run_atlas,
    "enumerate": _run_enumerate,
    "conditions": _run_conditions,
    "verify": _run_verify,
    "mine": _run_mine,
    "selftest": _run_selftest,
}


def run(cfg: RunConfig) -> int:
    """Execute one configured subcommand; returns the process exit code."""
    return _RUNNERS[cfg.subcommand](cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return run(_config_from_args(ns))
    except (GraphError, Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
