#!/usr/bin/env python3
"""Run the full verification campaign and write JSON reports.

Sections, in order: the embedded selftest, exhaustive equality scans for
every characterized pattern set of all three targets, witness mining for
the catalogued pairs just beyond the edge-connectivity boundary, the
sufficient-condition soundness sweep, the minimum-cut interior sweep, and
the intersection of the two single-equality characterizations.

Each section lands in its own JSON file under --out-dir, and one summary
line per record goes to stdout.  Exit code 0 means every scan held and
every expected witness was found; 2 flags any violation; 1 is usage/IO.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeconn import (
    CHARACTERIZED_PAIRS,
    TARGETS,
    characterized_sets,
    condition_soundness,
    connected_level,
    cut_interior_sweep,
    intersect_characterizations,
    parse_pattern_set,
    pattern_equivalent,
    run_selftest,
    verify_pattern_set,
    walk,
    witness_sweep,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=9,
                    help="scan depth for the equality claims (default 9)")
    ap.add_argument("--sweep-n-max", type=int, default=8,
                    help="depth for the condition and cut-interior sweeps (default 8)")
    ap.add_argument("--out-dir", default="reports", help="report directory")
    ap.add_argument("--workers", type=int, default=os.environ.get("EDGECONN_WORKERS", "1"))
    return ap.parse_args(argv)


def write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"  wrote {path}")


def section_selftest(out_dir: Path) -> bool:
    cases = run_selftest()
    payload = [
        {"case_id": cid, "passed": passed, "detail": detail}
        for cid, passed, detail in cases
    ]
    write_json(out_dir / "selftest.json", payload)
    for row in payload:
        print(f"  {'PASS' if row['passed'] else 'FAIL'} {row['case_id']}")
    return all(row["passed"] for row in payload)


def scan_line(rec) -> str:
    """One summary line for a scan record, naming each of its tallies."""
    mark = "held" if rec.held else f"{len(rec.counterexamples)} counterexamples"
    counts = "".join(f", {count} {name}" for name, count in rec.tallies)
    return (f"  {rec.claim_id}: {mark} "
            f"({rec.graphs_scanned} graphs scanned{counts}, {rec.elapsed_ms:.0f} ms)")


def section_scans(out_dir: Path, n_max: int, workers: int) -> bool:
    records = []
    held = True
    for target in TARGETS:
        for ps in characterized_sets(target):
            rec = verify_pattern_set(ps, n_max, target, workers=workers)
            records.append(rec.as_dict())
            held &= rec.held
            print(scan_line(rec))
    write_json(out_dir / "equality_scans.json", records)
    return held


def section_witnesses(out_dir: Path, n_max: int, workers: int) -> bool:
    rows = witness_sweep(n_max, workers)
    for row in rows:
        if row["witness"] is None:
            print(f"  {row['pair']}: no witness up to n={n_max}")
        else:
            print(f"  {row['pair']}: witness {row['witness']} "
                  f"(kappa'={row['kappa_prime']} < delta={row['delta']}, {row['origin']})")
    write_json(out_dir / "extension_witnesses.json", rows)
    return all(row["witness"] is not None for row in rows)


def section_sweep(out_dir: Path, name: str, rec) -> bool:
    write_json(out_dir / f"{name}.json", rec.as_dict())
    print(scan_line(rec))
    return rec.held


def section_intersection(out_dir: Path) -> bool:
    meet = intersect_characterizations(
        characterized_sets("kappa_kappa_prime"),
        characterized_sets("kappa_prime_delta"),
        6,
    )
    rows = [{"label": ps.label, "members": [p.label for p in ps.patterns]} for ps in meet]
    write_json(out_dir / "characterization_intersection.json", rows)
    for row in rows:
        print(f"  meet element: {row['label']}")
    want = [parse_pattern_set(t) for t in CHARACTERIZED_PAIRS["kappa_delta"]]
    return len(meet) == len(want) and all(
        any(pattern_equivalent(w, got) for got in meet) for w in want
    )


def run_campaign(args) -> int:
    # the library's own checks, made before any section writes a report
    walk(args.n_max)
    walk(args.sweep_n_max)
    connected_level(1, args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    sections = []
    print("[1/6] selftest")
    sections.append(("selftest", section_selftest(out_dir)))
    if not sections[-1][1]:
        print("selftest failed; aborting the campaign", file=sys.stderr)
        return 2

    print(f"[2/6] equality scans, n <= {args.n_max}")
    sections.append(
        ("equality_scans", section_scans(out_dir, args.n_max, args.workers))
    )
    print(f"[3/6] extension witnesses, n <= {args.n_max}")
    sections.append(
        ("extension_witnesses", section_witnesses(out_dir, args.n_max, args.workers))
    )
    print(f"[4/6] sufficient-condition soundness, n <= {args.sweep_n_max}")
    rec = condition_soundness(args.sweep_n_max, args.workers)
    sections.append(("condition_soundness", section_sweep(out_dir, "condition_soundness", rec)))
    print(f"[5/6] minimum-cut interiors, n <= {args.sweep_n_max}")
    rec = cut_interior_sweep(args.sweep_n_max, args.workers)
    sections.append(("cut_interior", section_sweep(out_dir, "cut_interior", rec)))
    print("[6/6] characterization intersection")
    sections.append(("intersection", section_intersection(out_dir)))

    elapsed = time.perf_counter() - t0
    all_ok = all(ok for _, ok in sections)
    summary = {name: ("ok" if ok else "VIOLATION") for name, ok in sections}
    write_json(out_dir / "summary.json", {"elapsed_s": round(elapsed, 1), **summary})
    print(f"campaign finished in {elapsed:.0f}s: "
          + ", ".join(f"{k}={v}" for k, v in summary.items()))
    return 0 if all_ok else 2


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return run_campaign(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
