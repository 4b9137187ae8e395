#!/usr/bin/env python3
"""edgeconn benchmark: the campaign's own stages at order <= 8.

Usage:
    python3 benchmark/run.py --workload {enumerate,verify,sweep} --seed N
                             --seconds S --trace {0,1} [--scale {full,smoke}]

Run from the root of a checkout.  Each pass is a fresh interpreter
(benchmark/workload.py) that starts from an empty level cache, so every
pass pays the cold cost a user of ``edgeconn verify`` or the campaign pays.
There are at least two passes (with --trace 1 they alternate untraced and
traced), and more while the next one fits in --seconds; timings are
medians over the untraced passes.  Every pass's outputs are checked
against benchmark/reference.json.

All reported seconds are at a fixed reference interpreter speed: each pass
multiplies its own times by the speed scale its in-process probe measured
(see workload.py), which removes most of the host's load-dependent drift.
The raw wall time is printed next to the metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, graphs_per_s, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer ones from the traced passes.  attempted and failed count output
checks, so fail_ratio = failed / attempted; it is printed with the other
metrics on the lines before the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("enumerate", "verify", "sweep")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_PASSES = 2

LEVEL_ORDERS = (6, 7, 8)
TIMED_SPANS = {  # span -> which of (calls, total, self) become metrics
    "enumeration.expand_children": ("calls", "self_s"),
    "enumeration.non_cut": ("calls", "s"),
    "iso.canonical": ("calls", "s"),
    "iso.refine": ("calls", "s"),
    "iso.is_free": ("calls", "s"),
    "invariants.min_degree": ("calls", "s"),
    "invariants.edge_connectivity": ("calls", "s"),
    "invariants.vertex_connectivity": ("calls", "s"),
    "invariants.cut_interior_property": ("calls", "s"),
    "invariants.compute_report": ("calls", "self_s"),
    "conditions.implication_rows": ("calls", "self_s"),
    "matching.matching_number": ("calls", "s"),
    "graphs.from_graph6": ("s",),
    "graphs.to_graph6": ("s",),
    "verify.scan": ("calls", "self_s"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_pass(workload, seed, scale, trace, oracle, deadline) -> dict:
    """Run one pass in a fresh interpreter; returns its result with setup_s."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(int(trace)),
           "--oracle", str(int(oracle))]
    env = {k: v for k, v in os.environ.items() if k not in ("EDGECONN_WORKERS", "PYTHONPATH")}
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - t_spawn), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        tail = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not tail:
        raise BenchError(f"{workload} pass failed (exit code {code})")
    result = json.loads(tail[-1])
    result["setup_s"] = (t_ready - t_spawn) * result["speed_scale"]
    # the networkx check runs once per run, so it is left out of the pass length
    oracle_s = result.get("oracle", {}).get("seconds", 0.0)
    result["pass_s"] = time.perf_counter() - t_spawn - oracle_s
    return result


def check_pass(workload, res, ref, first) -> list[tuple[str, bool]]:
    """Named output checks for one pass; each counts toward fail_ratio."""
    out = res["outputs"]
    checks = []
    if workload == "enumerate":
        want = ref["level_counts"]
        got = out["counts"]
        checks += [(f"count n={n}", got[n - 1:n] == [c]) for n, c in enumerate(want, 1)]
        checks.append(("stream sha256", out["sha256"] == ref["level_stream_sha256"]))
    elif workload == "verify":
        want = [tuple(x) for x in ref["verify_scanned"]]
        got = [tuple(x) for x in out["scanned"]]
        checks += [(f"scanned {cid}", (cid, c) in got) for cid, c in want]
        checks.append(("set count", len(got) == len(want)))
        checks.append(("no counterexamples", out["counterexamples"] == 0))
    else:
        level, rnd = out["level"], out["random"]
        checks.append(("input sha256", out["input_sha256"] == ref["input_sha256"]))
        for key, value in ref["sweep_level"].items():
            checks.append((f"level {key}", level[key] == value))
        checks.append(("random graphs", rnd["graphs"] == ref["random_graphs"]))
        checks.append(("random unsound rows", rnd["unsound_rows"] == 0))
        if first is not None:
            checks.append(("random rows repeat", rnd == first["outputs"]["random"]))
        if "oracle" in res:
            o = res["oracle"]
            checks += [("networkx", False)] * o["mismatches"]
            checks += [("networkx", True)] * (o["checks"] - o["mismatches"])
    return checks


def layer_metrics(res, untraced_wall) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = res["trace"]["spans"]
    counters = res["trace"]["counters"]
    speed = res["speed_scale"]
    zero = [0, 0.0, 0.0]
    m = {}
    for n in LEVEL_ORDERS:
        m[f"enumeration.level_s.n{n}"] = spans.get(f"enumeration.level.n{n}", zero)[1] * speed
    for span, kinds in TIMED_SPANS.items():
        calls, total, own = spans.get(span, zero)
        for kind in kinds:
            m[f"{span}.{kind}"] = {"calls": calls, "s": total * speed, "self_s": own * speed}[kind]
    canon = counters["enumeration.child_canonicalisations"]
    free_calls = spans.get("iso.is_free", zero)[0]
    m["enumeration.children"] = counters["enumeration.children"]
    m["enumeration.accept_ratio"] = counters["enumeration.children"] / canon if canon else 0.0
    m["iso.is_free.free_ratio"] = counters["iso.is_free.free"] / free_calls if free_calls else 0.0
    m["conditions.hypotheses_fired"] = counters["conditions.hypotheses_fired"]
    m["verify.graphs_scanned"] = counters["verify.graphs_scanned"]
    m["verify.counterexamples"] = counters["verify.counterexamples"]
    m["trace.overhead_ratio"] = res["wall_s"] / untraced_wall
    m["trace.span_coverage"] = res["trace"]["coverage"]
    return m


def declared(values: dict, kind: str) -> dict:
    """Attach BENCHMARK.json units; the computed names must match the declared ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_benchmark(workload, seed, seconds, trace, scale="full", reference=None) -> dict:
    """Run the passes and checks; returns the result object and a report."""
    if reference is None:
        reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    ref = reference[scale]
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    checks: list[tuple[str, bool]] = []
    first = None
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        oracle = workload == "sweep" and first is None
        res = run_pass(workload, seed, scale, traced, oracle, deadline)
        res["traced"] = traced
        checks += check_pass(workload, res, ref, first)
        if first is None:
            first = res
        passes.append(res)
        elapsed = time.perf_counter() - start
        longest = max(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        per_pass = [layer_metrics(p, wall) for p in passes if p["traced"]]
        metrics = declared({k: statistics.median(pm[k] for pm in per_pass)
                            for k in per_pass[0]}, "per_layer")
    else:
        metrics = declared({
            "wall_s": wall,
            "graphs_per_s": plain[0]["graphs"] / wall,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }, "end_to_end")
    failed = [name for name, ok in checks if not ok]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "failed_checks": sorted(set(failed)),
        "elapsed_s": time.perf_counter() - start,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "speed_scale": statistics.median(p["speed_scale"] for p in plain),
    }
    return {"result": result, "report": report}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="edgeconn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "edgeconn" / "__init__.py").is_file():
        print(f"error: no edgeconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, report = out["result"], out["report"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} passes={report['passes']} "
          f"traced_passes={report['traced_passes']} elapsed_s={report['elapsed_s']:.1f}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':42s} {ratio:>14.6g} 1 "
          f"({result['failed']}/{result['attempted']} output checks failed)")
    print(f"  {'raw wall time, median':42s} {report['raw_wall_s']:>14.6g} s "
          f"(speed scale {report['speed_scale']:.4f})")
    for name in report["failed_checks"]:
        print(f"  FAILED CHECK: {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
