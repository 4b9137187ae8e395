"""One benchmark pass in a fresh interpreter; started by run.py.

Usage: python3 benchmark/workload.py --workload W --seed N --scale S
       --trace 0|1 --oracle 0|1

The pass imports edgeconn from the checkout's src/, builds its inputs,
prints "ready" (the parent takes set-up time from its own clock up to that
line), runs the timed work with workers=1 in this one process, and prints
one JSON line with the wall time, the speed scale from the probe, peak RSS,
the outputs the parent checks, and, when traced, the layer spans.  With
--oracle 1 it also checks kappa and kappa' of the random graphs against
networkx after the timed region.

On a shared 2-core Xeon VM, neighbouring load slows the interpreter by up
to 1.5x in phases lasting seconds to minutes.  Over six passes each, the
raw wall time varied by 10% on verify and 6.5% on enumerate (coefficient
of variation).  So a SpeedProbe runs a fixed work unit from a SIGALRM
handler ten times a second during the timed work, and the pass reports
its time rescaled by the probe's mean speed; over the same passes that
varied by 0.8% and 1.8%.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEVEL_STREAM = Path(__file__).resolve().parent / "data" / "connected_1_8.g6"

SCALES = {
    "full": {"n_max": 8, "random_graphs": 1000},
    "smoke": {"n_max": 6, "random_graphs": 8},
}
RANDOM_ORDERS = (10, 16)
RANDOM_DENSITIES = (0.2, 0.35, 0.5, 0.7)

PROBE_INTERVAL_S = 0.1
PROBE_REPS = 80
PROBE_REFERENCE_S = 0.002  # one sample at the reference speed
_PROBE_ROWS = (0b000000000110, 0b000000001101, 0b000000010011, 0b000000100010,
               0b000001000100, 0b000010001000, 0b000100010000, 0b001000100000,
               0b010001000000, 0b100010000000, 0b000100000000, 0b001000000000)


def _probe_unit(rows=_PROBE_ROWS) -> int:
    """Fixed interpreter work in the package's idiom: bit-row reachability."""
    acc = 0
    for s in range(12):
        seen = 1 << s
        frontier = seen
        while frontier:
            grow = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                grow |= rows[b.bit_length() - 1]
            frontier = grow & ~seen
            seen |= frontier
        acc += seen.bit_count()
    return acc


class SpeedProbe:
    """Samples interpreter speed during the timed work.

    ``scale`` converts this pass's seconds to seconds at the reference
    speed, where one sample takes PROBE_REFERENCE_S.  ``in_region_s`` is the
    probe time spent inside the timed region, which the pass subtracts.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.in_region_s = 0.0
        self._running = False

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            _probe_unit()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        if self._running:
            self.in_region_s += dt

    def start(self):
        self.sample()
        self._running = True
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    @property
    def scale(self) -> float:
        # work done is the time integral of speed, so average the speeds
        # (reference time / sample time), not the sample times
        return statistics.fmean(PROBE_REFERENCE_S / dt for dt in self.samples)


def load_package():
    """Import edgeconn from this checkout only, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import edgeconn
    from edgeconn import conditions, enumeration, graphs, invariants, verify
    if Path(edgeconn.__file__).resolve().parent != src / "edgeconn":
        raise RuntimeError(f"imported edgeconn from {edgeconn.__file__}, not {src}")
    return conditions, enumeration, graphs, invariants, verify


def random_graphs(graphs, seed: int, count: int) -> list:
    """Seeded G(n, p) draws, redrawn until connected; densities cycle."""
    rng = random.Random(seed)
    lo, hi = RANDOM_ORDERS
    out = []
    for i in range(count):
        p = RANDOM_DENSITIES[i % len(RANDOM_DENSITIES)]
        while True:
            n = rng.randint(lo, hi)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = graphs.from_edges(n, edges)
            if graphs.is_connected(g):
                break
        out.append(g)
    return out


def sweep_rows(conditions, invariants, gs) -> list:
    """The invariant bundle per graph: report, hypotheses, cut interiors."""
    rows = []
    for g in gs:
        rep = invariants.compute_report(g)
        implications = conditions.condition_implication_rows(g)
        interior = None
        if rep.kappa_prime < rep.delta:
            interior = invariants.cut_interior_property(g)
        rows.append((rep, implications, interior))
    return rows


def summarize_sweep(rows) -> dict:
    digest = hashlib.sha256()
    fired = gap = interior_failures = unsound = 0
    for rep, implications, interior in rows:
        holds = "".join("1" if r.holds else "0" for r in implications)
        fields = [str(rep.as_dict()[f]) for f in rep.FIELDS]
        digest.update((" ".join(fields + [holds, str(interior)]) + "\n").encode("ascii"))
        fired += holds.count("1")
        unsound += sum(not r.sound for r in implications)
        gap += interior is not None
        interior_failures += interior is False
    return {
        "digest": digest.hexdigest(),
        "graphs": len(rows),
        "hypotheses_fired": fired,
        "gap_graphs": gap,
        "interior_failures": interior_failures,
        "unsound_rows": unsound,
    }


def networkx_mismatches(gs, rows) -> dict:
    """Compare kappa and kappa' with networkx; two checks per graph."""
    checks = 2 * len(gs)
    try:
        import networkx as nx
    except ImportError:
        return {"checks": checks, "mismatches": checks, "error": "networkx is not installed"}
    bad = 0
    for g, (rep, _, _) in zip(gs, rows):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        bad += nx.node_connectivity(h) != rep.kappa
        bad += nx.edge_connectivity(h) != rep.kappa_prime
    return {"checks": checks, "mismatches": bad}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark pass")
    ap.add_argument("--workload", required=True, choices=("enumerate", "verify", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = SCALES[args.scale]
    n_max = size["n_max"]
    conditions, enumeration, graphs, invariants, verify = load_package()
    if set(enumeration._levels) != {1}:
        raise RuntimeError("the level cache is not cold at the start of the pass")

    scan_sets = []
    if args.workload == "verify":
        scan_sets = [(t, ps) for t in verify.TARGETS for ps in verify.characterized_sets(t)]

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    extra = {}
    if args.workload == "sweep":
        data = LEVEL_STREAM.read_bytes()
        extra["input_sha256"] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii").split()
        level = [graphs.from_graph6(s) for s in lines if 2 <= ord(s[0]) - 63 <= n_max]
        randoms = random_graphs(graphs, args.seed, size["random_graphs"])

    print("ready", flush=True)
    probe = SpeedProbe()
    probe.start()
    covered0 = tracer.self_total() if tracer else 0.0
    t0 = time.perf_counter()
    if args.workload == "enumerate":
        digest = hashlib.sha256()
        counts = []
        for n in range(1, n_max + 1):
            found = enumeration.connected_level(n)
            counts.append(len(found))
            for g in found:
                digest.update(graphs.to_graph6(g).encode("ascii") + b"\n")
    elif args.workload == "verify":
        records = [verify.verify_pattern_set(ps, n_max, t, workers=1) for t, ps in scan_sets]
    else:
        level_rows = sweep_rows(conditions, invariants, level)
        random_rows = sweep_rows(conditions, invariants, randoms)
    probe.stop()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # seconds of this pass -> seconds of library work at the reference speed
    speed = probe.scale * (wall - probe.in_region_s) / wall
    result = {
        "wall_s": wall * speed,
        "raw_wall_s": wall,
        "speed_scale": speed,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.restore()
        result["trace"] = tracer.snapshot()
        result["trace"]["coverage"] = (tracer.self_total() - covered0) / wall

    if args.workload == "enumerate":
        result["graphs"] = sum(counts[1:])
        result["outputs"] = {"counts": counts, "sha256": digest.hexdigest()}
    elif args.workload == "verify":
        per_level = sum(len(enumeration.connected_level(n)) for n in range(2, n_max + 1))
        result["graphs"] = per_level * len(scan_sets)
        result["outputs"] = {
            "scanned": [[r.claim_id, r.graphs_scanned] for r in records],
            "counterexamples": sum(len(r.counterexamples) for r in records),
        }
    else:
        result["graphs"] = len(level_rows) + len(random_rows)
        result["outputs"] = {
            **extra,
            "level": summarize_sweep(level_rows),
            "random": summarize_sweep(random_rows),
        }
        if args.oracle:
            t_oracle = time.perf_counter()
            result["oracle"] = networkx_mismatches(randoms, random_rows)
            result["oracle"]["seconds"] = time.perf_counter() - t_oracle
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
