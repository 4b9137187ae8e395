"""Smoke test of the benchmark itself at the reduced scale (n <= 6, 8 random graphs).

Run from the root of a checkout, in a few seconds:
    python3 benchmark/smoke_test.py        (or: python3 -m pytest benchmark/smoke_test.py)

It runs all three workloads untraced and traced, checks that every metric
named in BENCHMARK.json is emitted and that all output checks pass, then
corrupts one reference value per workload and checks that the failure
count rises above zero, so the gate cannot pass vacuously.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((run.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def _run(workload, trace, reference=None):
    return run.run_benchmark(workload, seed=7, seconds=1, trace=trace, scale="smoke",
                             reference=reference)["result"]


def test_every_metric_emitted_and_checks_pass():
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            names = [m["name"] for m in SPEC[kind]]
            assert list(result["metrics"]) == names, (workload, trace)
            for name, unit in ((m["name"], m["unit"]) for m in SPEC[kind]):
                value = result["metrics"][name]["value"]
                assert result["metrics"][name]["unit"] == unit
                assert isinstance(value, (int, float)), (name, value)
            if kind == "end_to_end":
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_corrupted_reference_fails():
    corrupt = copy.deepcopy(REFERENCE)
    smoke = corrupt["smoke"]
    smoke["level_counts"][-1] += 1
    smoke["verify_scanned"][0][1] += 1
    smoke["sweep_level"]["hypotheses_fired"] += 1
    for workload in run.WORKLOADS:
        result = _run(workload, 0, reference=corrupt)
        assert not result["correct"] and result["failed"] > 0, (workload, result)
        assert result["failed"] / result["attempted"] > 0


if __name__ == "__main__":
    test_every_metric_emitted_and_checks_pass()
    test_corrupted_reference_fails()
    print("benchmark smoke test passed")
