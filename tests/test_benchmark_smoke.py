"""The benchmark's own smoke test passes on this checkout.

``benchmark/smoke_test.py`` runs all three workloads at the reduced scale
against the reference digests in ``benchmark/reference.json``: level
streams, verify counts, and every sweep row's hypothesis bits, kappa and
kappa'.  So a change in any of those outputs fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
