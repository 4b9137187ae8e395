#!/usr/bin/env python3
"""Run the verification campaign from a checkout: `edgeconn campaign` without installing.

    python3 scripts/run_verification.py --n-max 9 --out-dir reports

Flags, reports and exit codes are those of `edgeconn campaign --help`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeconn import cli


def main(argv=None) -> int:
    return cli.main(["campaign", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
