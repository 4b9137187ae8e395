"""The verification campaign: report identity, exit codes, worker input.

The in-process tests go through the checkout shim `scripts/run_verification.py`,
which forwards to `edgeconn campaign`; the subprocess tests run both entries.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgeconn import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_verification.py"
# the checkout shim and the subcommand it forwards to, as subprocess command prefixes
ENTRIES = {
    "shim": [sys.executable, str(SCRIPT)],
    "module": [sys.executable, "-m", "edgeconn.cli", "campaign"],
}
REPORTS = ROOT / "reports"

# the campaign's sections in run order, each named by its report
SECTIONS = (
    "selftest",
    "equality_scans",
    "extension_witnesses",
    "condition_soundness",
    "cut_interior",
    "characterization_intersection",
)
# reports whose content does not depend on the scan depth, so a depth-8 run
# reproduces the committed depth-9 copies byte for byte
DEPTH_FREE_REPORTS = (*(s for s in SECTIONS if s != "equality_scans"), "summary")

# free graphs scanned per characterized set at n <= 8
SCANNED_AT_8 = {
    "kappa_prime_delta:P4": 404,
    "kappa_prime_delta:{H1,P5}": 4181,
    "kappa_prime_delta:{Z2,P6}": 3443,
    "kappa_prime_delta:{Z2,T1_1_3}": 3302,
    "kappa_kappa_prime:P3": 7,
    "kappa_kappa_prime:{Z1,P5}": 123,
    "kappa_kappa_prime:{Z1,K1_4}": 171,
    "kappa_kappa_prime:{Z1,T1_1_2}": 86,
    "kappa_kappa_prime:{P4,H0}": 285,
    "kappa_kappa_prime:{K1_3,H0}": 517,
    "kappa_delta:P3": 7,
    "kappa_delta:{H0,P4}": 285,
    "kappa_delta:{Z1,P5}": 123,
    "kappa_delta:{Z1,T1_1_2}": 86,
}


def load_campaign():
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_report(directory: Path, name: str):
    return json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))


def run_entry(entry, *args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run(
        [*ENTRIES[entry], *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_depth_eight_reports_match_committed(tmp_path, capsys, workers):
    code = load_campaign().main(
        ["--n-max", "8", "--sweep-n-max", "8", "--workers", workers, "--out-dir", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    for name in DEPTH_FREE_REPORTS:
        path = f"{name}.json"
        assert (tmp_path / path).read_bytes() == (REPORTS / path).read_bytes(), name
    scans = read_report(tmp_path, "equality_scans")
    assert {r["claim_id"]: r["graphs_scanned"] for r in scans} == SCANNED_AT_8
    assert [r["claim_id"] for r in scans] == list(SCANNED_AT_8)
    assert all(r["n_max"] == 8 and r["counterexamples"] == [] for r in scans)


def elapsed_keys(value) -> list[str]:
    """The keys starting with 'elapsed' at any depth of a JSON value."""
    if isinstance(value, dict):
        return [k for k in value if k.startswith("elapsed")] + elapsed_keys(list(value.values()))
    if isinstance(value, list):
        return [k for v in value for k in elapsed_keys(v)]
    return []


def test_timing_lives_in_its_own_report(tmp_path, capsys):
    code = load_campaign().main(
        ["--n-max", "5", "--sweep-n-max", "5", "--out-dir", str(tmp_path)]
    )
    capsys.readouterr()
    # witnesses need order 8, so the run finds a violation and still writes its timing
    assert code == 2
    assert read_report(tmp_path, "summary")["extension_witnesses"] == "VIOLATION"
    timing = read_report(tmp_path, "timing")
    assert list(timing) == [*SECTIONS, "total"]
    assert all(type(v) in (int, float) and v >= 0 for v in timing.values()), timing
    assert json_reports(tmp_path) == sorted(f"{n}.json" for n in (*SECTIONS, "summary", "timing"))
    for directory in (tmp_path, REPORTS):
        for name in (*SECTIONS, "summary"):
            assert elapsed_keys(read_report(directory, name)) == [], (directory, name)


def test_failed_selftest_writes_no_timing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_selftest", lambda: [("forced", False, "a failing case")])
    code = load_campaign().main(
        ["--n-max", "5", "--sweep-n-max", "5", "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "selftest failed; aborting the campaign" in err
    assert json_reports(tmp_path) == ["selftest.json"]


def test_bad_flag_exits_one(capsys):
    assert load_campaign().main(["--n-max", "abc"]) == 1
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert load_campaign().main(["--help"]) == 0
    assert "--sweep-n-max" in capsys.readouterr().out


def json_reports(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.glob("*.json"))


def test_sweep_below_order_two_exits_one(tmp_path, capsys):
    # an empty sweep would pass vacuously; the walk refuses the bound instead
    code = load_campaign().main(
        ["--n-max", "2", "--sweep-n-max", "1", "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "error: scans support 2 <= n_max <= 9, got 1" in err
    assert json_reports(tmp_path) == []


@pytest.mark.parametrize("n_max", ["10", "11"])
def test_scan_depth_above_bound_exits_before_any_report(tmp_path, capsys, n_max):
    code = load_campaign().main(["--n-max", n_max, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: scans support 2 <= n_max <= 9, got {n_max}" in err
    assert json_reports(tmp_path) == []


@pytest.mark.parametrize("raw, message", [
    ("abc", "argument --workers: invalid int value: 'abc'"),
    ("0", "error: workers must be at least 1, got 0"),
], ids=["not-an-integer", "zero"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_workers_env_exits_one(tmp_path, entry, raw, message):
    proc = run_entry(entry, "--n-max", "2", "--sweep-n-max", "2", "--out-dir", str(tmp_path),
                     env_extra={"EDGECONN_WORKERS": raw})
    assert proc.returncode == 1
    assert message in proc.stderr
    assert json_reports(tmp_path) == []


@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_workers_env_does_not_break_help(entry):
    proc = run_entry(entry, "--help", env_extra={"EDGECONN_WORKERS": "abc"})
    assert proc.returncode == 0, proc.stderr
