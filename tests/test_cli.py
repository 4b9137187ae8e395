"""Command-line front end: subcommands, formats, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

from edgeconn import bridged_triangles, connected_level, from_graph6, to_graph6
from edgeconn.cli import main

# the constructor's labeling of the bridged triangles; the enumerator emits
# the same isomorphism class as 'EqhO'
H1_G6 = to_graph6(bridged_triangles())
H1_ENUMERATED = "EqhO"


def invoke(capsys, *args):
    """Run main() in process and return (exit_code, stdout)."""
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_scripts():
    """The [project.scripts] table of the repo's pyproject.toml."""
    reader = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return reader.load(fh)["project"].get("scripts", {})


def invoke_subprocess(*args, env_extra=None, timeout=300):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "edgeconn.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestInvariants:
    def test_json_rows(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(f"Bw\n{H1_G6}\n")
        code, out = invoke(capsys, "invariants", "--in", str(path))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["graph6"] for r in rows] == ["Bw", H1_G6]
        assert rows[0]["kappa_prime"] == 2 and rows[0]["delta"] == 2
        assert rows[1]["kappa_prime"] == 1 and rows[1]["delta"] == 2
        assert list(rows[0]) == [
            "graph6", "n", "m", "delta", "kappa", "kappa_prime", "omega", "diameter",
        ]

    def test_csv_matches_json(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(f"Bw\n{H1_G6}\n")
        code_j, out_j = invoke(capsys, "invariants", "--in", str(path))
        code_c, out_c = invoke(capsys, "invariants", "--in", str(path), "--format", "csv")
        assert code_j == code_c == 0
        json_rows = [json.loads(line) for line in out_j.splitlines()]
        csv_rows = list(csv.DictReader(io.StringIO(out_c)))
        assert len(csv_rows) == len(json_rows) == 2
        for jr, cr in zip(json_rows, csv_rows):
            for key, value in jr.items():
                assert str(value) == cr[key]

    def test_out_file(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Bw\n")
        dst = tmp_path / "report.jsonl"
        code = main(["invariants", "--in", str(src), "--out", str(dst)])
        assert code == 0
        assert json.loads(dst.read_text())["n"] == 3

    def test_missing_file(self, tmp_path, capsys):
        code = main(["invariants", "--in", str(tmp_path / "nope.g6")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_bad_record_names_line(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("Bw\nBww\n")
        code = main(["invariants", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert ":2:" in err

    @pytest.mark.parametrize("record, why", [
        ("B?", "is defined here for connected graphs"),
        ("@", "needs at least two vertices"),
    ])
    def test_record_outside_domain_names_line(self, tmp_path, capsys, record, why):
        path = tmp_path / "in.g6"
        path.write_text(f"Bw\nBg\n{record}\nBw\n")
        code = main(["invariants", "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {path}:3: an invariant report {why}\n"


class TestFree:
    def test_verdicts(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(f"Bw\n{H1_G6}\n")
        code, out = invoke(capsys, "free", "--in", str(path), "--pair", "Z2,P6")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"graph6": "Bw", "free": True}
        assert rows[1] == {"graph6": H1_G6, "free": False}

    def test_patterns_alias(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("Bw\n")
        code, out = invoke(capsys, "free", "--in", str(path), "--patterns", "K3")
        assert code == 0
        assert json.loads(out)["free"] is False

    def test_bad_token(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("Bw\n")
        code = main(["free", "--in", str(path), "--pair", "Q9"])
        err = capsys.readouterr().err
        assert code == 1 and "error:" in err


class TestAtlas:
    def test_named_graph(self, capsys):
        code, out = invoke(capsys, "atlas", "--name", "H1")
        assert code == 0
        record = json.loads(out)
        assert record["graph6"] == H1_G6
        assert record["degree_sequence"] == [3, 3, 2, 2, 2, 2]

    def test_family_member(self, capsys):
        code, out = invoke(capsys, "atlas", "--family", "6", "--params", "2,2")
        assert code == 0
        record = json.loads(out)
        assert record["family_id"] == 6 and record["params"] == [2, 2]
        assert record["certificate"]["kappa_prime=1"] is True
        assert record["certificate"]["T1_1_4_free"] is True

    def test_family_member_csv(self, capsys):
        code, out = invoke(capsys, "atlas", "--family", "4", "--format", "csv")
        assert code == 0
        cells = {row[0]: row[1] for row in csv.reader(io.StringIO(out)) if row}
        assert cells["graph6"] == H1_G6

    def test_bad_parameters(self, capsys):
        # a value out of range, then too many and too few values
        for family, params in (("1", "2"), ("1", "3,4"), ("2", "5")):
            code = main(["atlas", "--family", family, "--params", params])
            err = capsys.readouterr().err
            assert code == 1 and f"family {family} expects" in err, err
        # malformed fields, and --params without --family, are refused by name
        for args in (("--family", "1", "--params", "x"), ("--family", "1", "--params", "4,,1"),
                     ("--family", "1", "--params", "4,"), ("--name", "P5", "--params", "3")):
            code = main(["atlas", *args])
            err = capsys.readouterr().err
            assert code == 1 and "--params" in err, (args, err)
        # a family without parameters needs no --params
        assert main(["atlas", "--family", "4"]) == 0
        capsys.readouterr()

    def test_family_member_past_graph6_limit(self, capsys):
        code = main(["atlas", "--family", "2", "--params", "30,30"])
        err = capsys.readouterr().err
        assert code == 1 and "has 89 vertices; members have at most 62" in err, err
        # 2 * 30 + 3 - 1 = 62 vertices, the largest printable member
        code, out = invoke(capsys, "atlas", "--family", "2", "--params", "30,3")
        assert code == 0 and from_graph6(json.loads(out)["graph6"]).n == 62

    def test_name_and_family_exclusive(self, capsys):
        code = main(["atlas", "--name", "H1", "--family", "1"])
        capsys.readouterr()
        assert code == 1


class TestEnumerate:
    def test_level_five(self, capsys):
        code, out = invoke(capsys, "enumerate", "--n", "5")
        assert code == 0
        lines = out.split()
        assert lines == [to_graph6(g) for g in connected_level(5)]

    def test_out_of_range(self, capsys):
        code = main(["enumerate", "--n", "12"])
        err = capsys.readouterr().err
        assert code == 1 and "error:" in err

    def test_workers_flag_keeps_output(self, capsys):
        code1, out1 = invoke(capsys, "enumerate", "--n", "6")
        code2, out2 = invoke(capsys, "enumerate", "--n", "6", "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2


class TestWorkerCount:
    @pytest.mark.parametrize("sub", [
        ["enumerate", "--n", "5"],
        ["verify", "--pair", "P4", "--n-max", "5"],
        ["mine", "--pair", "P4", "--n-max", "5"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, sub, workers):
        code = main([*sub, "--workers", workers])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"error: workers must be at least 1, got {workers}" in err


class TestConditions:
    def test_csv_header_contract(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("Bw\n")
        code, out = invoke(capsys, "conditions", "--in", str(path), "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == [
            "graph6",
            "chartrand",
            "lesniak",
            "plesnik_diam2",
            "volkmann_bipartite",
            "plesnik_znam_quadruple",
            "plesnik_znam_bipartite_diam3",
            "xu_pairing",
            "dankelmann_volkmann",
            "kappa_prime_equals_delta",
        ]

    def test_json_row_values(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(f"{H1_G6}\n")
        code, out = invoke(capsys, "conditions", "--in", str(path))
        assert code == 0
        row = json.loads(out)
        assert row["kappa_prime_equals_delta"] is False
        assert all(row[name] is False for name in (
            "chartrand", "lesniak", "plesnik_diam2", "volkmann_bipartite",
            "plesnik_znam_quadruple", "plesnik_znam_bipartite_diam3",
            "xu_pairing", "dankelmann_volkmann",
        ))

    @pytest.mark.parametrize("record, why", [
        ("B?", "is defined here for connected graphs"),
        ("@", "needs at least two vertices"),
    ])
    def test_record_outside_domain_names_line(self, tmp_path, capsys, record, why):
        path = tmp_path / "in.g6"
        path.write_text(f"Bw\nBg\n{record}\nBw\n")
        code = main(["conditions", "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {path}:3: a sufficient condition {why}\n"


class TestVerify:
    def test_held_claim(self, capsys):
        code = main(["verify", "--pair", "P4", "--n-max", "6"])
        out, err = capsys.readouterr()
        assert code == 0
        record = json.loads(out)
        assert record["claim_id"] == "kappa_prime_delta:P4"
        assert record["counterexamples"] == []
        assert record["n_max"] == 6
        assert record["graphs_scanned"] > 0
        # the scan time goes to stderr, apart from the record
        assert re.fullmatch(rf"scanned {record['graphs_scanned']} graphs in \d+\.\d{{3}} s\n", err)

    def test_violated_claim(self, capsys):
        code, out = invoke(capsys, "verify", "--pair", "P5", "--n-max", "6")
        assert code == 2
        record = json.loads(out)
        assert record["counterexamples"] == [H1_ENUMERATED]

    def test_alternate_target(self, capsys):
        code, out = invoke(
            capsys, "verify", "--pair", "P4", "--n-max", "5",
            "--target", "kappa-kappa-prime",
        )
        assert code == 2
        assert json.loads(out)["claim_id"] == "kappa_kappa_prime:P4"

    def test_csv_format(self, capsys):
        code, out = invoke(
            capsys, "verify", "--pair", "P5", "--n-max", "6", "--format", "csv"
        )
        assert code == 2
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["claim_id"] == "kappa_prime_delta:P5"
        assert rows[0]["counterexamples"] == H1_ENUMERATED

    def test_unknown_target_is_usage_error(self, capsys):
        code = main(["verify", "--pair", "P4", "--target", "nonsense"])
        capsys.readouterr()
        assert code == 1

    def test_empty_pattern_field_is_usage_error(self, capsys):
        code = main(["verify", "--pair", "Z2,,P6", "--n-max", "4"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error: empty field in pattern list 'Z2,,P6'" in err

    def test_non_ascii_record_is_usage_error(self, capsys):
        # read as '?' this record would be a connected 6-vertex pattern
        code = main(["verify", "--pair", "g6:E~\u00e9g", "--n-max", "6"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error: byte 2 value 195 outside graph6 range" in err

    def test_non_ascii_digit_parameter_is_usage_error(self, capsys):
        # int() would read the Arabic-Indic six as 6 and label the claim {Z2,P\u0666}
        code = main(["verify", "--pair", "Z2,P\u0666", "--n-max", "6"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error: cannot parse pattern token 'P\u0666'" in err

    def test_leading_zero_parameter_is_usage_error(self, capsys):
        # read as 6 this token would label the {Z2,P6} claim {Z2,P06}
        code = main(["verify", "--pair", "Z2,P06", "--n-max", "5"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error: cannot parse pattern token 'P06'" in err


class TestMine:
    def test_witness_found(self, capsys):
        code, out = invoke(capsys, "mine", "--pair", "Z2,P7", "--n-max", "8")
        assert code == 0
        assert json.loads(out) == {"pair": "{Z2,P7}", "witness": "GqGSQG",
                                   "kappa_prime": 1, "delta": 2}

    def test_witness_absent(self, capsys):
        code, out = invoke(capsys, "mine", "--pair", "Z2,P6", "--n-max", "6")
        assert code == 2
        assert json.loads(out) == {"pair": "{Z2,P6}", "witness": None}

    def test_csv_format(self, capsys):
        code, out = invoke(capsys, "mine", "--pair", "Z2,P7", "--n-max", "8", "--format", "csv")
        assert code == 0
        assert out == 'pair,witness,kappa_prime,delta\n"{Z2,P7}",GqGSQG,1,2\n'
        code, out = invoke(capsys, "mine", "--pair", "Z2,P6", "--n-max", "6", "--format", "csv")
        assert code == 2
        assert out == 'pair,witness\n"{Z2,P6}",\n'


class TestUsage:
    def test_no_subcommand(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 1

    def test_unknown_flag(self, capsys):
        code = main(["enumerate", "--n", "4", "--frobnicate"])
        capsys.readouterr()
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign" in out


class TestSubprocessEntry:
    def test_module_invocation_selftest(self):
        proc = invoke_subprocess("selftest")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS ") for line in lines)

    def test_module_invocation_verify(self):
        proc = invoke_subprocess("verify", "--pair", "Z2,P6", "--n-max", "6")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["claim_id"] == "kappa_prime_delta:{Z2,P6}"

    def test_large_symmetric_member_is_not_canonicalised(self):
        # telling K12 from P4 apart needs no canonical form, which K12's symmetry makes slow
        proc = invoke_subprocess("verify", "--pair", "K12,P4", "--n-max", "4", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["claim_id"] == "kappa_prime_delta:{K12,P4}"
        # nor does mining, which walks the same pair-free graphs
        proc = invoke_subprocess("mine", "--pair", "K12,P4", "--n-max", "4", timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout) == {"pair": "{K12,P4}", "witness": None}

    def test_workers_env_default(self):
        proc = invoke_subprocess(
            "enumerate", "--n", "7", env_extra={"EDGECONN_WORKERS": "2"}
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.split()) == 853

    @pytest.mark.parametrize("raw, message", [
        ("abc", "argument --workers: invalid int value: 'abc'"),
        ("0", "error: workers must be at least 1, got 0"),
    ], ids=["not-an-integer", "zero"])
    def test_bad_workers_env_exits_one(self, raw, message):
        proc = invoke_subprocess("enumerate", "--n", "3", env_extra={"EDGECONN_WORKERS": raw})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in proc.stderr

    def test_workers_flag_overrides_bad_env(self):
        proc = invoke_subprocess(
            "enumerate", "--n", "3", "--workers", "2", env_extra={"EDGECONN_WORKERS": "abc"}
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["Bo", "Bw"]

    def test_console_script_registered(self):
        scripts = declared_scripts()
        assert scripts.get("edgeconn") == "edgeconn.cli:main"
        ep = EntryPoint(name="edgeconn", value=scripts["edgeconn"], group="console_scripts")
        assert ep.load() is main

    def test_installed_console_script_matches_declaration(self):
        try:
            dist = distribution("edgeconn")
        except PackageNotFoundError:
            pytest.skip("edgeconn is not installed; no registered console script to check")
        hits = [
            ep for ep in dist.entry_points
            if ep.group == "console_scripts" and ep.name == "edgeconn"
        ]
        assert hits and hits[0].value == declared_scripts()["edgeconn"]
