"""CLI tests: dispatch, report formats, exit codes, JSON round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgsym import cli
from kgsym.parser import parse_jet, parse_operator
from kgsym.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--max-order", "3")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[-4:]]
    assert rows == [["0", "1", "1"], ["1", "3", "4"],
                    ["2", "5", "9"], ["3", "7", "16"]]


def test_current_json_payload(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "current", "C2", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_rational_arithmetic"] is True
    result = payload["result"]
    assert result["T"] == "-u[0]^2"
    assert result["X"] == "u[1]^2"
    assert result["order"] == "1"
    assert payload["verified"]["divergence_free"] is True
    # jet payloads round-trip through the parser
    assert parse_jet(result["T"]) == -parse_jet("u[0]")**2


def test_adjoint_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "adjoint", "J^2*Dx")
    assert code == 0
    payload = json.loads(out)
    text = payload["result"]["text"]
    original = parse_operator("J^2*Dx")
    assert parse_operator(text) == original.adjoint()


def test_variational_command(capsys):
    code, out, _ = run_cli(capsys, "variational", "J^3")
    assert code == 0
    assert "value: true" in out
    code, out, _ = run_cli(capsys, "variational", "1")
    assert code == 0
    assert "value: false" in out


def test_check_symmetry_command(capsys):
    code, out, _ = run_cli(capsys, "check-symmetry", "x*u[1] - y*u[-1]")
    assert code == 0
    assert "value: true" in out
    code, out, _ = run_cli(capsys, "check-symmetry", "x*u[0]")
    assert code == 0
    assert "value: false" in out


def test_bracket_command(capsys):
    code, out, _ = run_cli(capsys, "bracket", "--", "-u[1]", "-x*u[1] + y*u[-1]")
    assert code == 0
    assert out.strip().splitlines()[-1] == "-u[1]"


def test_commutator_command(capsys):
    code, out, _ = run_cli(capsys, "commutator", "Dx", "J")
    assert code == 0
    assert out.strip().splitlines()[-1] == "Dx"


def test_variational_basis_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "variational-basis", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == "7"
    code, out, _ = run_cli(capsys, "--format", "json",
                           "variational-basis", "--order", "2")
    payload = json.loads(out)
    assert payload["result"]["count"] == "0"


def test_basis_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "basis", "--order", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["dim"] == "4"
    for text in payload["result"]["elements"]:
        parse_jet(text)


def test_current_C0_and_Ctilde(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "current", "C0")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["T"] == "f[0]*u[-1]"
    code, out, _ = run_cli(capsys, "--format", "json", "current", "C0", "barred")
    payload = json.loads(out)
    assert payload["result"]["T"] == "-f[-1]*u[0]"
    code, out, _ = run_cli(capsys, "--format", "json", "current", "Ctilde", "Dx")
    payload = json.loads(out)
    assert payload["result"]["T"] == "-u[0]^2"
    assert payload["result"]["characteristic"] == "2*u[1]"


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "adjoint", "Dx +")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_precondition_violation_exit_code(capsys):
    code, _, err = run_cli(capsys, "current", "Ctilde", "1")
    assert code == 2
    assert "self-adjoint" in err
    code, _, err = run_cli(capsys, "current", "C1", "0", "0")
    assert code == 2
    assert "C1" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--format", "json", "--out", str(target),
                           "dims", "--max-order", "1")
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "dims"


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "--out", str(target),
                             "dims", "--max-order", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_verify_all_small_and_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json",
                             "verify-all", "--max-order", "2")
    code2, out2, _ = run_cli(capsys, "--format", "json",
                             "verify-all", "--max-order", "2")
    assert out1 == out2
    payload = json.loads(out1)
    checks = {c["name"]: c["passed"] for c in payload["result"]["checks"]}
    assert len(checks) == 11
    assert checks["dimension tables"] is True
    assert checks["parser round trip"] is True
    assert code1 == code2


def test_verify_all_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.verify, "run_all", lambda max_order=5: [
        CheckResult(name="stub", passed=False, detail="forced failure")])
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 1
    assert "FAIL" in out


def test_adjoint_of_high_order_operator(capsys):
    code, out, _ = run_cli(capsys, "adjoint", "Dx^1000")
    assert code == 0
    assert out.splitlines()[-1] == "Dx^1000"


@pytest.mark.parametrize("argv, option", [
    (["dims", "--max-order", "-3"], "--max-order"),
    (["verify-all", "--max-order", "-1"], "--max-order"),
    (["variational-basis", "--order", "-2"], "--order"),
    (["basis", "--order", "-2"], "--order"),
    (["basis", "--order", "-3", "--degree", "-5"], "--order"),
    (["basis", "--order", "1", "--degree", "-1"], "--degree"),
    (["current", "C2", "-1", "0"], "KP"),
    (["current", "C1bar", "0", "-2"], "LP"),
])
def test_negative_integer_arguments_rejected(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and option in err


def test_deeply_nested_parentheses_rejected(capsys):
    code, out, err = run_cli(capsys, "adjoint", "(" * 1000 + "x" + ")" * 1000)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "position 100" in err


def test_exponent_bound_rejected(capsys):
    code, out, err = run_cli(capsys, "adjoint", "J^3000")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "1000" in err and "position 2" in err


@pytest.mark.parametrize("signs, expected", [
    ("-" * 1500, "x"), ("+" * 1500, "x"), ("-" * 1501, "-x")])
def test_long_sign_runs_parse(capsys, signs, expected):
    code, out, _ = run_cli(capsys, "adjoint", "--", signs + "x")
    assert code == 0
    assert out.splitlines()[-1] == expected


@pytest.mark.parametrize("rest", [["nonsense", "extra"], ["barred", "x"],
                                  ["unbarred"]])
def test_current_C0_rejects_trailing_words(capsys, rest):
    code, out, err = run_cli(capsys, "current", "C0", *rest)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "barred" in err


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)          # no reader is left when the report is written
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kgsym.cli", "current", "C0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
