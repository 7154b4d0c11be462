"""CLI tests: dispatch, report formats, exit codes, JSON round trips."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgsym import cli
from kgsym.parser import MAX_WORK, parse_jet, parse_operator
from kgsym.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(module, *argv, stdout=subprocess.PIPE, preexec_fn=None,
               **env_extra):
    """Run python -m module argv in a fresh interpreter that imports kgsym
    from src/, with env_extra added to the environment; preexec_fn runs in
    the child before it starts."""
    env = dict(os.environ, **env_extra)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", module, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          text=True, timeout=120, preexec_fn=preexec_fn)


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--max-order", "3")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[-4:]]
    assert rows == [["0", "1", "1"], ["1", "3", "4"],
                    ["2", "5", "9"], ["3", "7", "16"]]


def test_dims_table_at_the_order_bound(capsys):
    bound = cli.MAX_ORDER
    code, out, _ = run_cli(capsys, "--format", "json", "dims", "--max-order",
                           str(bound))
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [
        [str(n), str(2 * n + 1), str((n + 1) ** 2)] for n in range(bound + 1)]


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


@pytest.mark.parametrize("argv, name, text", [
    (["dims", "--max-order"], "--max-order", "\u0661"),
    (["verify-all", "--max-order"], "--max-order", "\u0665"),
    (["basis", "--order"], "--order", "\u0662"),
    (["basis", "--order", "1", "--degree"], "--degree", "\uff13"),
    (["basis", "--order", "1", "--degree"], "--degree", "\u00b3"),
    (["variational-basis", "--order"], "--order", "1_1"),
    (["dims", "--max-order"], "--max-order", "+3"),
    (["dims", "--max-order"], "--max-order", " 3"),
    (["dims", "--max-order"], "--max-order", "abc"),
    (["dims", "--max-order"], "--max-order", "-"),
    (["current", "C1bar", "0"], "LP", "\u0662"),
    (["current", "C2", "3"], "LP", "1_0"),
])
def test_non_ascii_integer_arguments_rejected(capsys, argv, name, text):
    # Only an optional '-' and ASCII digits 0-9 are an integer argument;
    # int() alone would read Arabic-Indic digits, full-width digits,
    # underscores, '+' and spaces.
    code, out, err = run_cli(capsys, *argv, text)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be an integer, got {text!r}\n"


@pytest.mark.parametrize("kp", ["1_0", "-\u0661"])
def test_non_ascii_kp_rejected(capsys, kp):
    code, out, err = run_cli(capsys, "current", "C2", "--", kp, "0")
    assert code == 2
    assert out == ""
    assert err == f"error: KP must be an integer, got {kp!r}\n"


@pytest.mark.parametrize("argv, name", [
    (["dims", "--max-order", "9" * 5000], "--max-order"),
    (["current", "C2", "0", "9" * 5000], "LP"),
])
def test_long_integer_argument_rejected(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} has 5000 digits, past the limit 4300\n"


def _stub_work(monkeypatch):
    """Replace the work behind every bounded integer argument by a stub
    that records its arguments, so a run at a bound takes no time."""
    seen = []

    def record(result):
        return lambda *args, **kwargs: seen.append(
            args + tuple(kwargs.values())) or result

    monkeypatch.setattr(cli, "dimension_table", record([]))
    monkeypatch.setattr(cli.verify, "run_all", record([]))
    monkeypatch.setattr(cli, "solve_linear_determining",
                        record(SimpleNamespace(dim=0, elements=[])))
    monkeypatch.setattr(cli.verify, "basis_op", record("op"))
    monkeypatch.setattr(cli, "current_minimal", record(SimpleNamespace(
        family="C2", t="t", x="x", order=0, characteristic="c")))
    return seen


@pytest.mark.parametrize("argv, name, bound", [
    (["dims", "--max-order"], "--max-order", cli.MAX_ORDER),
    (["verify-all", "--max-order"], "--max-order", cli.MAX_ORDER),
    (["basis", "--order"], "--order", cli.MAX_BASIS_ORDER),
    (["basis", "--order", "0", "--degree"], "--degree",
     cli.MAX_BASIS_DEGREE),
    (["variational-basis", "--order"], "--order", cli.MAX_SKEW_ORDER),
    (["current", "C2"], "KP", cli.MAX_WORD_ORDER),
])
def test_integer_argument_bounds(capsys, monkeypatch, argv, name, bound):
    seen = _stub_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv, str(bound),
                             *(["0"] if name == "KP" else []))
    assert code == 0 and err == ""
    assert seen and bound in seen[0]
    seen.clear()
    code, out, err = run_cli(capsys, *argv, str(bound + 1),
                             *(["0"] if name == "KP" else []))
    assert code == 2
    assert out == "" and seen == []
    assert err == f"error: {name} {bound + 1} exceeds the bound {bound}\n"


def test_word_order_bound_on_lp(capsys, monkeypatch):
    seen = _stub_work(monkeypatch)
    bound = cli.MAX_WORD_ORDER
    assert run_cli(capsys, "current", "C1", "0", str(bound))[0] == 0
    assert seen == [("C1", 0, bound)]
    code, out, err = run_cli(capsys, "current", "C1", "0", str(bound + 1))
    assert code == 2 and out == ""
    assert err == f"error: LP {bound + 1} exceeds the bound {bound}\n"


def test_integer_argument_bounds_admit_documented_inputs():
    # Inputs that tests, golden files, README, verify-all and the benchmark
    # use stay inside the bounds.
    assert cli.MAX_ORDER >= 12
    assert cli.MAX_BASIS_DEGREE >= 22
    assert cli.MAX_BASIS_DEGREE >= cli.MAX_BASIS_ORDER + 2
    assert cli.MAX_SKEW_ORDER >= 81
    assert cli.MAX_WORD_ORDER >= 40


def test_basis_default_degree_at_the_order_bound(capsys, monkeypatch):
    seen = _stub_work(monkeypatch)
    code, _, _ = run_cli(capsys, "basis", "--order", str(cli.MAX_BASIS_ORDER))
    assert code == 0
    assert seen == [(cli.MAX_BASIS_ORDER, cli.MAX_BASIS_ORDER + 2)]


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


_SUM = "+".join(f"u[{k}]" for k in range(300))
_NINES = "9" * 4000


@pytest.mark.parametrize("command, text, position", [
    ("adjoint", "J^1000", 1),
    ("check-symmetry", "(u[0]^1000)^1000", 11),
    ("check-symmetry", "(x+y+u[0])^1000", 10),
    ("check-symmetry", f"({_SUM})*({_SUM})*({_SUM})", 2 * len(_SUM) + 5),
    ("adjoint", "(99^1000)^1000*x", 9),
    ("adjoint", "((7^1000)^1000)^3*x", 15),
    ("adjoint", "((7^1000)^1000)^10*x", 15),
    ("adjoint", "((99^1000)^1000)^1000", 10),
    ("adjoint", f"({_NINES}*x + Dx)^20", len(_NINES) + 9),
    ("check-symmetry", f"({_NINES}*u[0] + u[1])^40", len(_NINES) + 14)],
    ids=["J_power", "nested_power", "sum_power", "product_of_sums",
         "coefficient_power", "coefficient_cube", "coefficient_power_10",
         "nested_coefficient_power", "operator_sum_power",
         "jet_sum_power"])
def test_work_bound_rejected(capsys, command, text, position):
    # Each exponent is within MAX_EXPONENT, and the fourth input has no ^.
    # The last six are charged for the bits of the coefficients they make.
    code, out, err = run_cli(capsys, command, text)
    assert code == 2
    assert out == ""
    assert err == (f"error: products exceed the bound of {MAX_WORK} "
                   f"monomial steps (at position {position})\n")


@pytest.mark.parametrize("text, position", [
    ("(Dx^1000)^20*(x^1000)^20", 12), ("(Dy^1000)^40*(y^1000)^40", 12),
    ("(Dx^1000*Dy)^9*(x^1000*y)^9", 14)], ids=["x", "y", "mixed"])
def test_leibniz_factors_charged_before_they_are_built(text, position):
    # Dx^20000 o x^20000 makes 20,001 Leibniz terms, within MAX_WORK, but
    # their int factors hold gigabits. They are charged before they are
    # built, so a child interpreter capped at 512 MiB of address space
    # rejects each input at once instead of running out of memory.
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = run_module("kgsym", "adjoint", text, preexec_fn=cap_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: products exceed the bound of {MAX_WORK} "
                           f"monomial steps (at position {position})\n")


def test_adjoint_holds_leibniz_factors_once():
    # The derivatives stand on the right, so the parse builds no Leibniz
    # factor; adjoint then forms Dx^20000 o x^20000, whose 20,001 int
    # factors take about 358 MiB. Held once, with no copy made by a factor
    # or coefficient 1, they fit a child capped at 512 MiB of address
    # space, and the result is refused as too large to print.
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = run_module("kgsym", "adjoint", "(x^1000)^20*(Dx^1000)^20",
                      preexec_fn=cap_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: result has a coefficient too "
                                  "large to print")


@pytest.mark.parametrize("command, text", [
    ("adjoint", "Dx^{}"), ("adjoint", "{}*Dx"), ("check-symmetry", "u[{}]")])
def test_long_integer_rejected(capsys, command, text):
    code, out, err = run_cli(capsys, command, text.format("9" * 5000))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "5000 digits" in err
    assert "position" in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("text, position", [
    ("\u00b2", 0), ("Dx^\u00b2", 3), ("\u0663*x", 0)])
def test_non_ascii_digits_rejected(capsys, text, position):
    code, out, err = run_cli(capsys, "adjoint", text)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: unexpected character")
    assert f"(at position {position})" in err


def test_jet_index_bound_rejected(capsys):
    code, out, err = run_cli(capsys, "bracket", "--", "u[10000000]", "u[1]")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: jet index 10000000 ")
    assert "1000 (at position 2)" in err


def test_unprintable_coefficient_rejected(capsys):
    # Squaring a 3000-digit integer gives a 6000-digit coefficient, past
    # the interpreter's 4300-digit limit on printing an int.
    code, out, err = run_cli(capsys, "adjoint", f"({'9' * 3000}*x)^2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "too large to print" in err
    assert "4300 digits" in err and "set_int_max_str_digits" not in err


def test_largest_printable_coefficients_parse_back(capsys):
    # Squaring a 2100-digit integer gives a 4200-digit coefficient, below
    # the 4300-digit print limit, so its text must parse back.
    text = f"({'9' * 2100}*x)^2"
    code, out, _ = run_cli(capsys, "--format", "json", "adjoint", text)
    assert code == 0
    printed = json.loads(out)["result"]["text"]
    assert len(printed) > 4200
    assert parse_operator(printed) == parse_operator(text).adjoint()


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


@pytest.mark.parametrize("rest, message", [
    (["Ctilde"], "current Ctilde needs one operator expression"),
    (["Ctilde", "Dx", "Dy"], "current Ctilde needs one operator expression"),
    (["C2", "1"], "current C2 needs KP and LP")])
def test_current_arity_errors(capsys, rest, message):
    code, out, err = run_cli(capsys, "current", *rest)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_current_unknown_family_exits_2():
    proc = run_module("kgsym", "current", "C3", "0", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument family: invalid choice: 'C3'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)          # no reader is left when the report is written
    try:
        proc = run_module("kgsym.cli", "current", "C0", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_lower_user_digit_limit_named():
    # A limit on int/text conversion below MAX_DIGITS, set by the user, is
    # the parser's bound, named with the input position.
    proc = run_module("kgsym.cli", "adjoint", "9" * 700 + "*x",
                      PYTHONINTMAXSTRDIGITS="640")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert "bound 640" in proc.stderr and "position 0" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_python_m_kgsym_runs_the_cli(capsys):
    proc = run_module("kgsym", "dims", "--max-order", "2")
    code, out, _ = run_cli(capsys, "dims", "--max-order", "2")
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == ""


def test_report_construction():
    by_position = cli.Report("dims", {"max_order": "0"}, {"kind": "jet",
                                                         "text": "u[0]"})
    by_keyword = cli.Report(command="dims", arguments={"max_order": "0"},
                            result={"kind": "jet", "text": "u[0]"})
    for report in (by_position, by_keyword):
        assert report.verified == {} and report.exit_code == 0
        assert report.to_text() == "command: dims\n  max_order: 0\nu[0]"
    assert by_position.verified is not by_keyword.verified
    failed = cli.Report("verify-all", {}, {}, {"all_passed": False})
    assert failed.exit_code == 1
    assert failed.to_text() == "command: verify-all\nall_passed: false"
    # Report is a Record: a frozen value, equal by fields, rebuilt through
    # __init__ by copy and pickle; its dict fields make it unhashable.
    assert by_position == by_keyword and by_position != failed
    assert repr(failed) == ("Report(command='verify-all', arguments={}, "
                            "result={}, verified={'all_passed': False})")
    for name in ("command", "arguments", "result", "verified", "exit_code"):
        with pytest.raises(AttributeError):
            setattr(failed, name, 0)
        with pytest.raises(AttributeError):
            delattr(failed, name)
    for clone in (copy.copy(failed), copy.deepcopy(failed),
                  pickle.loads(pickle.dumps(failed))):
        assert clone == failed and clone.exit_code == 1
    with pytest.raises(TypeError):
        hash(failed)


def test_report_exit_code_follows_the_verified_flags():
    assert cli.Report("dims", {}, {}).exit_code == 0
    assert cli.Report("current", {}, {}, {"a": True, "b": True}).exit_code == 0
    mixed = cli.Report("current", {}, {}, {"a": True, "b": False, "c": True})
    assert mixed.exit_code == 1
    with pytest.raises(TypeError):
        cli.Report("verify-all", {}, {}, {"all_passed": False}, 1)


_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"


def test_import_adds_no_introspection_modules():
    """import kgsym.cli brings in only the standard modules kgsym uses;
    in particular not dataclasses, whose import pulls in inspect, ast and
    dis and costs about 10 ms at every start."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))

    def loaded(prelude):
        """The names in sys.modules of a fresh interpreter after prelude."""
        proc = subprocess.run([sys.executable, "-c", prelude + _MODULES],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return set(proc.stdout.split())

    added = loaded("import kgsym.cli; ") - loaded("")
    assert "kgsym.cli" in added
    assert not {"dataclasses", "inspect"} & added
