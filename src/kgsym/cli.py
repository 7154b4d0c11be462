"""Command-line front end: dispatch, text/JSON reports, verification suite.

Exit codes: 0 on success, 1 when a verified flag of the report is false
(`verify-all` found a failing check) or when stdout is closed before the
report is written (a broken pipe; no traceback is printed), 2 for usage
errors, malformed expressions, violated preconditions and an --out file
that cannot be written. All numbers in JSON payloads are decimal strings,
since exact rationals overflow native JSON numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify
from .noether import (CURRENT_FAMILIES, current_C0, current_Ctilde,
                      current_minimal, is_variational_linear)
from .opalg import commutator
from .parser import parse_jet, parse_operator
from .record import Record
from .symmetry import (dimension_table, is_generalized_symmetry,
                       reduced_bracket, solve_linear_determining)


class Report(Record):
    """Deterministic result payload; rendered as text or JSON. verified maps
    names to bools and defaults to a new empty dict; the exit code is 1 when
    one of them is false, else 0."""
    __slots__ = ("command", "arguments", "result", "verified")

    def __init__(self, command: str, arguments: dict, result: dict,
                 verified: dict | None = None):
        self._init(command, arguments, result,
                   {} if verified is None else verified)

    @property
    def exit_code(self) -> int:
        return 0 if all(self.verified.values()) else 1

    def to_json(self) -> str:
        return json.dumps({"command": self.command,
                           "arguments": self.arguments,
                           "exact_rational_arithmetic": True,
                           "result": self.result, "verified": self.verified},
                          indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.arguments.items():
            lines.append(f"  {key}: {value}")
        lines.extend(_result_lines(self.result))
        for key, value in self.verified.items():
            lines.append(f"{key}: {str(value).lower()}")
        return "\n".join(lines)


def _result_lines(result: dict):
    kind = result.get("kind")
    if kind == "table":
        header = "  ".join(result["columns"])
        yield header
        for row in result["rows"]:
            yield "  ".join(row)
    elif kind == "basis":
        yield f"order: {result['order']}  degree: {result['degree']}  dim: {result['dim']}"
        for element in result["elements"]:
            yield f"  {element}"
    elif kind == "bool":
        yield f"value: {str(result['value']).lower()}"
    elif kind in ("operator", "jet"):
        yield result["text"]
    elif kind == "operator_list":
        yield f"order: {result['order']}  count: {result['count']}"
        for entry in result["elements"]:
            yield f"  {entry['label']}: {entry['text']}"
    elif kind == "current":
        yield f"family: {result['family']}"
        yield f"T: {result['T']}"
        yield f"X: {result['X']}"
        yield f"order: {result['order']}"
        if result.get("characteristic") is not None:
            yield f"characteristic: {result['characteristic']}"
    elif kind == "verification":
        for check in result["checks"]:
            yield verify.CheckResult(**check).line()
        yield f"all passed: {str(result['all_passed']).lower()}"


# Largest value of each integer argument. Work grows steeply with orders and
# degrees; at these bounds one run takes at most about 10 s on a 2-core host
# (verify-all --max-order 16 about 8 s, variational-basis --order 81 7-10 s).
MAX_ORDER = 16          # --max-order of dims and verify-all
MAX_BASIS_ORDER = 40    # --order of basis
MAX_BASIS_DEGREE = 42   # --degree of basis, so the default order + 2 fits
MAX_SKEW_ORDER = 81     # --order of variational-basis
MAX_WORD_ORDER = 40     # KP and LP of current


def _nonnegative_int(name: str, text: str, bound: int) -> int:
    """text as an int from 0 to bound; the errors name the argument name.
    Only an optional '-' and ASCII digits 0-9 are read as an integer: int()
    would also take other Unicode digits, underscores, '+' and spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"{name} must be an integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:      # past the interpreter's int/text digit limit
        raise UsageError(f"{name} has {len(digits)} digits, past the limit "
                         f"{sys.get_int_max_str_digits()}") from None
    if value < 0:
        raise UsageError(f"{name} must be a nonnegative integer, got {value}")
    if value > bound:
        raise UsageError(f"{name} {value} exceeds the bound {bound}")
    return value


def _nonnegative(args: dict, key: str, bound: int) -> int:
    """The option args[key] as an int from 0 to bound; the errors name it."""
    return _nonnegative_int("--" + key.replace("_", "-"), args[key], bound)


def _cmd_dims(args: dict) -> Report:
    max_order = _nonnegative(args, "max_order", MAX_ORDER)
    return Report(
        command="dims", arguments={"max_order": str(max_order)},
        result={"kind": "table",
                "columns": ["order", "graded_dimension", "cumulative_dimension"],
                "rows": [[str(v) for v in row]
                         for row in dimension_table(max_order)]})


def _cmd_basis(args: dict) -> Report:
    n = _nonnegative(args, "order", MAX_BASIS_ORDER)
    d = (_nonnegative(args, "degree", MAX_BASIS_DEGREE)
         if args["degree"] is not None else n + 2)
    basis = solve_linear_determining(n, d)
    return Report(
        command="basis",
        arguments={"order": str(n), "degree": str(d)},
        result={"kind": "basis", "order": str(n), "degree": str(d),
                "dim": str(basis.dim),
                "elements": [str(eta) for eta in basis.elements]},
        verified={"all_pass_symmetry_criterion": True})


def _cmd_check_symmetry(args: dict) -> Report:
    eta = parse_jet(args["expression"])
    value = is_generalized_symmetry(eta)
    return Report(
        command="check-symmetry", arguments={"expression": args["expression"]},
        result={"kind": "bool", "value": value, "expression": str(eta)})


def _cmd_bracket(args: dict) -> Report:
    eta1 = parse_jet(args["left"])
    eta2 = parse_jet(args["right"])
    return Report(
        command="bracket",
        arguments={"left": args["left"], "right": args["right"]},
        result={"kind": "jet", "text": str(reduced_bracket(eta1, eta2))})


def _cmd_adjoint(args: dict) -> Report:
    op = parse_operator(args["operator"])
    return Report(
        command="adjoint", arguments={"operator": args["operator"]},
        result={"kind": "operator", "text": str(op.adjoint())})


def _cmd_commutator(args: dict) -> Report:
    a = parse_operator(args["left"])
    b = parse_operator(args["right"])
    return Report(
        command="commutator",
        arguments={"left": args["left"], "right": args["right"]},
        result={"kind": "operator", "text": str(commutator(a, b))})


def _cmd_variational(args: dict) -> Report:
    op = parse_operator(args["operator"])
    return Report(
        command="variational", arguments={"operator": args["operator"]},
        result={"kind": "bool", "value": is_variational_linear(op),
                "operator": str(op)})


def _cmd_variational_basis(args: dict) -> Report:
    n = _nonnegative(args, "order", MAX_SKEW_ORDER)
    elements = [{"label": label, "text": str(op)} for label, _, op
                in verify.basis_words((n,) if n % 2 == 1 else ())]
    return Report(
        command="variational-basis", arguments={"order": str(n)},
        result={"kind": "operator_list", "order": str(n),
                "count": str(len(elements)), "elements": elements})


def _cmd_current(args: dict) -> Report:
    family = args["family"]
    rest = args["rest"]
    if family == "C0":
        if rest not in ([], ["barred"]):
            raise UsageError("current C0 takes no argument except an "
                             f"optional 'barred', got {' '.join(rest)!r}")
        barred = bool(rest)
        current = current_C0(barred=barred)
        arguments = {"family": "C0", "barred": str(barred).lower()}
    elif family == "Ctilde":
        if len(rest) != 1:
            raise UsageError("current Ctilde needs one operator expression")
        op = parse_operator(rest[0])
        current = current_Ctilde(op)
        arguments = {"family": "Ctilde", "operator": rest[0]}
    else:   # a minimal family: argparse's choices rejected every other name
        if len(rest) != 2:
            raise UsageError(f"current {family} needs KP and LP")
        kp = _nonnegative_int("KP", rest[0], MAX_WORD_ORDER)
        lp = _nonnegative_int("LP", rest[1], MAX_WORD_ORDER)
        current = current_minimal(family, kp, lp)
        arguments = {"family": family, "kp": str(kp), "lp": str(lp)}
    result = {"kind": "current", "family": current.family,
              "T": str(current.t), "X": str(current.x),
              "order": str(current.order)}
    if current.characteristic is not None:
        result["characteristic"] = str(current.characteristic)
    return Report(command="current", arguments=arguments, result=result,
                  verified={"divergence_free": True, "order_matches": True})


def _cmd_verify_all(args: dict) -> Report:
    max_order = _nonnegative(args, "max_order", MAX_ORDER)
    results = verify.run_all(max_order=max_order)
    all_passed = all(r.passed for r in results)
    return Report(
        command="verify-all", arguments={"max_order": str(max_order)},
        result={"kind": "verification",
                "checks": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in results],
                "all_passed": all_passed},
        verified={"all_passed": all_passed})


class UsageError(ValueError):
    pass


def run(ns: argparse.Namespace) -> Report:
    """Run the command of the parsed arguments ns, through the handler its
    subparser set, and return its report."""
    return ns.handler(vars(ns))


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgsym",
        description="Exact symmetry and conservation-law toolkit for the "
                    "light-cone Klein-Gordon equation u_xy = u.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("dims", _cmd_dims, "dimension table of linear symmetries")
    p.add_argument("--max-order", default="3")

    p = command("basis", _cmd_basis, "solve the determining system")
    p.add_argument("--order", required=True)
    p.add_argument("--degree", default=None)

    p = command("check-symmetry", _cmd_check_symmetry,
                "test the on-shell symmetry criterion")
    p.add_argument("expression")

    p = command("bracket", _cmd_bracket,
                "reduced Lie bracket of characteristics")
    p.add_argument("left")
    p.add_argument("right")

    p = command("adjoint", _cmd_adjoint, "formal adjoint of an operator")
    p.add_argument("operator")

    p = command("commutator", _cmd_commutator, "commutator of two operators")
    p.add_argument("left")
    p.add_argument("right")

    p = command("variational", _cmd_variational,
                "test the linear variational criterion")
    p.add_argument("operator")

    p = command("variational-basis", _cmd_variational_basis,
                "skew basis operators of one order")
    p.add_argument("--order", required=True)

    p = command("current", _cmd_current,
                "construct a verified conserved current")
    p.add_argument("family", choices=CURRENT_FAMILIES)
    p.add_argument("rest", nargs="*",
                   help="KP LP for minimal families, an operator expression "
                        "for Ctilde, optionally 'barred' for C0")

    p = command("verify-all", _cmd_verify_all,
                "run the full verification suite")
    p.add_argument("--max-order", default="5")

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    ns = parser.parse_args(argv)
    try:
        report = run(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = report.to_json() if ns.format == "json" else report.to_text()
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write {ns.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        try:
            print(rendered)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone; point stdout at devnull so that the
            # interpreter's own flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
