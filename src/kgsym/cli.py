"""Command-line front end: dispatch, text/JSON reports, verification suite.

Exit codes: 0 on success, 1 when `verify-all` finds a failing check or
when stdout is closed before the report is written (a broken pipe; no
traceback is printed), 2 for usage errors, malformed expressions,
violated preconditions and an --out file that cannot be written. All numbers
in JSON payloads are decimal strings, since exact rationals overflow native
JSON numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import verify
from .noether import (current_C0, current_Ctilde, current_minimal,
                      is_variational_linear)
from .opalg import basis_op, commutator
from .parser import ParseError, parse_jet, parse_operator
from .symmetry import (dimension_table, is_generalized_symmetry,
                       reduced_bracket, solve_linear_determining)


@dataclass
class Command:
    """A validated command with its arguments, ready to run."""
    name: str
    args: dict = field(default_factory=dict)


@dataclass
class Report:
    """Deterministic result payload; rendered as text or JSON."""
    command: str
    arguments: dict
    result: dict
    verified: dict = field(default_factory=dict)
    exit_code: int = 0

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "arguments": self.arguments,
            "exact_rational_arithmetic": True,
            "result": self.result,
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.arguments.items():
            lines.append(f"  {key}: {value}")
        lines.extend(_result_lines(self.result))
        for key, value in self.verified.items():
            if isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key}: {value}")
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
            status = "PASS" if check["passed"] else "FAIL"
            yield f"{status}  {check['name']}: {check['detail']}"
        yield f"all passed: {str(result['all_passed']).lower()}"
    else:
        yield json.dumps(result)


def _nonnegative(args: dict, key: str) -> int:
    """args[key], which must not be negative; the error names the option."""
    value = args[key]
    if value < 0:
        option = "--" + key.replace("_", "-")
        raise UsageError(
            f"{option} must be a nonnegative integer, got {value}")
    return value


def _cmd_dims(args: dict) -> Report:
    max_order = _nonnegative(args, "max_order")
    return Report(
        command="dims", arguments={"max_order": str(max_order)},
        result={"kind": "table",
                "columns": ["order", "graded_dimension", "cumulative_dimension"],
                "rows": [[str(v) for v in row]
                         for row in dimension_table(max_order)]})


def _cmd_basis(args: dict) -> Report:
    n = _nonnegative(args, "order")
    d = _nonnegative(args, "degree") if args["degree"] is not None else n + 2
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
    n = _nonnegative(args, "order")
    elements = []
    if n % 2 == 1:
        entries = [("Q", n, 0)]
        entries += [("Q", k, n - k) for k in range(n)]
        entries += [("Qbar", k, n - k) for k in range(n)]
        for kind, k, l in entries:
            op = basis_op(kind, k, l)
            elements.append({"label": f"{kind}[{k},{l}]", "text": str(op)})
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
    elif family in ("C1", "C1bar", "C2", "C2bar"):
        if len(rest) != 2:
            raise UsageError(f"current {family} needs KP and LP")
        try:
            kp, lp = int(rest[0]), int(rest[1])
        except ValueError as exc:
            raise UsageError(f"KP and LP must be integers: {exc}") from None
        for name, value in (("KP", kp), ("LP", lp)):
            if value < 0:
                raise UsageError(
                    f"{name} must be a nonnegative integer, got {value}")
        current = current_minimal(family, kp, lp)
        arguments = {"family": family, "kp": str(kp), "lp": str(lp)}
    else:
        raise UsageError(f"unknown current family {family!r}")
    result = {"kind": "current", "family": current.family,
              "T": str(current.t), "X": str(current.x),
              "order": str(current.order)}
    if current.characteristic is not None:
        result["characteristic"] = str(current.characteristic)
    return Report(command="current", arguments=arguments, result=result,
                  verified={"divergence_free": True, "order_matches": True})


def _cmd_verify_all(args: dict) -> Report:
    results = verify.run_all(max_order=_nonnegative(args, "max_order"))
    all_passed = all(r.passed for r in results)
    return Report(
        command="verify-all", arguments={"max_order": str(args["max_order"])},
        result={"kind": "verification",
                "checks": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in results],
                "all_passed": all_passed},
        verified={"all_passed": all_passed},
        exit_code=0 if all_passed else 1)


_DISPATCH = {
    "dims": _cmd_dims,
    "basis": _cmd_basis,
    "check-symmetry": _cmd_check_symmetry,
    "bracket": _cmd_bracket,
    "adjoint": _cmd_adjoint,
    "commutator": _cmd_commutator,
    "variational": _cmd_variational,
    "variational-basis": _cmd_variational_basis,
    "current": _cmd_current,
    "verify-all": _cmd_verify_all,
}


class UsageError(ValueError):
    pass


def run(cmd: Command) -> Report:
    """Execute a validated command and return its report."""
    handler = _DISPATCH.get(cmd.name)
    if handler is None:
        raise UsageError(f"unknown command {cmd.name!r}")
    return handler(cmd.args)


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

    p = sub.add_parser("dims", help="dimension table of linear symmetries")
    p.add_argument("--max-order", type=int, default=3)

    p = sub.add_parser("basis", help="solve the determining system")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("check-symmetry",
                       help="test the on-shell symmetry criterion")
    p.add_argument("expression")

    p = sub.add_parser("bracket", help="reduced Lie bracket of characteristics")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("adjoint", help="formal adjoint of an operator")
    p.add_argument("operator")

    p = sub.add_parser("commutator", help="commutator of two operators")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("variational",
                       help="test the linear variational criterion")
    p.add_argument("operator")

    p = sub.add_parser("variational-basis",
                       help="skew basis operators of one order")
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("current", help="construct a verified conserved current")
    p.add_argument("family",
                   choices=("C0", "Ctilde", "C1", "C1bar", "C2", "C2bar"))
    p.add_argument("rest", nargs="*",
                   help="KP LP for minimal families, an operator expression "
                        "for Ctilde, optionally 'barred' for C0")

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--max-order", type=int, default=5)

    return parser


def _command_from_namespace(ns: argparse.Namespace) -> Command:
    args = {key: value for key, value in vars(ns).items()
            if key not in ("command", "format", "out")}
    return Command(name=ns.command, args=args)


def main(argv=None) -> int:
    parser = build_arg_parser()
    ns = parser.parse_args(argv)
    try:
        report = run(_command_from_namespace(ns))
    except (ParseError, UsageError, ValueError) as exc:
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
