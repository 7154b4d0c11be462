"""Byte-identity of CLI reports against stored golden files.

Each case runs one command through `cli.run` and compares `to_text()`,
`to_json()` and `exit_code` with tests/golden/<name>.txt, .json and .exit.
A refactor must leave all three unchanged. To record the files again after
an intended output change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import sys
from pathlib import Path

import pytest

from kgsym import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify_all_2": ["verify-all", "--max-order", "2"],
    "dims_4": ["dims", "--max-order", "4"],
    "basis_3_6": ["basis", "--order", "3", "--degree", "6"],
    "variational_basis_5": ["variational-basis", "--order", "5"],
    "current_C1_2_1": ["current", "C1", "2", "1"],
    "current_C2bar_1_2": ["current", "C2bar", "1", "2"],
    "current_Ctilde": ["current", "Ctilde", "(J + 1)^3 * Dx^2"],
    "adjoint": ["adjoint", "(x^2*y+3/4)*Dx^3*Dy^2-J^4"],
    "commutator": ["commutator", "J^3", "x*Dy^2"],
    "bracket": ["bracket", "--", "-u[1]", "-x*u[1] + y*u[-1]"],
}


def _report(argv):
    ns = cli.build_arg_parser().parse_args(argv)
    return cli.run(cli._command_from_namespace(ns))


def _rendered(report):
    return {".txt": report.to_text() + "\n", ".json": report.to_json() + "\n",
            ".exit": f"{report.exit_code}\n"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    for suffix, text in _rendered(_report(CASES[name])).items():
        stored = (GOLDEN / (name + suffix)).read_text(encoding="utf-8")
        assert text == stored, f"{name}{suffix} differs from the golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for suffix, text in _rendered(_report(argv)).items():
            (GOLDEN / (name + suffix)).write_text(text, encoding="utf-8")
    sys.exit(0)
