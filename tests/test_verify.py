"""Failure paths of the verification checks, each forced through a name
that kgsym.verify imports and named in the check's detail, and the work one
run_all call shares.

Each check takes its words from kgsym.opalg.basis_op through one helper, so
a wrong operator for one shape must make the check fail and name it.
"""

from types import SimpleNamespace

import pytest

from kgsym import verify
from kgsym.arith import XYPoly
from kgsym.jet import ReducedJetPoly, reduced_J
from kgsym.noether import (current_C0, current_Ctilde, current_minimal,
                           is_cl_characteristic, minimal_family_members)
from kgsym.opalg import TDOperator, basis_op
from kgsym.parser import parse_jet, parse_operator
from kgsym.symmetry import (DeterminingSystem, chain_rows, reduced_bracket,
                            solve_linear_determining)


def _patched(monkeypatch, wrong):
    """Make verify.basis_op return wrong for Q[1,0] and the true word for
    every other shape."""
    def patched(kind, k, l):
        return wrong if (kind, k, l) == ("Q", 1, 0) else basis_op(kind, k, l)
    monkeypatch.setattr(verify, "basis_op", patched)


@pytest.mark.parametrize("check", [verify.check_centrality,
                                   verify.check_adjoint_parity,
                                   verify.check_variational_parity])
def test_wrong_word_is_named(monkeypatch, check):
    _patched(monkeypatch, TDOperator.mul_by(XYPoly.variable("x")))
    result = check()
    assert not result.passed
    assert result.detail == "Q[1,0]"


def test_dependent_words_lose_rank(monkeypatch):
    _patched(monkeypatch, basis_op("Q", 0, 1))
    result = verify.check_independence(max_order=2)
    assert not result.passed
    assert result.detail == "rank(1)=2!=3"


@pytest.mark.parametrize("wrong, detail", [
    (basis_op("Q", 0, 1), "words rank(1)=3!=4"),
    (TDOperator.mul_by(XYPoly.variable("x")), "union rank(1)=5!=4")],
    ids=["dependent_word", "word_outside_the_solved_basis"])
def test_dimension_tables_compare_solved_basis_and_words(monkeypatch, wrong,
                                                         detail):
    _patched(monkeypatch, wrong)
    result = verify.check_dimension_tables(max_order=1)
    assert not result.passed
    assert result.detail == detail


def test_counting_needs_independent_characteristics(monkeypatch):
    # C1bar[1,0] built as C1bar[0,1]: still 7 verified currents of order 2,
    # but one characteristic repeats another.
    def patched(family, kp, lp):
        if (family, kp, lp) == ("C1bar", 1, 0):
            kp, lp = 0, 1
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(verify, "current_minimal", patched)
    result = verify.check_counting(max_order=2)
    assert not result.passed
    assert result.detail == "rank(2)=6!=7"


def test_extra_kernel_vector_breaks_saturation(monkeypatch):
    # A vector that is no symmetry, x^3*u[0], injected into the kernel the
    # check solves for: it lies in (0, 3) but not in (0, 2).
    extra = parse_jet("x^3*u[0]")

    def patched(n, d):
        elements = (*solve_linear_determining(n, d).elements, extra)
        return SimpleNamespace(elements=elements, dim=len(elements))
    monkeypatch.setattr(verify, "solve_linear_determining", patched)
    result = verify.check_dimension_tables(max_order=2)
    assert not result.passed
    assert "saturation(0): 2!=1" in result.detail.split("; ")


def test_graded_dimension_is_named(monkeypatch):
    # One of the three rows of chain index 2 relabelled to index 1: the
    # order-1 layer loses an element to the degree saturation of order 0.
    def patched(basis):
        rows = chain_rows(basis)
        first = next(i for i, (m, _) in enumerate(rows) if m == 2)
        rows[first] = (1, rows[first][1])
        return rows
    monkeypatch.setattr(verify, "chain_rows", patched)
    result = verify.check_dimension_tables(max_order=1)
    assert not result.passed
    assert result.detail == "saturation(0): 2!=1; graded(1)=2!=3"


_U0 = ReducedJetPoly.var("u", 0)
_E = {"e0": _U0, "e1": -ReducedJetPoly.var("u", 1),
      "e2": -ReducedJetPoly.var("u", -1), "e3": -reduced_J(_U0)}


@pytest.mark.parametrize("pair, detail", [
    (("e1", "e2"), "[e1,e2]!=0"), (("e1", "e3"), "[e1,e3]!=e1"),
    (("e2", "e3"), "[e2,e3]!=-e2"), (("e0", "e3"), "[e0,e3]!=0")])
def test_structure_constant_relation_is_named(monkeypatch, pair, detail):
    wrong = tuple(_E[name] for name in pair)

    def patched(a, b):
        bracket = reduced_bracket(a, b)
        return bracket + _U0 if (a, b) == wrong else bracket
    monkeypatch.setattr(verify, "reduced_bracket", patched)
    result = verify.check_structure_constants()
    assert not result.passed
    assert result.detail == detail


def test_reduced_lift_names_a_failing_J3(monkeypatch):
    monkeypatch.setattr(verify, "is_variational_linear", lambda op: False)
    result = verify.check_reduced_lift_remark()
    assert not result.passed
    assert result.detail == "J^3 fails the variational criterion"


def test_reduced_lift_names_a_wrong_difference(monkeypatch):
    # J^3 + 1 fails the variational criterion, as the re-lift should, but
    # differs from J^3 by 1.
    wrong = basis_op("Q", 3, 0) + TDOperator.identity()
    monkeypatch.setattr(verify, "lift_linear_characteristic",
                        lambda eta: wrong)
    result = verify.check_reduced_lift_remark()
    assert not result.passed
    assert result.detail == "difference is not 3xy*J*(DxDy - 1)"


def test_conservation_names_a_wrong_order(monkeypatch):
    def patched(family, kp, lp):
        if (family, kp, lp) == ("C2", 1, 0):
            kp = 0
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(verify, "current_minimal", patched)
    result = verify.check_conservation()
    assert not result.passed
    assert result.detail == "C2[1,0]: order 1 != 2"


def test_conservation_names_a_failed_euler_test(monkeypatch):
    wrong = current_minimal("C2", 1, 0).characteristic
    monkeypatch.setattr(verify, "is_cl_characteristic",
                        lambda eta: eta != wrong and is_cl_characteristic(eta))
    result = verify.check_conservation()
    assert not result.passed
    assert result.detail == "C2[1,0]: characteristic fails the Euler test"


def test_generating_action_names_a_wrong_uniform_current(monkeypatch):
    def patched(op):
        if op == basis_op("Q", 0, 1):
            op = op.scale(2)
        return current_Ctilde(op)
    monkeypatch.setattr(verify, "current_Ctilde", patched)
    result = verify.check_generating_action()
    assert not result.passed
    assert result.detail == "Ctilde action mismatch for Q[0,1]"


def test_generating_action_names_a_wrong_barred_current(monkeypatch):
    monkeypatch.setattr(verify, "current_C0",
                        lambda barred=False: current_C0())
    result = verify.check_generating_action()
    assert not result.passed
    assert result.detail == ("superposition action does not give the "
                             "barred current")


def test_counting_checks_order_two_below_it():
    # The check owns its lower bound: max_order 0 or 1 still counts n = 2.
    for max_order in (0, 1):
        result = verify.check_counting(max_order=max_order)
        assert result.passed and result.detail == "n=2: 7"


def test_counting_names_a_missing_member(monkeypatch):
    monkeypatch.setattr(verify, "minimal_family_members",
                        lambda n: minimal_family_members(n)[1:])
    result = verify.check_counting(max_order=2)
    assert not result.passed
    assert result.detail == "count(2)=6!=7; rank(2)=6!=7"


@pytest.mark.parametrize("name, parse, wrong, detail", [
    ("parse_operator", parse_operator, "Dx", "operator #0: 0"),
    ("parse_jet", parse_jet, "u[0]", "jet #0: 1/2*y^2*f[3] - 1/2*x*u[0]")])
def test_parser_round_trip_names_the_first_mismatch(monkeypatch, name, parse,
                                                    wrong, detail):
    # The first of the 1000 seeded values of the kind parses to wrong.
    calls = []

    def patched(text):
        calls.append(text)
        return parse(wrong if len(calls) == 1 else text)
    monkeypatch.setattr(verify, name, patched)
    result = verify.check_parser_round_trip()
    assert not result.passed
    assert result.detail == detail


def test_run_all_solves_once_and_builds_each_current_once(monkeypatch):
    assembled, built = [], []
    assemble = DeterminingSystem.assemble

    def counted_assemble(order, degree):
        assembled.append((order, degree))
        return assemble(order, degree)

    def counted_minimal(family, kp, lp):
        built.append((family, kp, lp))
        return current_minimal(family, kp, lp)
    monkeypatch.setattr(DeterminingSystem, "assemble",
                        staticmethod(counted_assemble))
    monkeypatch.setattr(verify, "current_minimal", counted_minimal)
    verify.run_all(5)
    assert assembled == [(5, 8)]
    assert len(built) == len(set(built)) == 55
    # The shared currents live for one run_all call only.
    built.clear()
    verify.check_counting(max_order=2)
    assert len(built) == 7


def test_run_all_share_protocol(monkeypatch):
    # Conservation leaves each minimal current it builds in the table; the
    # generating action and counting, the last to read them, take theirs
    # out and read the very objects conservation built.
    members = {n: minimal_family_members(n) for n in range(1, 5)}
    table = {}
    assert verify.check_conservation(_table=table).passed
    assert list(table) == [m for n in range(1, 5) for m in members[n]]
    assert len(table) == 36
    built = dict(table)

    def rebuilt(*member):
        raise AssertionError(f"{member} built twice")
    ranked = []

    def recorded_rank(characteristics):
        ranked.append(characteristics)
        return len(characteristics)
    monkeypatch.setattr(verify, "current_minimal", rebuilt)
    monkeypatch.setattr(verify, "independence_rank", recorded_rank)
    assert verify.check_generating_action(_table=table).passed
    assert ("C2", 0, 0) not in table and len(table) == 35
    assert verify.check_counting(max_order=3, _table=table).passed
    assert list(table) == [m for n in (1, 4) for m in members[n]
                           if m != ("C2", 0, 0)]
    assert len(table) == 17
    assert len(ranked) == 2
    for n, characteristics in zip((2, 3), ranked):
        assert len(characteristics) == len(members[n])
        for eta, member in zip(characteristics, members[n]):
            assert eta is built[member].characteristic


def test_run_all_builds_each_uniform_current_once(monkeypatch):
    built = []

    def counted_Ctilde(op):
        built.append(op)
        return current_Ctilde(op)
    monkeypatch.setattr(verify, "current_Ctilde", counted_Ctilde)
    results = verify.run_all(2)
    by_name = {r.name: r for r in results}
    assert by_name["conservation"].detail == "59 currents verified"
    assert by_name["generating conservation law"].passed
    built.clear()
    assert verify.check_generating_action().passed
    assert len(built) == 10


def test_centrality_checks_each_basis_word_once(monkeypatch):
    seen = []

    def recording(kind, k, l):
        op = basis_op(kind, k, l)
        seen.append(op)
        return op
    monkeypatch.setattr(verify, "basis_op", recording)
    result = verify.check_centrality()
    assert result.passed
    assert result.detail == "49 words checked"
    assert len(seen) == len(set(seen)) == 49


def test_check_result_record_contract():
    result = verify.CheckResult(name="a", passed=True, detail="b")
    assert result == verify.CheckResult("a", True, "b")
    assert hash(result) == hash(verify.CheckResult("a", True, "b"))
    assert result != verify.CheckResult("a", False, "b")
    assert repr(result) == "CheckResult(name='a', passed=True, detail='b')"
    assert verify.CheckResult(**{"name": "a", "passed": False,
                                 "detail": "b"}).line() == "FAIL  a: b"
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert result.line() == "PASS  a: b"


def test_check_result_fields_cannot_be_deleted():
    result = verify.CheckResult("a", True, "b")
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError) as excinfo:
            delattr(result, name)
        assert str(excinfo.value) == f"cannot delete field {name!r}"
    assert result == verify.CheckResult("a", True, "b")
