"""Failure paths of the verification checks that run over basis words or
over the minimal currents, and the work one run_all call shares.

Each check takes its words from kgsym.opalg.basis_op through one helper, so
a wrong operator for one shape must make the check fail and name it.
"""

from types import SimpleNamespace

import pytest

from kgsym import verify
from kgsym.arith import XYPoly
from kgsym.noether import current_Ctilde, current_minimal
from kgsym.opalg import TDOperator, basis_op
from kgsym.parser import parse_jet
from kgsym.symmetry import DeterminingSystem, solve_linear_determining


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


@pytest.fixture
def cold_solver_cache():
    solve_linear_determining.cache_clear()
    yield
    solve_linear_determining.cache_clear()


def test_run_all_solves_once_and_builds_each_current_once(monkeypatch,
                                                          cold_solver_cache):
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


def test_run_all_builds_each_uniform_current_once(monkeypatch):
    built = []

    def counted_Ctilde(op):
        built.append(op)
        return current_Ctilde(op)
    monkeypatch.setattr(verify, "current_Ctilde", counted_Ctilde)
    results = verify.run_all(2)
    # conservation builds the 3 + 7 + 11 words of orders 1, 3 and 5; the
    # generating action reads the ten of orders 1 and 3 from the table.
    assert len(built) == len(set(built)) == 21
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
