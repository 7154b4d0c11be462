"""Failure paths of the verification checks that run over basis words or
over the minimal currents.

Each check takes its words from kgsym.opalg.basis_op through one helper, so
a wrong operator for one shape must make the check fail and name it.
"""

import pytest

from kgsym import verify
from kgsym.arith import XYPoly
from kgsym.noether import current_minimal
from kgsym.opalg import TDOperator, basis_op


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
