"""Failure paths of the verification checks that run over basis words.

Each check takes its words from kgsym.opalg.basis_op through one helper, so
a wrong operator for one shape must make the check fail and name it.
"""

import pytest

from kgsym import verify
from kgsym.arith import XYPoly
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
