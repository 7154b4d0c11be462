"""Tests for normal-ordered operators: composition, adjoint, named bases."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import XYPoly
from kgsym.opalg import (TDOperator, basis_op, commutator, kg_operator,
                         monomial_op, skew_self_split)
from kgsym.verify import random_operator

X = XYPoly.variable("x")
Y = XYPoly.variable("y")
DX = TDOperator.dx()
DY = TDOperator.dy()
J = TDOperator.j()
ONE = TDOperator.identity()
L = kg_operator()


def test_generators():
    assert TDOperator.j().terms == {(1, 0): X, (0, 1): -Y}
    assert TDOperator.identity().terms == {(0, 0): XYPoly.one()}
    assert TDOperator.mul_by(X ** 2).terms == {(0, 0): X ** 2}


def test_compose_reproduces_shift_identities():
    assert DX.compose(J) == (J + ONE).compose(DX)
    assert DY.compose(J) == (J - ONE).compose(DY)


def test_compose_against_expanded_normal_form():
    # Dx o J = x*Dx^2 - y*Dx*Dy + Dx
    expected = TDOperator({(2, 0): X, (1, 1): -Y, (1, 0): XYPoly.one()})
    assert DX.compose(J) == expected


def test_identity_composes_trivially():
    rng = random.Random(7)
    for _ in range(25):
        a = random_operator(rng)
        assert ONE.compose(a) == a
        assert a.compose(ONE) == a


def test_compose_associative_randomized():
    rng = random.Random(8)
    for _ in range(30):
        a = random_operator(rng, max_order=3)
        b = random_operator(rng, max_order=3)
        c = random_operator(rng, max_order=3)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_commutator_examples():
    assert commutator(DX, J) == DX
    assert commutator(DX, DY).is_zero()
    assert commutator(DX.compose(DY) - ONE, J).is_zero()


def test_adjoint_examples():
    assert DX.adjoint() == -DX
    assert J.adjoint() == -J
    assert TDOperator.mul_by(X * Y).adjoint() == TDOperator.mul_by(X * Y)
    assert L.adjoint() == L


def test_adjoint_involutive_antihomomorphism():
    rng = random.Random(9)
    for _ in range(30):
        a = random_operator(rng)
        b = random_operator(rng)
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_basis_op_examples():
    assert basis_op("Q", 0, 0) == ONE
    half = TDOperator.mul_by(Fraction(1, 2))
    assert basis_op("Q", 1, 1) == (J + half).compose(DX)
    assert basis_op("Q", 2, 1).adjoint() == -basis_op("Q", 2, 1)


def test_basis_op_rejects_qbar_without_derivative():
    with pytest.raises(ValueError):
        basis_op("Qbar", 2, 0)


@pytest.mark.parametrize("kind", ["Q", "Qbar"])
def test_adjoint_parity_law(kind):
    for k in range(5):
        for l in range(5):
            if kind == "Qbar" and l == 0:
                continue
            op = basis_op(kind, k, l)
            sign = -1 if (k + l) % 2 else 1
            assert op.adjoint() == op.scale(sign), (kind, k, l)


def test_monomial_op_examples():
    assert monomial_op("X", 0, 1) == DX
    assert monomial_op("X", 3, 0) == J ** 3
    assert monomial_op("Y", 2, 2) == (J ** 2).compose(DY.compose(DY))


def test_equation_operator_central():
    for total in range(7):
        for k in range(total + 1):
            l = total - k
            assert commutator(L, monomial_op("X", k, l)).is_zero()
            assert commutator(L, monomial_op("Y", k, l)).is_zero()


def test_enveloping_algebra_relations():
    e1, e2, e3 = DX, DY, J
    assert commutator(e1, e2).is_zero()
    assert commutator(e1, e3) == e1
    assert commutator(e2, e3) == -e2


def test_skew_self_split():
    assert skew_self_split(DX) == (DX, TDOperator.zero())
    assert skew_self_split(ONE) == (TDOperator.zero(), ONE)
    # k + l = 2 is even, so the operator is already self-adjoint.
    q11 = basis_op("Q", 1, 1)
    assert skew_self_split(q11) == (TDOperator.zero(), q11)


def test_skew_self_split_randomized():
    rng = random.Random(10)
    for _ in range(25):
        a = random_operator(rng)
        skew, self_adj = skew_self_split(a)
        assert skew + self_adj == a
        assert skew.adjoint() == -skew
        assert self_adj.adjoint() == self_adj


def test_operator_order():
    assert TDOperator.zero().order() == -1
    assert L.order() == 2
    assert basis_op("Q", 2, 3).order() == 5


def test_canonical_operator_text():
    assert str(DX.compose(J)) == "(x)*Dx^2 + (-y)*Dx*Dy + Dx"
    assert str(L) == "Dx*Dy - 1"
    assert str(TDOperator.zero()) == "0"


def test_compose_high_order_uses_closed_form():
    # Leibniz: Dx^1000 o x^2 = x^2 Dx^1000 + 2*1000 x Dx^999
    #                          + 1000*999 Dx^998; no recursion per order.
    d1000 = TDOperator({(1000, 0): XYPoly.one()})
    expected = TDOperator({(1000, 0): X ** 2, (999, 0): 2000 * X,
                           (998, 0): 999000})
    assert d1000.compose(TDOperator.mul_by(X ** 2)) == expected
    assert d1000.adjoint() == d1000
    assert TDOperator({(0, 1001): Y}).adjoint() == -TDOperator(
        {(0, 1001): XYPoly.one()}).compose(TDOperator.mul_by(Y))
