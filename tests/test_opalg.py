"""Tests for normal-ordered operators: composition, adjoint, named bases."""

import random
from fractions import Fraction

import pytest

from kgsym import opalg
from kgsym.arith import XYPoly
from kgsym.opalg import (TDOperator, basis_op, basis_shapes, commutator,
                         kg_operator, monomial_op, monomial_product,
                         skew_self_split)
from kgsym.jet import ReducedJetPoly
from kgsym.verify import random_operator, random_rational, random_xypoly

X = XYPoly.variable("x")
Y = XYPoly.variable("y")
DX = TDOperator({(1, 0): 1})
DY = TDOperator({(0, 1): 1})
J = TDOperator.j()
ONE = TDOperator.identity()
L = kg_operator()


def test_generators():
    assert TDOperator.j().terms == {(1, 0): X, (0, 1): -Y}
    assert TDOperator.identity().terms == {(0, 0): XYPoly.one()}
    assert TDOperator({(0, 0): X ** 2}).terms == {(0, 0): X ** 2}


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
    assert not commutator(DX, DY)
    assert not commutator(DX.compose(DY) - ONE, J)


def test_adjoint_examples():
    assert DX.adjoint() == -DX
    assert J.adjoint() == -J
    assert TDOperator({(0, 0): X * Y}).adjoint() == TDOperator({(0, 0): X * Y})
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
    half = TDOperator({(0, 0): Fraction(1, 2)})
    assert basis_op("Q", 1, 1) == (J + half).compose(DX)
    assert basis_op("Q", 2, 1).adjoint() == -basis_op("Q", 2, 1)


def test_basis_op_rejects_qbar_without_derivative():
    with pytest.raises(ValueError):
        basis_op("Qbar", 2, 0)


def test_basis_op_rejects_unknown_kind():
    with pytest.raises(ValueError) as excinfo:
        basis_op("Z", 1, 0)
    assert str(excinfo.value) == "unknown basis kind 'Z'"


def test_basis_shapes_order():
    assert basis_shapes(0) == [("Q", 0, 0)]
    assert basis_shapes(2) == [("Q", 2, 0), ("Q", 0, 2), ("Q", 1, 1),
                               ("Qbar", 0, 2), ("Qbar", 1, 1)]


@pytest.mark.parametrize("n", range(10))
def test_basis_shapes_are_the_words_of_one_order(n):
    shapes = basis_shapes(n)
    assert len(set(shapes)) == len(shapes) == 2 * n + 1
    assert all(k + l == n for _, k, l in shapes)
    assert all(l >= 1 for kind, _, l in shapes if kind == "Qbar")
    if n % 2:
        for shape in shapes:
            op = basis_op(*shape)
            assert op.adjoint() == -op, shape


@pytest.mark.parametrize("kind", ["Q", "Qbar"])
def test_adjoint_parity_law(kind):
    # Every word of order <= 10 (121 words of both kinds), past the k, l <= 4
    # the adjoint parity check covers.
    for t in range(11):
        for shape in basis_shapes(t):
            if shape[0] == kind:
                op = basis_op(*shape)
                assert op.adjoint() == op.scale((-1) ** t), shape


def test_monomial_op_examples():
    assert monomial_op("X", 0, 1) == DX
    assert monomial_op("X", 3, 0) == J ** 3
    assert monomial_op("Y", 2, 2) == (J ** 2).compose(DY.compose(DY))


def test_equation_operator_central():
    for total in range(7):
        for k in range(total + 1):
            l = total - k
            assert not commutator(L, monomial_op("X", k, l))
            assert not commutator(L, monomial_op("Y", k, l))


def test_enveloping_algebra_relations():
    e1, e2, e3 = DX, DY, J
    assert not commutator(e1, e2)
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
    assert d1000.compose(TDOperator({(0, 0): X ** 2})) == expected
    assert d1000.adjoint() == d1000
    assert TDOperator({(0, 1001): Y}).adjoint() == -TDOperator(
        {(0, 1001): XYPoly.one()}).compose(TDOperator({(0, 0): Y}))


@pytest.mark.parametrize("value", [0.1, "1/3"])
def test_scale_rejects_floats_and_strings(value):
    # Only exact rationals scale an operator; a float would be read as its
    # binary fraction.
    with pytest.raises(TypeError):
        DX.scale(value)


def test_products_by_scalars_and_polynomials():
    rng = random.Random(505)
    for _ in range(200):
        op, poly = random_operator(rng), random_xypoly(rng)
        c = random_rational(rng)
        expected = TDOperator({(0, 0): poly}).compose(op)
        assert op.left_mul_poly(poly) == expected
        assert poly * op == expected
        assert c * op == op * c == op.scale(c)
    for value in (0.5, "Dx", ReducedJetPoly.var("u", 0)):
        with pytest.raises(TypeError):
            value * DX
        with pytest.raises(TypeError):
            DX * value


def _word_by_composition(side, k, l, shift):
    """(J + shift)^k o D^l built by repeated compose, one factor at a time."""
    head = J + TDOperator({(0, 0): shift})
    tail = DX if side == "X" else DY
    word = ONE
    for _ in range(k):
        word = word.compose(head)
    for _ in range(l):
        word = word.compose(tail)
    return word


@pytest.mark.parametrize("side", ["X", "Y"])
def test_monomial_op_matches_composition(side):
    for k in range(7):
        for l in range(5):
            for shift in (0, Fraction(l, 2), -Fraction(l, 2), -l,
                          Fraction(-3, 7)):
                assert monomial_op(side, k, l, shift) == _word_by_composition(
                    side, k, l, shift), (side, k, l, shift)


@pytest.mark.parametrize("side", ["X", "Y"])
def test_monomial_op_matches_composition_for_coprime_denominators(side):
    # The recurrence expands (b*J + a)^k in integers for the shift a/b and
    # divides by b^k at the end; compare with Fraction arithmetic throughout.
    big = Fraction(-12345678901234567891, 10 ** 19 + 9)
    assert len(str(big.denominator)) == 20
    for shift in (Fraction(1, 3), Fraction(-5, 4), Fraction(7, 9),
                  Fraction(-2, 9), big):
        for k in range(7):
            for l in range(4):
                word = monomial_op(side, k, l, shift)
                expected = _word_by_composition(side, k, l, shift)
                assert word == expected, (side, k, l, shift)
                assert _coefficient_reprs(word) == _coefficient_reprs(
                    expected), (side, k, l, shift)


def _coefficient_reprs(op):
    return sorted((key, xy, repr(c)) for key, poly in op.terms.items()
                  for xy, c in poly.terms.items())


def test_monomial_op_rejects_bad_input():
    with pytest.raises(TypeError):
        monomial_op("X", 2, 1, 0.5)
    with pytest.raises(ValueError):
        monomial_op("Z", 2, 1)
    with pytest.raises(ValueError):
        monomial_op("X", -1, 0)


@pytest.mark.parametrize("m1, m2", [
    (((300, 0), 0, 0), ((0, 0), 300, 0)),     # Dx^300 o x^300
    (((0, 300), 0, 0), ((0, 0), 0, 300))])    # Dy^300 o y^300
def test_leibniz_factors_are_not_copied(monkeypatch, m1, m2):
    # Only one side's derivative meets a variable, so the other side's
    # factors are [1]; times 1, each big int would be copied. The factors
    # come back as the objects the Leibniz rule built.
    built = []

    def recorded(p, i):
        built.append(leibniz(p, i))
        return built[-1]

    leibniz = opalg._leibniz_factors
    monkeypatch.setattr(opalg, "_leibniz_factors", recorded)
    factors = [f for _, f in monomial_product(m1, m2)]
    longest = max(built, key=len)
    assert len(longest) == 301
    assert all(f is g for f, g in zip(factors, longest, strict=True))
