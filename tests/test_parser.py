"""Parser tests: grammar examples, error reporting, print/parse round trips."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import XYPoly
from kgsym.jet import ReducedJetPoly, reduced_J
from kgsym.opalg import TDOperator, basis_op, kg_operator
from kgsym.parser import (MAX_EXPONENT, MAX_NESTING, ParseError, parse_jet,
                          parse_operator)
from kgsym.verify import random_operator, random_reduced_jet


def test_operator_grammar_examples():
    assert parse_operator("(J + 1/2)^1 * Dx") == basis_op("Q", 1, 1)
    assert parse_operator("Dx*Dy - 1") == kg_operator()
    assert parse_operator("J^0") == TDOperator.identity()


def test_operator_composition_is_noncommutative():
    # Dx * x = x*Dx + 1, while x * Dx stays x*Dx.
    left = parse_operator("Dx*x")
    right = parse_operator("x*Dx")
    assert left == right + TDOperator.identity()


def test_jet_grammar_examples():
    assert parse_jet("x*u[1] - y*u[-1]") == reduced_J(ReducedJetPoly.var("u", 0))
    assert parse_jet("u[0]^2") == ReducedJetPoly.var("u", 0) ** 2
    assert parse_jet("3/2") == ReducedJetPoly.from_poly(Fraction(3, 2))
    assert parse_jet("f[-2]*u[3]") == (ReducedJetPoly.var("f", -2)
                                       * ReducedJetPoly.var("u", 3))


def test_zero_parses():
    assert parse_operator("0").is_zero()
    assert parse_jet("0").is_zero()


def test_unary_signs():
    assert parse_jet("-u[0]^2") == -(ReducedJetPoly.var("u", 0) ** 2)
    assert parse_operator("-Dx") == -TDOperator.dx()
    assert parse_operator("+Dx") == TDOperator.dx()


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dx + ")
    assert excinfo.value.position == 5
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dz")
    assert excinfo.value.position == 0
    with pytest.raises(ParseError) as excinfo:
        parse_jet("u[1")
    assert "position" in str(excinfo.value)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_operator("Dx^-1")
    assert "negative" in str(excinfo.value)
    with pytest.raises(ParseError):
        parse_jet("u[0]^-2")


def test_parenthesis_nesting_bound():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_operator(deepest) == parse_operator("x")
    with pytest.raises(ParseError) as excinfo:
        parse_jet("(" + deepest + ")")
    assert excinfo.value.position == MAX_NESTING


def test_exponent_bound():
    assert parse_operator(f"Dx^{MAX_EXPONENT}") == TDOperator(
        {(MAX_EXPONENT, 0): XYPoly.one()})
    with pytest.raises(ParseError) as excinfo:
        parse_operator(f"Dx^{MAX_EXPONENT + 1}")
    assert str(MAX_EXPONENT) in str(excinfo.value)
    assert excinfo.value.position == 3
    with pytest.raises(ParseError) as excinfo:
        parse_jet("u[0] * (x + 1)^99999999999999999999")
    assert excinfo.value.position == 15


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_operator("Dx Dx")
    with pytest.raises(ParseError):
        parse_jet("u[0] u[1]")


def test_unknown_jet_atom_rejected():
    with pytest.raises(ParseError):
        parse_jet("w[0]")
    with pytest.raises(ParseError):
        parse_jet("Dx")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_operator("1/0")


def test_operator_round_trip_randomized():
    rng = random.Random(51)
    for _ in range(300):
        op = random_operator(rng, max_order=3)
        assert parse_operator(str(op)) == op


def test_jet_round_trip_randomized():
    rng = random.Random(52)
    for _ in range(300):
        p = random_reduced_jet(rng, max_order=4, max_degree=2)
        assert parse_jet(str(p)) == p


def test_round_trip_awkward_coefficients():
    op = TDOperator({(1, 0): XYPoly({(1, 1): Fraction(-3, 7), (0, 0): 1}),
                     (0, 0): XYPoly.constant(Fraction(-1, 2))})
    assert parse_operator(str(op)) == op
    p = ReducedJetPoly({((("u", -3), 2), (("f", 1), 1)):
                        XYPoly({(0, 2): Fraction(5, 3), (1, 0): -2})})
    assert parse_jet(str(p)) == p
