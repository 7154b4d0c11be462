"""Tests for the reduced and free jet spaces and the maps between them."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import XYPoly, accumulate
from kgsym.jet import (FreeJetPoly, ReducedJetPoly, apply_operator_free,
                       apply_operator_reduced, eval_exp_family, euler_operator,
                       reduce, reduced_J)
from kgsym.opalg import TDOperator, kg_operator, monomial_op
from kgsym.verify import random_reduced_jet, random_xypoly

X = XYPoly.variable("x")
Y = XYPoly.variable("y")


def u(k):
    return ReducedJetPoly.var("u", k)


def uf(a, b):
    return FreeJetPoly.var(a, b)


def random_free_jet(rng, max_order=3, max_degree=2, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            a = rng.randint(0, max_order)
            b = rng.randint(0, max_order - a)
            exps[(a, b)] = exps.get((a, b), 0) + 1
        terms[tuple(sorted(exps.items()))] = random_xypoly(rng, allow_zero=False)
    return FreeJetPoly(terms)


def test_reduced_derivative_shifts_indices():
    for k in range(-4, 5):
        assert u(k).total_derivative("x") == u(k + 1)
        assert u(k).total_derivative("y") == u(k - 1)


def test_onshell_relation():
    assert u(0).total_derivative("x").total_derivative("y") == u(0)


def test_reduced_derivative_product_rule():
    p = u(0) * u(0) * X
    expected = u(0) * u(0) + u(0) * u(1) * X * 2
    assert p.total_derivative("x") == expected


def test_reduced_derivatives_commute():
    rng = random.Random(31)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=3, max_degree=3)
        dxdy = p.total_derivative("x").total_derivative("y")
        dydx = p.total_derivative("y").total_derivative("x")
        assert dxdy == dydx


def test_reduced_J_examples():
    assert reduced_J(u(0)) == u(1) * X - u(-1) * Y
    assert reduced_J(ReducedJetPoly.one()).is_zero()
    expected = (u(2) * X ** 2 - u(0) * X * Y * 2 + u(-2) * Y ** 2
                + u(1) * X + u(-1) * Y)
    assert reduced_J(reduced_J(u(0))) == expected


def test_apply_operator_reduced():
    dx2dy = TDOperator({(2, 1): XYPoly.one()})
    assert apply_operator_reduced(dx2dy) == u(1)
    assert apply_operator_reduced(kg_operator()).is_zero()


def test_operator_application_matches_reduced_dilation():
    # The cube of the dilation word applied on shell agrees with three
    # reduced applications, although the two lifts differ off shell.
    j3 = monomial_op("X", 3, 0)
    assert apply_operator_reduced(j3) == reduced_J(reduced_J(reduced_J(u(0))))


def test_free_total_derivative():
    assert uf(0, 0).total_derivative("x") == uf(1, 0)
    assert uf(1, 0).total_derivative("y") == uf(1, 1)
    lagrangian = -(uf(1, 0) * uf(0, 1) + uf(0, 0) ** 2) * Fraction(1, 2)
    expected = -(uf(2, 0) * uf(0, 1) + uf(1, 0) * uf(1, 1)
                 + uf(0, 0) * uf(1, 0) * 2) * Fraction(1, 2)
    assert lagrangian.total_derivative("x") == expected


def test_euler_operator_on_lagrangian():
    lagrangian = -(uf(1, 0) * uf(0, 1) + uf(0, 0) ** 2) * Fraction(1, 2)
    assert euler_operator(lagrangian) == uf(1, 1) - uf(0, 0)


def test_euler_operator_annihilates_divergences():
    rng = random.Random(32)
    for _ in range(25):
        p = random_free_jet(rng)
        assert euler_operator(p.total_derivative("x")).is_zero()
        assert euler_operator(p.total_derivative("y")).is_zero()


def test_euler_operator_nonzero_example():
    p = uf(0, 0) * (uf(1, 1) - uf(0, 0))
    assert euler_operator(p) == uf(1, 1) * 2 - uf(0, 0) * 2


def test_reduce_examples():
    assert reduce(uf(1, 1)) == u(0)
    assert reduce(uf(2, 1)) == u(1)
    assert reduce(uf(1, 1) - uf(0, 0)).is_zero()


def test_reduce_is_differential_morphism():
    rng = random.Random(33)
    for _ in range(30):
        p = random_free_jet(rng)
        assert reduce(p.total_derivative("x")) == reduce(p).total_derivative("x")
        assert reduce(p.total_derivative("y")) == reduce(p).total_derivative("y")


def test_eval_exp_family_examples():
    assert eval_exp_family(u(0)) == {(0, 0, 0): 1}
    assert eval_exp_family(reduced_J(u(0))) == {(1, 0, 1): 1, (0, 1, -1): -1}
    assert eval_exp_family(u(2)) == {(0, 0, 2): 1}


def test_eval_exp_family_rejects_mixed_fields():
    mixed = u(0) + ReducedJetPoly.var("f", 0)
    with pytest.raises(ValueError):
        eval_exp_family(mixed)


def test_eval_exp_family_intertwines():
    # On linear polynomials, evaluating after the reduced x-derivative equals
    # multiplying by the spectral parameter plus differentiating in x.
    rng = random.Random(34)
    for _ in range(40):
        terms = {((("u", rng.randint(-3, 3)), 1),):
                 random_xypoly(rng, allow_zero=False)
                 for _ in range(rng.randint(1, 3))}
        p = ReducedJetPoly(terms)
        lhs = eval_exp_family(p.total_derivative("x"))
        ev = eval_exp_family(p)
        shifted = {(i, j, m + 1): c for (i, j, m), c in ev.items()}
        rhs = accumulate(shifted, (((i - 1, j, m), c * i)
                                   for (i, j, m), c in ev.items() if i))
        assert lhs == rhs


def test_order_bookkeeping():
    assert ReducedJetPoly.from_poly(X).order() is None
    assert (u(3) * u(-5)).order() == 5
    rng = random.Random(35)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=3)
        if p.order() is None:
            continue
        dp = p.total_derivative("x")
        if dp.order() is not None:
            assert dp.order() <= p.order() + 1
    # equality when the top x-index appears
    assert (u(2) * u(0)).total_derivative("x").order() == 3


def test_multifield_chain_rule_randomized():
    # Mixed-degree products of u- and f-jets still satisfy the Leibniz rule.
    rng = random.Random(36)
    for _ in range(40):
        p = random_reduced_jet(rng, max_order=2, max_degree=3)
        q = random_reduced_jet(rng, max_order=2, max_degree=3)
        for var in ("x", "y"):
            lhs = (p * q).total_derivative(var)
            rhs = p.total_derivative(var) * q + p * q.total_derivative(var)
            assert lhs == rhs


def test_apply_operator_free():
    op = TDOperator({(2, 1): X, (0, 0): XYPoly.constant(-1)})
    assert apply_operator_free(op) == uf(2, 1) * X - uf(0, 0)


def test_jet_text_forms():
    assert str(reduced_J(u(0))) == "x*u[1] - y*u[-1]"
    assert str(u(0) ** 2) == "u[0]^2"
    assert str(ReducedJetPoly.from_poly(Fraction(3, 2))) == "3/2"
    assert str(ReducedJetPoly.zero()) == "0"
    assert str(uf(1, 1) - uf(0, 0)) == "u(1,1) - u(0,0)"
