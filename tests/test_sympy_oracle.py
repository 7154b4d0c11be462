"""Independent check of operator composition and the formal adjoint: both
sides are applied to a generic function g(x, y) and compared in sympy."""

import random

import pytest

from kgsym.verify import random_operator

sympy = pytest.importorskip("sympy")

x, y = sympy.symbols("x y")
g = sympy.Function("g")(x, y)


def _poly(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                for (i, j), c in p.terms.items()), sympy.Integer(0))


def _apply(op, f):
    """op applied to the expression f, coefficients to the left."""
    return sum((_poly(c) * sympy.diff(f, x, p, y, q)
                for (p, q), c in op.terms.items()), sympy.Integer(0))


def _adjoint_applied(op, f):
    """sum over terms of (-1)^(p+q) Dx^p Dy^q (a_pq f)."""
    return sum(((-1) ** (p + q) * sympy.diff(_poly(c) * f, x, p, y, q)
                for (p, q), c in op.terms.items()), sympy.Integer(0))


@pytest.mark.parametrize("seed", range(12))
def test_compose_matches_sympy(seed):
    rng = random.Random(seed)
    a = random_operator(rng, max_order=3)
    b = random_operator(rng, max_order=3)
    lhs = _apply(a.compose(b), g)
    rhs = _apply(a, _apply(b, g))
    assert sympy.expand(lhs - rhs) == 0


@pytest.mark.parametrize("seed", range(12))
def test_adjoint_matches_sympy(seed):
    a = random_operator(random.Random(1000 + seed), max_order=4)
    assert sympy.expand(_apply(a.adjoint(), g) - _adjoint_applied(a, g)) == 0
