"""Independent checks in sympy: operator composition and the formal adjoint
are applied to a generic function g(x, y), the Euler operator is compared
with sympy's Euler-Lagrange equations, and the exact kernel and rank are
compared with sympy's own on random sparse rational matrices."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import RationalMatrix, nullspace, rank
from kgsym.jet import FreeJetPoly, euler_operator
from kgsym.verify import random_operator, random_xypoly

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


def _free_jet(p):
    """The free jet polynomial p with u_(a,b) read as d^a/dx^a d^b/dy^b g."""
    return sum((_poly(c) * sympy.Mul(*(sympy.diff(g, x, a, y, b) ** e
                                       for (a, b), e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def _random_lagrangian(rng):
    """Up to four monomials of jet degree 1 to 3 in u_(a,b), a + b <= 3;
    the first factor of the first monomial is a mixed derivative."""
    terms = {}
    for n in range(rng.randint(1, 4)):
        exps = {}
        for m in range(rng.randint(1, 3)):
            low = 1 if n == m == 0 else 0
            a = rng.randint(low, 2)
            b = rng.randint(low, 3 - a)
            exps[(a, b)] = exps.get((a, b), 0) + 1
        terms[tuple(sorted(exps.items()))] = random_xypoly(rng,
                                                           allow_zero=False)
    return FreeJetPoly(terms)


@pytest.mark.parametrize("seed", range(12))
def test_euler_operator_matches_sympy(seed):
    lagrangian = _random_lagrangian(random.Random(2000 + seed))
    (equation,) = sympy.euler_equations(_free_jet(lagrangian), g, [x, y])
    expected = equation.lhs - equation.rhs
    assert sympy.expand(_free_jet(euler_operator(lagrangian)) - expected) == 0


def _sparse_rows(rng, rows, cols, density=0.3):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
             if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def _deficient_rows(rng, rows, cols, true_rank):
    """rows x cols of rank at most true_rank: combinations of a few rows."""
    base = _sparse_rows(rng, true_rank, cols, density=0.5)
    out = []
    for _ in range(rows):
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in base]
        out.append([sum((w * row[c] for w, row in zip(weights, base)),
                        Fraction(0)) for c in range(cols)])
    return out


def _shapes(seed):
    rng = random.Random(seed)
    return [_sparse_rows(rng, 9, 4),                  # tall
            _sparse_rows(rng, 3, 8),                  # wide
            _sparse_rows(rng, 6, 6, density=0.15),    # square, sparse
            [[Fraction(0)] * 5 for _ in range(3)],    # zero
            _deficient_rows(rng, 7, 6, 3),            # rank-deficient
            _deficient_rows(rng, 4, 9, 2)]


def _sympy_matrix(entries):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in entries])


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_and_rank_match_sympy(seed):
    for entries in _shapes(seed):
        m = RationalMatrix.from_rows(entries)
        expected = [[Fraction(int(v.p), int(v.q)) for v in vec]
                    for vec in _sympy_matrix(entries).nullspace()]
        assert nullspace(m) == expected
        assert rank(m) == _sympy_matrix(entries).rank()
