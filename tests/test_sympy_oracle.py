"""Independent checks in sympy: operator composition and the formal adjoint
are applied to a generic function g(x, y), and on monomials of high order
compared through operator symbols; the Euler operator is compared with
sympy's Euler-Lagrange equations and the free total derivatives with
sympy's derivatives in x and y, the products of XYPolys with sympy's
expansion, and the exact kernel and rank are compared
with sympy's own on random sparse rational matrices, and the pivot rows of
the elimination in a given column order with sympy's rref."""

import random
from fractions import Fraction

import pytest

from kgsym.arith import RationalMatrix, XYPoly, echelon, nullspace, rank
from kgsym.jet import FreeJetPoly, euler_operator
from kgsym.opalg import TDOperator
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


def _random_factor(rng):
    """An XYPoly of at least two terms, some coefficients Fractions."""
    while True:
        p = XYPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                    Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                    for _ in range(rng.randint(2, 5))})
        if len(p.terms) >= 2:
            return p


def _poly_terms(expr):
    """The nonzero coefficients of the sympy polynomial expr in x and y."""
    return {monom: Fraction(int(c.p), int(c.q))
            for monom, c in sympy.Poly(expr, x, y).terms() if c}


@pytest.mark.parametrize("seed", range(12))
def test_xypoly_product_matches_sympy(seed):
    # Neither factor has one term, so no product takes the one-term shift;
    # integral coefficients, sums of Fractions too, come back as ints.
    rng = random.Random(3000 + seed)
    half = Fraction(1, 2)
    halves = XYPoly({(1, 0): half, (0, 1): half})
    ones = XYPoly({(1, 0): 1, (0, 1): 1})
    pairs = [(_random_factor(rng), _random_factor(rng)) for _ in range(20)]
    for p, q in [*pairs, (halves, ones)]:
        product = p * q
        assert product.terms == _poly_terms(sympy.expand(_poly(p) * _poly(q)))
        assert q * p == product
        for c in product.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction)
    assert (halves * ones).terms == {(2, 0): half, (1, 1): 1, (0, 2): half}


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


a, b = sympy.symbols("a b")


def _symbol(op):
    """The symbol of op, exp(-ax - by) op exp(ax + by) = sum a_pq a^p b^q,
    a polynomial in x, y, a, b that determines op."""
    return sympy.Poly.from_dict(
        {(i, j, p, q): sympy.Rational(c.numerator, c.denominator)
         for (p, q), poly in op.terms.items()
         for (i, j), c in poly.terms.items()}, x, y, a, b)


@pytest.mark.parametrize("i", range(6))
def test_leibniz_monomials_match_sympy(i):
    # random_operator's coefficients have degree <= 2, so the tests above
    # reach Leibniz orders m, n <= 2 only. Here Dx^p Dy^q o x^i y^j and the
    # adjoint of x^i y^j Dx^p Dy^q, p, q, j <= 5, are compared with the symbol
    # exp(-ax - by) Dx^p Dy^q (x^i y^j exp(ax + by)), which sympy builds one
    # derivative at a time by the product rule: P -> dP/dx + a P.
    for j in range(6):
        mono = XYPoly({(i, j): 1})
        after_x = sympy.Poly(x**i * y**j, x, y, a, b)
        for p in range(6):
            expected = after_x
            for q in range(6):
                op = TDOperator({(p, q): 1}).compose(TDOperator.mul_by(mono))
                assert _symbol(op) == expected, (p, q, i, j)
                adjoint = TDOperator({(p, q): mono}).adjoint()
                assert _symbol(adjoint) == (-1) ** (p + q) * expected, (
                    p, q, i, j)
                expected = expected.diff(y) + b * expected
            after_x = after_x.diff(x) + a * after_x


def _free_jet(p):
    """The free jet polynomial p with u_(a,b) read as d^a/dx^a d^b/dy^b g."""
    return sum((_poly(c) * sympy.Mul(*(sympy.diff(g, x, a, y, b)
                                       for a, b in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def _random_lagrangian(rng):
    """Up to four monomials of jet degree 1 to 3 in u_(a,b), a + b <= 3;
    the first factor of the first monomial is a mixed derivative."""
    terms = {}
    for n in range(rng.randint(1, 4)):
        mono = []
        for m in range(rng.randint(1, 3)):
            low = 1 if n == m == 0 else 0
            a = rng.randint(low, 2)
            mono.append((a, rng.randint(low, 3 - a)))
        terms[tuple(sorted(mono))] = random_xypoly(rng, allow_zero=False)
    return FreeJetPoly(terms)


@pytest.mark.parametrize("seed", range(12))
def test_euler_operator_matches_sympy(seed):
    lagrangian = _random_lagrangian(random.Random(2000 + seed))
    (equation,) = sympy.euler_equations(_free_jet(lagrangian), g, [x, y])
    expected = equation.lhs - equation.rhs
    assert sympy.expand(_free_jet(euler_operator(lagrangian)) - expected) == 0


@pytest.mark.parametrize("seed", range(12))
def test_total_derivative_matches_sympy(seed):
    p = _random_lagrangian(random.Random(4000 + seed))
    for var, symbol in (("x", x), ("y", y)):
        assert sympy.expand(_free_jet(p.total_derivative(var))
                            - sympy.diff(_free_jet(p), symbol)) == 0


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
        m = RationalMatrix(entries)
        expected = [[Fraction(int(v.p), int(v.q)) for v in vec]
                    for vec in _sympy_matrix(entries).nullspace()]
        assert nullspace(m) == expected
        assert rank(m) == _sympy_matrix(entries).rank()


@pytest.mark.parametrize("seed", range(10))
def test_echelon_pivots_match_sympy_rref(seed):
    # Columns are string keys, ranked by a shuffled order; sympy's rref of
    # the matrix with its columns in that order pivots on the same columns,
    # and each echelon row over its pivot value is the rref row.
    rng = random.Random(3000 + seed)
    for entries in _shapes(seed):
        keys = [f"c{c}" for c in range(len(entries[0]))]
        order = rng.sample(keys, len(keys))
        rows = [{key: v for key, v in zip(keys, row) if v}
                for row in entries]
        rows = [row for row in rows if row]
        reduced, pivots = _sympy_matrix(
            [[row.get(key, Fraction(0)) for key in order] for row in rows]
            or [[0] * len(order)]).rref()
        echelon_rows = echelon(rows, order)
        assert sorted(echelon_rows, key=order.index) == [order[p]
                                                         for p in pivots]
        for i, p in enumerate(pivots):
            row = echelon_rows[order[p]]
            assert [Fraction(row.get(key, 0), row[order[p]])
                    for key in order] == [Fraction(int(v.p), int(v.q))
                                          for v in reduced.row(i)]
